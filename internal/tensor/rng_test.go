package tensor

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestFillUniformIsUniformDrawn is FillUniform's contract: the same floats as
// one Uniform call per element, and the stream left where those calls leave
// it (state bytes and the next draws), with SIMD off and on, at any worker
// count and at lengths around every boundary the fill has (none, one lane
// group of fillLanes draws and a scalar tail, one chunk, several, a ragged
// last one). The second range's span·u is inexact, so a multiply and add
// fused into one rounding shows.
func TestFillUniformIsUniformDrawn(t *testing.T) {
	lengths := []int{0, 1, 3, 4, fillLanes - 1, fillLanes, fillLanes + 1, 2*fillLanes - 1, 2 * fillLanes, 2*fillLanes + 1,
		255, 256, 257, fillChunk - 1, fillChunk + 1, 2*fillChunk - 1, 2 * fillChunk, 3*fillChunk + 5, 1<<20 + 3}
	seeds := []uint64{0, 1, 42, 1<<63 + 12345}
	ranges := [][2]float32{{-0.3, 0.7}, {-0.0417, 0.0417}}
	if raceEnabled {
		lengths, seeds = lengths[:len(lengths)-1], seeds[:2]
	}
	for _, simd := range []bool{false, true} {
		prevSIMD := SetSIMD(simd)
		for _, workers := range []int{1, 2, 3, 8} {
			prev := SetMaxWorkers(workers)
			for _, n := range lengths {
				for _, seed := range seeds {
					for _, r := range ranges {
						got, want := NewRNG(seed), NewRNG(seed)
						x := New(n)
						got.FillUniform(x, r[0], r[1])
						for i, v := range x.Data {
							if w := want.Uniform(r[0], r[1]); math.Float32bits(v) != math.Float32bits(w) {
								t.Fatalf("simd %v, workers %d, n %d, seed %d, range %v: element %d is %v, Uniform draws %v", SIMDEnabled(), workers, n, seed, r, i, v, w)
							}
						}
						gs, _ := got.MarshalState()
						ws, _ := want.MarshalState()
						if !bytes.Equal(gs, ws) {
							t.Fatalf("simd %v, workers %d, n %d, seed %d: state %x after the fill, %x after the draws", SIMDEnabled(), workers, n, seed, gs, ws)
						}
						for k := 0; k < 8; k++ {
							if g, w := got.Uint64(), want.Uint64(); g != w {
								t.Fatalf("simd %v, workers %d, n %d, seed %d: draw %d after the fill is %d, want %d", SIMDEnabled(), workers, n, seed, k, g, w)
							}
						}
					}
				}
			}
			SetMaxWorkers(prev)
		}
		SetSIMD(prevSIMD)
	}
}

// TestFillUniformKernelMatchesScalar runs fillUniform from arbitrary PCG
// states, not only seeded ones, at every length up to five lane groups and
// a tail, with SIMD on against SIMD off, over ranges that include ±0, an
// infinite span and a subnormal one.
func TestFillUniformKernelMatchesScalar(t *testing.T) {
	ranges := [][2]float32{{-1, 1}, {0, 1}, {-0.0417, 0.0417}, {float32(math.Copysign(0, -1)), 0}, {-3e38, 3e38}, {0, 1e-44}}
	rng := rand.New(rand.NewPCG(3, 4))
	want, got := make([]float32, 5*fillLanes+3), make([]float32, 5*fillLanes+3)
	for k := 0; k < 64; k++ {
		s := pcgState{hi: rng.Uint64(), lo: rng.Uint64()}
		for _, r := range ranges {
			span := r[1] - r[0]
			for n := 0; n <= len(want); n++ {
				prev := SetSIMD(false)
				fillUniform(want[:n], s, r[0], span)
				SetSIMD(true)
				fillUniform(got[:n], s, r[0], span)
				SetSIMD(prev)
				for i := range n {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("state %+v, range %v, n %d: element %d is %v with SIMD on, %v off", s, r, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPCGStateIsMathRands pins pcgState to math/rand/v2's PCG: the state
// read back is the one seeded, a step and its output are PCG.Uint64's, and
// after any number of steps both sides hold the same state. A Go release
// that changed the generator fails here, not as a silent change of every
// initial weight.
func TestPCGStateIsMathRands(t *testing.T) {
	for _, seed := range [][2]uint64{{0, 0}, {1, 2}, {^uint64(0), 0x9e3779b97f4a7c15}} {
		p := rand.NewPCG(seed[0], seed[1])
		s := pcgStateOf(p)
		if s != (pcgState{hi: seed[0], lo: seed[1]}) {
			t.Fatalf("seed %v: read state %+v", seed, s)
		}
		for k := 0; k < 1000; k++ {
			s = s.next()
			if g, w := s.output(), p.Uint64(); g != w {
				t.Fatalf("seed %v, draw %d: output %d, PCG.Uint64 %d", seed, k, g, w)
			}
			if r := pcgStateOf(p); r != s {
				t.Fatalf("seed %v, draw %d: state %+v, PCG holds %+v", seed, k, s, r)
			}
		}
		q := rand.NewPCG(0, 0)
		q.Seed(s.hi, s.lo)
		if g, w := q.Uint64(), p.Uint64(); g != w {
			t.Fatalf("seed %v: a PCG seeded with the read state draws %d, the original %d", seed, g, w)
		}
	}
}

// TestPCGAdvanceIsRepeatedSteps: advance(n) is n steps for small n, and
// advances compose additively.
func TestPCGAdvanceIsRepeatedSteps(t *testing.T) {
	s0 := pcgState{hi: 0x0123456789abcdef, lo: 0xfedcba9876543210}
	s := s0
	for n := uint64(0); n < 300; n++ {
		if a := s0.advance(n); a != s {
			t.Fatalf("advance(%d) = %+v, %d steps reach %+v", n, a, n, s)
		}
		s = s.next()
	}
	for _, ab := range [][2]uint64{{0, 0}, {1, 1 << 20}, {fillChunk, 3*fillChunk + 5}, {1<<40 + 7, 1<<41 - 3}} {
		a, b := ab[0], ab[1]
		if x, y := s0.advance(a).advance(b), s0.advance(a+b); x != y {
			t.Fatalf("advance(%d).advance(%d) = %+v, advance(%d) = %+v", a, b, x, a+b, y)
		}
	}
}

// TestFillUniformAllocs: a fill on the caller allocates nothing (the state
// and the SIMD lanes live in stack buffers); a fill split over the kernel
// pool pays only for parallelFor's closure and wait group.
func TestFillUniformAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := NewRNG(7)
	for _, simd := range []bool{false, true} {
		prevSIMD := SetSIMD(simd)
		for _, c := range []struct {
			n, workers int
			want       float64
		}{{fillChunk, 2, 0}, {4 * fillChunk, 2, 2}} {
			prev := SetMaxWorkers(c.workers)
			x := New(c.n)
			if got := testing.AllocsPerRun(20, func() { g.FillUniform(x, -1, 1) }); got != c.want {
				t.Errorf("simd %v: a fill of %d floats at %d workers: %v allocs, want %v", SIMDEnabled(), c.n, c.workers, got, c.want)
			}
			SetMaxWorkers(prev)
		}
		SetSIMD(prevSIMD)
	}
}

// BenchmarkFillUniform: a bias-sized fill (the serial path), one resnet18
// 3×3 512→512 conv weight (2.4 M floats) and a 4 M-float fill, each with the
// SIMD kernel off and on (`-bench 'FillUniform/2359296' -cpu 1` compares the
// two loops on one core).
func BenchmarkFillUniform(b *testing.B) {
	for _, n := range []int{512, 512 * 512 * 9, 1 << 22} {
		for _, simd := range []bool{false, true} {
			b.Run(fmt.Sprintf("%d/simd=%v", n, simd), func(b *testing.B) {
				defer SetSIMD(SetSIMD(simd))
				if SIMDEnabled() != simd {
					b.Skip("no AVX2 on this host")
				}
				g := NewRNG(1)
				x := New(n)
				b.SetBytes(int64(4 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.FillUniform(x, -1, 1)
				}
			})
		}
	}
}

// TestFillNormalIsNormFloat64Drawn is FillNormal's contract: the same floats
// as one Normal call per element, and the stream left where those calls
// leave it (state bytes and the next draws), at any worker count and at
// lengths around the block edges of a split fill (one block, two, a ragged
// last one).
func TestFillNormalIsNormFloat64Drawn(t *testing.T) {
	lengths := []int{0, 1, 3, 255, fillChunk - 1, fillChunk, fillChunk + 1, 2*fillChunk - 1, 2 * fillChunk, 2*fillChunk + 1, 3*fillChunk + 5}
	seeds, bigSeeds := 32, 4 // the first bigSeeds also fill 1<<20 + 3 floats
	if raceEnabled {
		seeds, bigSeeds = 4, 0
	}
	const mean, std = 0.25, 1.5
	for k := 0; k < seeds; k++ {
		seed := uint64(k) * 0x9e3779b97f4a7c15
		ns := lengths
		if k < bigSeeds {
			ns = append(ns[:len(ns):len(ns)], 1<<20+3)
		}
		// The fill of n floats is the first n of one per-element stream;
		// states[n] is that stream's position after n Normal calls.
		ref := NewRNG(seed)
		want := make([]float32, ns[len(ns)-1])
		states := map[int][]byte{}
		for i := 0; i <= len(want); i++ {
			if slices.Contains(ns, i) {
				states[i], _ = ref.MarshalState()
			}
			if i < len(want) {
				want[i] = float32(ref.Normal(mean, std))
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			prev := SetMaxWorkers(workers)
			for _, n := range ns {
				got := NewRNG(seed)
				x := New(n)
				got.FillNormal(x, mean, std)
				for i, v := range x.Data {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Fatalf("workers %d, n %d, seed %d: element %d is %v, Normal draws %v", workers, n, seed, i, v, want[i])
					}
				}
				gs, _ := got.MarshalState()
				if !bytes.Equal(gs, states[n]) {
					t.Fatalf("workers %d, n %d, seed %d: state %x after the fill, %x after the draws", workers, n, seed, gs, states[n])
				}
				after := NewRNG(0)
				if err := after.UnmarshalState(states[n]); err != nil {
					t.Fatal(err)
				}
				for d := 0; d < 8; d++ {
					if g, w := got.Uint64(), after.Uint64(); g != w {
						t.Fatalf("workers %d, n %d, seed %d: draw %d after the fill is %d, want %d", workers, n, seed, d, g, w)
					}
				}
			}
			SetMaxWorkers(prev)
		}
	}
}

// TestFillNormalCrossesABlockBoundary finds, with the serial parser, a seed
// whose sample straddles the first block boundary of a split fill — the case
// where the second block's speculative parse starts inside a sample and must
// be parsed again — and checks the split fill against per-element Normal
// calls there.
func TestFillNormalCrossesABlockBoundary(t *testing.T) {
	buf := make([]float32, fillChunk)
	seed := uint64(0)
	for ; ; seed++ {
		if seed == 5000 {
			t.Fatal("no seed in 5000 has a sample across draw fillChunk")
		}
		if _, drawn, _ := fillNormal(buf, pcgStateOf(NewRNG(seed).src), fillChunk, 0, 1); drawn > fillChunk {
			break
		}
	}
	n := 3*fillChunk + 17
	for _, workers := range []int{2, 3, 8} {
		prev := SetMaxWorkers(workers)
		got, want := NewRNG(seed), NewRNG(seed)
		x := New(n)
		got.FillNormal(x, 0, 1)
		for i, v := range x.Data {
			if w := float32(want.Normal(0, 1)); math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("seed %d, workers %d: element %d is %v, Normal draws %v", seed, workers, i, v, w)
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d, workers %d: the draw after the fill is %d, want %d", seed, workers, g, w)
		}
		SetMaxWorkers(prev)
	}
}

// TestZigguratSlowPaths runs zigguratSlow from states whose first attempt
// misses the fast path — into the base strip's tail on either side, or into
// the wedge, accepted or rejected — and checks the sample, at float64, and
// the state after it against rand.Rand.NormFloat64 from the same state.
func TestZigguratSlowPaths(t *testing.T) {
	for _, j := range []int32{0, 1, -1, math.MaxInt32, math.MinInt32, -12345} {
		want := uint32(j)
		if j < 0 {
			want = uint32(-j)
		}
		if got := absInt32(j); got != want {
			t.Fatalf("absInt32(%d) = %d, want %d", j, got, want)
		}
	}
	const each = 16
	found := map[string]int{}
	for k := uint64(1); len(found) < 4 || slices.Min(slices.Collect(maps.Values(found))) < each; k++ {
		if k == 1<<22 {
			t.Fatalf("2^22 states found only %v", found)
		}
		s := pcgState{hi: k * 0x9e3779b97f4a7c15, lo: k ^ 0xda942042e4dd58b5}
		first := s.next()
		u := first.output()
		j, i := int32(u), u>>32&0x7f
		if absInt32(j) < zigKn[i] {
			continue
		}
		x, end, drawn := zigguratSlow(first, j, i, float64(j)*float64(zigWn[i]))
		var kind string
		switch {
		case i == 0 && j > 0:
			kind = "tail above"
		case i == 0:
			kind = "tail below"
		case drawn == 1:
			kind = "wedge accepted"
		default:
			kind = "wedge rejected"
		}
		if found[kind] >= each {
			continue
		}
		found[kind]++
		p := rand.NewPCG(s.hi, s.lo)
		if w := rand.New(p).NormFloat64(); math.Float64bits(x) != math.Float64bits(w) {
			t.Fatalf("%s, state %+v: sample %v, NormFloat64 %v", kind, s, x, w)
		}
		if ps := pcgStateOf(p); ps != end {
			t.Fatalf("%s, state %+v: ends at %+v after %d more draws, NormFloat64 at %+v", kind, s, end, drawn, ps)
		}
	}
}

// TestFillNormalAllocs: a fill on the caller allocates nothing; a split
// fill pays for its per-block table, its two closures and parallelFor's
// wait group.
func TestFillNormalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := NewRNG(7)
	for _, c := range []struct {
		n, workers int
		want       float64
	}{{fillChunk, 2, 0}, {4 * fillChunk, 2, 4}} {
		prev := SetMaxWorkers(c.workers)
		x := New(c.n)
		if got := testing.AllocsPerRun(20, func() { g.FillNormal(x, 0, 1) }); got != c.want {
			t.Errorf("a fill of %d floats at %d workers: %v allocs, want %v", c.n, c.workers, got, c.want)
		}
		SetMaxWorkers(prev)
	}
}

// BenchmarkFillNormal: a 512-float fill (the serial path), 512 k floats and
// one remote_text embedding table (20 000 × 64).
func BenchmarkFillNormal(b *testing.B) {
	for _, n := range []int{512, 512 << 10, 20000 * 64} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			g := NewRNG(1)
			x := New(n)
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.FillNormal(x, 0, 0.1)
			}
		})
	}
}
