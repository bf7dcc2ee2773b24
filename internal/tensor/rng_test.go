package tensor

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestFillUniformIsUniformDrawn is FillUniform's contract: the same floats as
// one Uniform call per element, and the stream left where those calls leave
// it (state bytes and the next draws), at any worker count and at lengths
// around every boundary the fill has (none, one chunk, several, a ragged
// last one).
func TestFillUniformIsUniformDrawn(t *testing.T) {
	lengths := []int{0, 1, 3, 4, 255, 256, 257, fillChunk - 1, fillChunk + 1, 2*fillChunk - 1, 2 * fillChunk, 3*fillChunk + 5, 1<<20 + 3}
	seeds := []uint64{0, 1, 42, 1<<63 + 12345}
	if raceEnabled {
		lengths, seeds = lengths[:len(lengths)-1], seeds[:2]
	}
	for _, workers := range []int{1, 2, 3, 8} {
		prev := SetMaxWorkers(workers)
		for _, n := range lengths {
			for _, seed := range seeds {
				got, want := NewRNG(seed), NewRNG(seed)
				x := New(n)
				got.FillUniform(x, -0.3, 0.7)
				for i, v := range x.Data {
					if w := want.Uniform(-0.3, 0.7); v != w {
						t.Fatalf("workers %d, n %d, seed %d: element %d is %v, Uniform draws %v", workers, n, seed, i, v, w)
					}
				}
				gs, _ := got.MarshalState()
				ws, _ := want.MarshalState()
				if !bytes.Equal(gs, ws) {
					t.Fatalf("workers %d, n %d, seed %d: state %x after the fill, %x after the draws", workers, n, seed, gs, ws)
				}
				for k := 0; k < 8; k++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("workers %d, n %d, seed %d: draw %d after the fill is %d, want %d", workers, n, seed, k, g, w)
					}
				}
			}
		}
		SetMaxWorkers(prev)
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
// is read into a stack buffer); a fill split over the kernel pool pays only
// for parallelFor's closure and wait group.
func TestFillUniformAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := NewRNG(7)
	for _, c := range []struct {
		n, workers int
		want       float64
	}{{fillChunk, 2, 0}, {4 * fillChunk, 2, 2}} {
		prev := SetMaxWorkers(c.workers)
		x := New(c.n)
		if got := testing.AllocsPerRun(20, func() { g.FillUniform(x, -1, 1) }); got != c.want {
			t.Errorf("a fill of %d floats at %d workers: %v allocs, want %v", c.n, c.workers, got, c.want)
		}
		SetMaxWorkers(prev)
	}
}

// BenchmarkFillUniform: one resnet18 3×3 512→512 conv weight (2.4 M floats)
// and a 4 M-float fill; bias-sized fills are the serial path.
func BenchmarkFillUniform(b *testing.B) {
	for _, n := range []int{512, 512 * 512 * 9, 1 << 22} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			g := NewRNG(1)
			x := New(n)
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.FillUniform(x, -1, 1)
			}
		})
	}
}
