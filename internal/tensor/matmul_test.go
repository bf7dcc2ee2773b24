package tensor

import (
	"fmt"
	"testing"
)

// refMatMul is a straightforward float64-accumulating reference.
func refMatMul(a, b *Tensor, aT, bT bool) *Tensor {
	var m, k, n int
	if aT {
		k, m = a.shape[0], a.shape[1]
	} else {
		m, k = a.shape[0], a.shape[1]
	}
	if bT {
		n = b.shape[0]
	} else {
		n = b.shape[1]
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				var av, bv float32
				if aT {
					av = a.Data[p*m+i]
				} else {
					av = a.Data[i*k+p]
				}
				if bT {
					bv = b.Data[j*k+p]
				} else {
					bv = b.Data[p*n+j]
				}
				s += float64(av) * float64(bv)
			}
			out.Data[i*n+j] = float32(s)
		}
	}
	return out
}

// TestMatMulKernels exercises the blocked kernels across shapes chosen to
// hit every code path: row pairing remainders, k%4 tails, n%4 tails, SIMD
// 8-lane tails, and degenerate sizes.
func TestMatMulKernels(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 4, 1}, {2, 3, 5}, {3, 7, 2}, {4, 4, 4},
		{5, 9, 13}, {8, 16, 8}, {7, 5, 17}, {16, 11, 3}, {33, 13, 29},
	}
	rng := NewRNG(3)
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			a := New(s.m, s.k)
			b := New(s.k, s.n)
			bt := New(s.n, s.k)
			at := New(s.k, s.m)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			rng.FillNormal(bt, 0, 1)
			rng.FillNormal(at, 0, 1)
			tol := float32(1e-4 * float64(s.k))
			if got, want := MatMul(a, b), refMatMul(a, b, false, false); !got.AllClose(want, tol) {
				t.Errorf("MatMul diff %v", got.MaxAbsDiff(want))
			}
			if got, want := MatMulBT(a, bt), refMatMul(a, bt, false, true); !got.AllClose(want, tol) {
				t.Errorf("MatMulBT diff %v", got.MaxAbsDiff(want))
			}
			if got, want := MatMulAT(at, b), refMatMul(at, b, true, false); !got.AllClose(want, tol) {
				t.Errorf("MatMulAT diff %v", got.MaxAbsDiff(want))
			}
		})
	}
}

// TestMatMulSIMDMatchesGeneric cross-checks the assembly kernels against
// the pure-Go kernels (tolerance only — FMA rounds differently).
func TestMatMulSIMDMatchesGeneric(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("SIMD not available on this machine")
	}
	rng := NewRNG(11)
	a := New(31, 45)
	b := New(45, 27)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	simd := MatMul(a, b)
	prev := SetSIMD(false)
	generic := MatMul(a, b)
	SetSIMD(prev)
	if !simd.AllClose(generic, 1e-3) {
		t.Fatalf("SIMD vs generic diff %v", simd.MaxAbsDiff(generic))
	}
}

// TestMatMulShapePanics verifies the shared validation helper fires for all
// three entry points.
func TestMatMulShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(4, 5)
	for name, fn := range map[string]func(){
		"MatMul":   func() { MatMul(a, b) },
		"MatMulBT": func() { MatMulBT(a, b) },
		"MatMulAT": func() { MatMulAT(a, b) },
		"Into":     func() { MatMulInto(New(9, 9), a, New(3, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// TestMatMulDeterministicAcrossWorkers is the kernel half of the repo's
// determinism contract: bit-identical outputs for every worker count, for
// all three matmul variants, at shapes that split unevenly across chunks.
func TestMatMulDeterministicAcrossWorkers(t *testing.T) {
	rng := NewRNG(17)
	for _, s := range []struct{ m, k, n int }{{64, 64, 64}, {33, 13, 29}, {7, 129, 65}} {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		bt := New(s.n, s.k)
		at := New(s.k, s.m)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		rng.FillNormal(bt, 0, 1)
		rng.FillNormal(at, 0, 1)

		prev := SetMaxWorkers(1)
		r1, r2, r3 := MatMul(a, b), MatMulBT(a, bt), MatMulAT(at, b)
		for _, w := range []int{2, 3, 8} {
			SetMaxWorkers(w)
			if got := MatMul(a, b); !got.Equal(r1) {
				t.Errorf("MatMul %v: workers=%d not bit-identical to workers=1", s, w)
			}
			if got := MatMulBT(a, bt); !got.Equal(r2) {
				t.Errorf("MatMulBT %v: workers=%d not bit-identical to workers=1", s, w)
			}
			if got := MatMulAT(at, b); !got.Equal(r3) {
				t.Errorf("MatMulAT %v: workers=%d not bit-identical to workers=1", s, w)
			}
		}
		SetMaxWorkers(prev)
	}
}

// TestMatMulAccumulating pins the accumulating entries (dst += a×b and
// dst += aᵀ×b) on both backends and at every worker count:
//
//   - started from zeros they are the overwriting entries, bit for bit (the
//     flag only skips the zero-fill);
//   - a product split along k at a multiple of 4 and accumulated piece by
//     piece is the unsplit product bit for bit — each element's chain of
//     products simply continues (a split elsewhere regroups the 4-wide
//     unrolled steps and is only deterministic, not equal). This is what
//     lets a weight gradient be summed block by block in place;
//   - on positive data (no cancellation) each element is within k/2 + 2 ulp
//     of the float64 value of dst + a×b.
func TestMatMulAccumulating(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	for _, simd := range []bool{true, false} {
		if simd && !SIMDEnabled() {
			continue
		}
		prev := SetSIMD(simd)
		for _, s := range []struct{ m, k, n, split int }{{1, 4, 1, 0}, {5, 9, 13, 4}, {7, 40, 17, 12}, {33, 24, 29, 8}, {16, 64, 600, 32}} {
			rng := NewRNG(uint64(s.m*1000 + s.k))
			a, at, b, seed := New(s.m, s.k), New(s.k, s.m), New(s.k, s.n), New(s.m, s.n)
			rng.FillUniform(a, 0.5, 1.5)
			rng.FillUniform(b, 0.5, 1.5)
			rng.FillUniform(seed, 0.5, 1.5)
			for i := 0; i < s.m; i++ {
				for p := 0; p < s.k; p++ {
					at.Data[p*s.m+i] = a.Data[i*s.k+p]
				}
			}
			want := refMatMul(a, b, false, false)
			var ref []*Tensor
			for _, workers := range []int{1, 2, 3, 8} {
				SetMaxWorkers(workers)
				name := fmt.Sprintf("simd=%v %dx%dx%d workers=%d", simd, s.m, s.k, s.n, workers)

				fromZero, fromZeroAT := New(s.m, s.n), New(s.m, s.n)
				MatMulAccRawInto(fromZero.Data, a.Data, b.Data, s.m, s.k, s.n)
				MatMulATAccRawInto(fromZeroAT.Data, at.Data, b.Data, s.m, s.k, s.n)
				if plain := MatMul(a, b); !fromZero.Equal(plain) || !fromZeroAT.Equal(MatMulAT(at, b)) || !fromZero.Equal(fromZeroAT) {
					t.Errorf("%s: accumulating into zeros is not the overwriting product", name)
				}

				pieces, piecesAT := New(s.m, s.n), New(s.m, s.n)
				k0 := s.split // a[:, :k0]·b[:k0] then a[:, k0:]·b[k0:]
				head := New(s.m, k0)
				tail := New(s.m, s.k-k0)
				for i := 0; i < s.m; i++ {
					copy(head.Data[i*k0:(i+1)*k0], a.Data[i*s.k:])
					copy(tail.Data[i*(s.k-k0):(i+1)*(s.k-k0)], a.Data[i*s.k+k0:])
				}
				MatMulAccRawInto(pieces.Data, head.Data, b.Data, s.m, k0, s.n)
				MatMulAccRawInto(pieces.Data, tail.Data, b.Data[k0*s.n:], s.m, s.k-k0, s.n)
				MatMulATAccRawInto(piecesAT.Data, at.Data, b.Data, s.m, k0, s.n)
				MatMulATAccRawInto(piecesAT.Data, at.Data[k0*s.m:], b.Data[k0*s.n:], s.m, s.k-k0, s.n)
				if !pieces.Equal(fromZero) || !piecesAT.Equal(fromZero) {
					t.Errorf("%s: a product accumulated in two k-pieces (split at %d) is not the unsplit product", name, k0)
				}

				onSeed, onSeedAT := seed.Clone(), seed.Clone()
				MatMulAccRawInto(onSeed.Data, a.Data, b.Data, s.m, s.k, s.n)
				MatMulATAccRawInto(onSeedAT.Data, at.Data, b.Data, s.m, s.k, s.n)
				if !onSeed.Equal(onSeedAT) {
					t.Errorf("%s: a×b and aᵀ×b accumulate differently", name)
				}
				for i, got := range onSeed.Data {
					if u := ulpDiff32(got, float64(seed.Data[i])+float64(want.Data[i])); u > float64(s.k/2+2) {
						t.Fatalf("%s: element %d off by %v ulp from float64", name, i, u)
					}
				}

				if got := []*Tensor{fromZero, pieces, onSeed}; ref == nil {
					ref = got
				} else {
					for i := range got {
						if !got[i].Equal(ref[i]) {
							t.Errorf("%s: not bit-identical to workers=1", name)
						}
					}
				}
			}
		}
		SetSIMD(prev)
	}
}

// unblockedAxpy is the row-range loop without a column window — one output
// row at a time over its whole width, ascending p in steps of four on the
// active backend's kernel, then the k%4 remainder — kept here as the referee
// of the windowed loops: a window may change which elements are visited
// when, never an element's chain. mult(i, p) is a[i, p] for a × b and
// a[p, i] for aᵀ × b.
func unblockedAxpy(dst, b []float32, m, k, n int, acc bool, mult func(i, p int) float32) {
	for i := 0; i < m; i++ {
		d := dst[i*n : (i+1)*n]
		if !acc {
			zeroFloats(d)
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			av := [4]float32{mult(i, p), mult(i, p+1), mult(i, p+2), mult(i, p+3)}
			b0, b1, b2, b3 := b[p*n:(p+1)*n], b[(p+1)*n:(p+2)*n], b[(p+2)*n:(p+3)*n], b[(p+3)*n:(p+4)*n]
			if simdAvailable {
				axpy4SIMD(d, b0, b1, b2, b3, &av)
			} else {
				axpy4Generic(d, b0, b1, b2, b3, av[0], av[1], av[2], av[3])
			}
		}
		for ; p < k; p++ {
			axpy1(d, b[p*n:(p+1)*n], mult(i, p))
		}
	}
}

// unblockedDot is a × bᵀ one row of a at a time against all of b: dot4 over
// groups of four rows of b on the SIMD backend, dot1 for the rest.
func unblockedDot(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		j := 0
		if simdAvailable {
			var o4 [4]float32
			for ; j+4 <= n; j += 4 {
				dot4SIMD(arow, b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k], b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k], &o4)
				copy(dst[i*n+j:], o4[:])
			}
		}
		for ; j < n; j++ {
			dst[i*n+j] = dot1(arow, b[j*k:(j+1)*k])
		}
	}
}

// TestMatMulBlockedMatchesUnblocked pins what the column window (colBlock)
// and the bᵀ loop order (rowBlockBT) promise: every raw entry, overwriting
// and accumulating, equals the unwindowed loop bit for bit — on both
// backends, at every worker count — over one cv_local decoy's tail (Linear
// 32 → 43 000 and its head, each as a × b, aᵀ × b and a × bᵀ), widths one
// short of, one past and two blocks past a block edge with odd m and
// k%4 ≠ 0, resnet18's stage panels (forward, dX, dW) and lm_local's heads.
// Each shape runs through all three families over the same two buffers.
func TestMatMulBlockedMatchesUnblocked(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	edge := colBlock(30, 1<<20)
	if edge == 1<<20 || colBlock(32, 43000) == 43000 || rowBlockBT(43000, 32) != 4 {
		t.Fatalf("fixture: colBlock(30, ·) = %d, colBlock(32, 43000) = %d, rowBlockBT(43000, 32) = %d — the decoy shapes are meant to be walked in blocks",
			edge, colBlock(32, 43000), rowBlockBT(43000, 32))
	}
	shapes := []struct{ m, k, n int }{
		{16, 32, 43000}, {32, 16, 43000}, {16, 43000, 32},
		{16, 43016, 10}, {43016, 16, 10},
		{5, 30, edge - 1}, {5, 30, edge + 1}, {7, 30, 2*edge + 1}, {3, 43001, 31},
		{64, 576, 1024}, {576, 64, 1024}, {64, 1024, 576},
		{128, 1152, 256}, {256, 2304, 192}, {256, 192, 2304},
		{512, 4608, 112}, {4608, 512, 112}, {512, 112, 4608},
		{1008, 128, 2000}, {1008, 56, 2000},
	}
	for _, simd := range []bool{true, false} {
		if simd && !SIMDEnabled() {
			continue
		}
		prev := SetSIMD(simd)
		for _, s := range shapes {
			m, k, n := s.m, s.k, s.n
			if macs := m * k * n; (!simd && macs > 1<<25) || (raceEnabled && macs > 1<<22) {
				// The pure-Go kernels run at a tenth of the speed, and
				// everything slower again under the race detector: keep the
				// panel's (k, n), which is what picks the window, and an
				// odd handful of its rows.
				m = 5
			}
			rng := NewRNG(uint64(k*1000 + n))
			a, b, seed := New(m*k), New(k*n), New(m*n)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			rng.FillNormal(seed, 0, 1)
			axpy := func(acc, transposed bool) func(dst []float32) {
				mult := func(i, p int) float32 { return a.Data[i*k+p] }
				if transposed {
					mult = func(i, p int) float32 { return a.Data[p*m+i] }
				}
				return func(dst []float32) { unblockedAxpy(dst, b.Data, m, k, n, acc, mult) }
			}
			for _, c := range []struct {
				name      string
				entry     func(dst, a, b []float32, m, k, n int)
				unblocked func(dst []float32)
			}{
				{"MatMulRawInto", MatMulRawInto, axpy(false, false)},
				{"MatMulAccRawInto", MatMulAccRawInto, axpy(true, false)},
				{"MatMulATRawInto", MatMulATRawInto, axpy(false, true)},
				{"MatMulATAccRawInto", MatMulATAccRawInto, axpy(true, true)},
				{"MatMulBTRawInto", MatMulBTRawInto, func(dst []float32) { unblockedDot(dst, a.Data, b.Data, m, k, n) }},
			} {
				want := seed.Clone()
				c.unblocked(want.Data)
				for _, workers := range []int{1, 2, 3, 8} {
					SetMaxWorkers(workers)
					got := seed.Clone()
					c.entry(got.Data, a.Data, b.Data, m, k, n)
					if !got.Equal(want) {
						t.Errorf("simd=%v workers=%d: %s %dx%dx%d differs from the unblocked loop", simd, workers, c.name, m, k, n)
					}
				}
			}
		}
		SetSIMD(prev)
	}
}
