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
