package tensor

import (
	"fmt"
	"testing"
)

func benchMatrices(m, k, n int) (a, b *Tensor) {
	rng := NewRNG(42)
	a, b = New(m, k), New(k, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	return a, b
}

// BenchmarkMatMul exercises the library kernel at the sizes the acceptance
// criteria track (256×256×256) plus the shapes that dominate training:
// skinny linear-layer products and small attention blocks.
func BenchmarkMatMul(bb *testing.B) {
	sizes := []struct{ m, k, n int }{
		{256, 256, 256},
		{64, 512, 512},
		{128, 27, 1024}, // conv-as-matmul: [OC, C*KH*KW] × [kdim, OutH*OutW]
		{32, 64, 64},    // attention-sized block
	}
	for _, s := range sizes {
		bb.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(bb *testing.B) {
			a, b := benchMatrices(s.m, s.k, s.n)
			out := New(s.m, s.n)
			bb.SetBytes(int64(s.m*s.k+s.k*s.n+s.m*s.n) * 4)
			bb.ReportAllocs()
			bb.ResetTimer()
			for i := 0; i < bb.N; i++ {
				MatMulInto(out, a, b)
			}
		})
	}
}

func BenchmarkMatMulBT(bb *testing.B) {
	a, _ := benchMatrices(256, 256, 256)
	c, _ := benchMatrices(256, 256, 256)
	out := New(256, 256)
	bb.SetBytes(int64(3*256*256) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		MatMulBTInto(out, a, c)
	}
}

func BenchmarkMatMulAT(bb *testing.B) {
	a, _ := benchMatrices(256, 256, 256)
	c, _ := benchMatrices(256, 256, 256)
	out := New(256, 256)
	bb.SetBytes(int64(3*256*256) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		MatMulATInto(out, a, c)
	}
}

// BenchmarkMatMulAcc measures the accumulating entries at the weight-gradient
// shapes they serve: conv dW += dY[OC, positions] × rows[positions, C·KH·KW]
// for one block of resnet18's stage 1 (one image) and stage 4 (seven), and a
// dense layer's dW += Xᵀ[In, N] × dY[N, Out] at lm_local's loss head.
func BenchmarkMatMulAcc(bb *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
		at      bool
	}{
		{"conv-dW-stage1", 64, 1024, 576, false},
		{"conv-dW-stage4", 512, 112, 4608, false},
		{"linear-dW-lm-head", 128, 1008, 2000, true},
	} {
		bb.Run(fmt.Sprintf("%s-%dx%dx%d", s.name, s.m, s.k, s.n), func(bb *testing.B) {
			a, b := benchMatrices(s.m, s.k, s.n) // read as [k, m] by the aᵀ entry
			out := New(s.m, s.n)
			bb.SetBytes(int64(s.m*s.k+s.k*s.n+2*s.m*s.n) * 4)
			bb.ReportAllocs()
			bb.ResetTimer()
			for i := 0; i < bb.N; i++ {
				if s.at {
					MatMulATAccRawInto(out.Data, a.Data, b.Data, s.m, s.k, s.n)
				} else {
					MatMulAccRawInto(out.Data, a.Data, b.Data, s.m, s.k, s.n)
				}
			}
		})
	}
}

// BenchmarkMatMulSkinny measures the shapes of one cv_local decoy tail at
// batch 16 — Linear 32 → 43 000 (forward, dW = Xᵀ·dY, dX = dY·Wᵀ) and the
// head 43 016 → 10 — where one operand is a few rows and the other megabytes:
// the cost is how many times the wide one is read, not the arithmetic.
func BenchmarkMatMulSkinny(bb *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
		entry   func(dst, a, b []float32, m, k, n int)
	}{
		{"mid-fwd", 16, 32, 43000, MatMulRawInto},
		{"mid-dW-AT", 32, 16, 43000, MatMulATRawInto},
		{"mid-dX-BT", 16, 43000, 32, MatMulBTRawInto},
		{"head-fwd", 16, 43016, 10, MatMulRawInto},
		{"head-dW-AT", 43016, 16, 10, MatMulATRawInto},
		{"head-dX-BT", 16, 10, 43016, MatMulBTRawInto},
	} {
		bb.Run(fmt.Sprintf("%s-%dx%dx%d", s.name, s.m, s.k, s.n), func(bb *testing.B) {
			a, b := benchMatrices(s.m, s.k, s.n) // same element counts whichever side an entry reads transposed
			out := New(s.m, s.n)
			bb.SetBytes(int64(s.m*s.k+s.k*s.n+s.m*s.n) * 4)
			bb.ReportAllocs()
			bb.ResetTimer()
			for i := 0; i < bb.N; i++ {
				s.entry(out.Data, a.Data, b.Data, s.m, s.k, s.n)
			}
		})
	}
}

// BenchmarkActReLU runs the clamp and its gradient mask over one decoy's
// 16 × 43 000 mid activations with sign-random values, the input a branch
// per element predicts worst.
func BenchmarkActReLU(bb *testing.B) {
	const n = 16 * 43000
	src, y, dy := New(n), New(n), New(n)
	rng := NewRNG(5)
	rng.FillNormal(src, 0, 1)
	rng.FillNormal(dy, 0, 1)
	copy(y.Data, src.Data)
	ActReLU.Apply(y.Data, ActScratch{})
	buf := New(n)
	for _, act := range []Act{ActReLU, ActReLU6} {
		name := map[Act]string{ActReLU: "ReLU", ActReLU6: "ReLU6"}[act]
		bb.Run(name+"/apply", func(bb *testing.B) {
			bb.SetBytes(n * 4)
			for i := 0; i < bb.N; i++ {
				copy(buf.Data, src.Data)
				act.Apply(buf.Data, ActScratch{})
			}
		})
		bb.Run(name+"/grad", func(bb *testing.B) {
			bb.SetBytes(n * 4)
			for i := 0; i < bb.N; i++ {
				copy(buf.Data, dy.Data)
				act.Grad(buf.Data, y.Data, ActScratch{})
			}
		})
	}
	bb.Run("copy-only", func(bb *testing.B) { // the benchmark's own reset, to subtract
		bb.SetBytes(n * 4)
		for i := 0; i < bb.N; i++ {
			copy(buf.Data, src.Data)
		}
	})
}

func benchNormInputs(rows, d int) (x, gamma, beta *Tensor) {
	rng := NewRNG(77)
	x, gamma, beta = New(rows, d), New(d), New(d)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(gamma, 1, 0.2)
	rng.FillNormal(beta, 0, 0.2)
	return x, gamma, beta
}

func BenchmarkLayerNormFwd(bb *testing.B) {
	const rows, d = 256, 256
	x, gamma, beta := benchNormInputs(rows, d)
	dst := make([]float32, rows*d)
	mean := make([]float32, rows)
	invStd := make([]float32, rows)
	bb.SetBytes(int64(rows*d) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		LayerNormFwdInto(dst, mean, invStd, x.Data, gamma.Data, beta.Data, rows, d, 1e-5)
	}
}

func BenchmarkSoftmaxRows(bb *testing.B) {
	const rows, cols = 512, 64
	x, _, _ := benchNormInputs(rows, cols)
	dst := make([]float32, rows*cols)
	bb.SetBytes(int64(rows*cols) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		SoftmaxRowsInto(dst, x.Data, rows, cols)
	}
}

// BenchmarkPoolGetPut measures the steady-state cost of the scratch pool
// against a raw allocation of the same footprint.
func BenchmarkPoolGetPut(bb *testing.B) {
	bb.ReportAllocs()
	for i := 0; i < bb.N; i++ {
		t := Get(64, 1024)
		Put(t)
	}
}

func BenchmarkRawAlloc(bb *testing.B) {
	bb.ReportAllocs()
	for i := 0; i < bb.N; i++ {
		t := New(64, 1024)
		_ = t
	}
}

// BenchmarkMatMulScaling times MatMulInto at one and at two kernel-pool
// workers over shapes whose B panel — the k×n block every pair of output
// rows streams — grows from 192 KB to 1 MB, next to a control that splits
// a dependent scalar loop (no memory traffic) the same way. Divide a
// shape's workers=1 time by its workers=2 time for its speedup; the two
// run back to back, so a drift in machine load biases neither. The
// control says what two workers can give at all on the machine; the
// shapes say how much of it a GEMM keeps as its panel outgrows the cache.
func BenchmarkMatMulScaling(bb *testing.B) {
	shapes := []struct{ m, k, n int }{
		{1008, 128, 384},  // 192 KB panel
		{1008, 128, 512},  // 256 KB
		{1008, 57, 2000},  // 445 KB: the LM head's k
		{1008, 128, 2000}, // 1 MB
		{512, 512, 512},   // 1 MB, square
	}
	for _, workers := range []int{1, 2} {
		bb.Run(fmt.Sprintf("scalar/workers=%d", workers), func(bb *testing.B) {
			defer SetMaxWorkers(SetMaxWorkers(workers))
			const chunks, steps = 2, 1 << 20
			sums := make([]float32, chunks)
			for i := 0; i < bb.N; i++ {
				parallelFor(chunks, 1, func(start, end int) {
					for c := start; c < end; c++ {
						x := float32(c + 1)
						for j := 0; j < steps; j++ {
							x = x*0.999 + 1e-3
						}
						sums[c] = x
					}
				})
			}
		})
	}
	for _, s := range shapes {
		a, b := benchMatrices(s.m, s.k, s.n)
		out := New(s.m, s.n)
		for _, workers := range []int{1, 2} {
			bb.Run(fmt.Sprintf("%dx%dx%d/workers=%d", s.m, s.k, s.n, workers), func(bb *testing.B) {
				defer SetMaxWorkers(SetMaxWorkers(workers))
				for i := 0; i < bb.N; i++ {
					MatMulInto(out, a, b)
				}
			})
		}
	}
}
