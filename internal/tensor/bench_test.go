package tensor

import (
	"fmt"
	"math"
	"testing"
)

// matMulNaiveInto is a frozen copy of the seed's row-parallel i-k-j kernel.
// It stays in the bench suite as the reference point for the blocked
// kernels: BenchmarkMatMul vs BenchmarkMatMulNaive on the same machine is
// the speedup the bench trajectory records.
func matMulNaiveInto(out, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	ad, bd, od := a.Data, b.Data, out.Data
	parallelFor(m, matmulRowsPerWorker(k, n), func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			orow := od[i*n : (i+1)*n]
			for x := range orow {
				orow[x] = 0
			}
			arow := ad[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
}

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

// BenchmarkMatMulNaive is the seed kernel on the same shapes; the ratio to
// BenchmarkMatMul is the recorded speedup.
func BenchmarkMatMulNaive(bb *testing.B) {
	a, b := benchMatrices(256, 256, 256)
	out := New(256, 256)
	bb.SetBytes(int64(3*256*256) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		matMulNaiveInto(out, a, b)
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

// layerNormFwdNaive is a frozen copy of the PR 1 scalar LayerNorm forward
// (per-op float64 passes); the ratio to BenchmarkLayerNormFwd is the
// fused-kernel speedup the PR 2 trajectory records.
func layerNormFwdNaive(dst, xhat []float32, invStd []float64, x, gamma, beta []float32, rows, d int, eps float32) {
	for r := 0; r < rows; r++ {
		src := x[r*d : (r+1)*d]
		var mu float64
		for _, v := range src {
			mu += float64(v)
		}
		mu /= float64(d)
		var vr float64
		for _, v := range src {
			dv := float64(v) - mu
			vr += dv * dv
		}
		vr /= float64(d)
		is := 1 / math.Sqrt(vr+float64(eps))
		invStd[r] = is
		xh := xhat[r*d : (r+1)*d]
		out := dst[r*d : (r+1)*d]
		for i, v := range src {
			h := float32((float64(v) - mu) * is)
			xh[i] = h
			out[i] = gamma[i]*h + beta[i]
		}
	}
}

// softmaxRowsNaive is a frozen copy of the PR 1 row softmax (math.Exp per
// element, float64 sum).
func softmaxRowsNaive(dst, x []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		src := x[r*cols : (r+1)*cols]
		out := dst[r*cols : (r+1)*cols]
		maxv := src[0]
		for _, v := range src[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range src {
			e := math.Exp(float64(v - maxv))
			out[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
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

func BenchmarkLayerNormFwdNaive(bb *testing.B) {
	const rows, d = 256, 256
	x, gamma, beta := benchNormInputs(rows, d)
	dst := make([]float32, rows*d)
	xhat := make([]float32, rows*d)
	invStd := make([]float64, rows)
	bb.SetBytes(int64(rows*d) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		layerNormFwdNaive(dst, xhat, invStd, x.Data, gamma.Data, beta.Data, rows, d, 1e-5)
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

func BenchmarkSoftmaxRowsNaive(bb *testing.B) {
	const rows, cols = 512, 64
	x, _, _ := benchNormInputs(rows, cols)
	dst := make([]float32, rows*cols)
	bb.SetBytes(int64(rows*cols) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		softmaxRowsNaive(dst, x.Data, rows, cols)
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
