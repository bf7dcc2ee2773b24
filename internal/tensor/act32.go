package tensor

import "math"

// Fused float32 activation kernel family (the third kernel round, after
// matmul/conv and normalization/softmax).
//
// The PR 2 profile left GELU/Tanh/Sigmoid as the last per-element float64
// round-trips on the hot path: every element went through math.Tanh or
// math.Exp plus two conversions. The kernels below evaluate the
// activations entirely in float32 — Tanh32 pairs a Cephes-style odd
// minimax polynomial (|x| < 0.625) with the Exp32 identity
// tanh(x) = sign(x)·(1 − 2/(e^{2|x|}+1)) elsewhere, Sigmoid32 and GELU32
// build on the same machinery — with 8-wide AVX2 row kernels on amd64 and
// the scalar sequence as tail/fallback.
//
// Determinism contract: the element-wise drivers split work only at
// actBlock boundaries (a multiple of the SIMD width), so whether an
// element takes the SIMD or the scalar-tail path depends solely on its
// absolute position, never on the worker count — outputs are bit-identical
// for any SetMaxWorkers value on a given machine/binary. As with the rest
// of the SIMD backend, AVX2 results may differ from the pure-Go kernels in
// the last ulp (FMA contraction), which is why the row kernels never split
// a SIMD run anywhere but a fixed block edge.

// Cephes tanhf constants. The polynomial approximates tanh(x)/x − 1 on
// x² ∈ [0, 0.625²]; the exp path takes over at |x| = 0.625 and clamps at
// 10 because every |x| ≥ ~9.01 already rounds to ±1 in float32, keeping
// 2|x| far inside Exp32's range.
const (
	tanh32P0     = -5.70498872745e-3
	tanh32P1     = 2.06390887954e-2
	tanh32P2     = -5.37397155531e-2
	tanh32P3     = 1.33314422036e-1
	tanh32P4     = -3.33332819422e-1
	tanh32Switch = 0.625
	tanh32Clamp  = 10
)

// GELU tanh-approximation constants (Hendrycks & Gimpel):
// gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).
const (
	gelu32C = 0.7978845608028654 // √(2/π)
	gelu32A = 0.044715
)

// Tanh32 is a fast float32 tanh (a few ulp against float64 math.Tanh over
// the whole range). NaN propagates, ±Inf saturate to ±1, and the
// polynomial path's x·(1 + x²·P) form preserves ±0 and denormals exactly.
// Pure float32 ops in a fixed sequence keep it deterministic.
func Tanh32(x float32) float32 {
	if x != x {
		return x
	}
	b := math.Float32bits(x)
	ax := math.Float32frombits(b &^ (1 << 31))
	if ax < tanh32Switch {
		s := x * x
		p := (((tanh32P0*s+tanh32P1)*s+tanh32P2)*s+tanh32P3)*s + tanh32P4
		return x * (1 + s*p)
	}
	if ax > tanh32Clamp {
		ax = tanh32Clamp
	}
	e := exp32Core(2 * ax)
	t := 1 - 2/(e+1) // e ≥ e^1.25, so 2/(e+1) ∈ (0, 0.46]: no cancellation
	return math.Float32frombits(math.Float32bits(t) | b&(1<<31))
}

// Sigmoid32 is a fast float32 logistic function 1/(1+e^{−x}). Exp32's
// saturation makes the tails exact: x ≥ 88.4 gives exactly 1 and
// x ≤ −88.4 flushes to 0 (the true value is below the float32 exp
// underflow threshold). NaN propagates; Sigmoid32(±0) = 0.5 exactly.
func Sigmoid32(x float32) float32 {
	return 1 / (1 + Exp32(-x))
}

// GELU32 is the tanh-form GELU evaluated in float32 on Tanh32. In the
// negative tail the (1 + tanh) factor cancels, so absolute error grows
// like |x|·ulp(1) there — inherent to the tanh form in float32, and pinned
// by the fuzz suite's stated tolerance.
func GELU32(x float32) float32 {
	u := gelu32C * (x + gelu32A*x*x*x)
	return 0.5 * x * (1 + Tanh32(u))
}

// tanhRow computes dst[i] = Tanh32(src[i]) (dst may alias src). On amd64
// with AVX2 the bulk runs 8-wide; the tail (and other platforms) use the
// scalar kernel.
func tanhRow(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
	if simdAvailable && len(src) >= 8 {
		tanhRowSIMD(dst, src)
		i = len(src) &^ 7
	}
	for ; i < len(src); i++ {
		dst[i] = Tanh32(src[i])
	}
}

// sigmoidRow computes dst[i] = Sigmoid32(src[i]) (dst may alias src).
func sigmoidRow(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
	if simdAvailable && len(src) >= 8 {
		sigmoidRowSIMD(dst, src)
		i = len(src) &^ 7
	}
	for ; i < len(src); i++ {
		dst[i] = Sigmoid32(src[i])
	}
}

// actBlock is the fixed element-block granularity of Act.Apply and Act.Grad
// over a whole buffer. Parallel splits happen only at block boundaries, and
// the block size is a multiple of the 8-wide SIMD width, so each element's
// SIMD-vs-scalar-tail fate depends only on its absolute position — that is
// what keeps the kernels bit-identical across worker counts.
const actBlock = 8192

// actChunks reports how many chunks the block-parallel driver would use
// for n elements. Kernels use == 1 as the serial fast-path test so they
// can call their range function directly, skipping the escaping closure —
// the difference between 0 and 1 allocs/op on the steady-state hot path.
func actChunks(n int) int {
	return chunksFor((n+actBlock-1)/actBlock, 1)
}

// actParallel runs fn over [0, n) split only at actBlock boundaries (a
// single run and a block-split run agree bit-for-bit because the splits
// are SIMD-width-aligned). Callers handle the serial case themselves.
func actParallel(n int, fn func(i0, i1 int)) {
	parallelFor((n+actBlock-1)/actBlock, 1, func(b0, b1 int) {
		hi := b1 * actBlock
		if hi > n {
			hi = n
		}
		fn(b0*actBlock, hi)
	})
}

// Act is the one description of an activation, from these kernels up to the
// nn layers: an op that ends in one takes it as a parameter. It has exactly
// two operations, both in place — Apply over the op's own output, and Grad,
// which turns the gradient of that output into the gradient of the
// pre-activation. For every value but ActGELU the derivative is a function
// of the output alone, so a node that ends in one keeps neither the
// pre-activation nor a mask for its backward.
//
// The clamps share one rule on non-finite and signed-zero input: NaN
// propagates (IEEE/PyTorch relu(NaN) = NaN), −0 is kept, and the gradient
// mask is y > 0 (0 < y < 6), so a NaN output passes a zero gradient. They
// select between bit patterns (`if v < 0 { b = 0 }`, one store per element),
// which compiles to a conditional move: no branch to mispredict on sign.
type Act uint8

const (
	ActNone    Act = iota // identity
	ActReLU               // max(0, v)
	ActReLU6              // min(max(0, v), 6), MobileNet's activation
	ActTanh               // Tanh32
	ActSigmoid            // Sigmoid32
	ActGELU               // tanh-form GELU32; the one value that needs an ActScratch
)

// ActScratch is what Apply retains for Grad when the derivative is not a
// function of the output alone: GELU's pre-activation and inner tanh, each
// as long as the whole activated buffer, so the backward re-evaluates no
// transcendental. Every other activation takes the zero value.
type ActScratch struct{ Pre, T []float32 }

// NeedsScratch reports whether a's Apply must be handed an ActScratch for
// its Grad to read back.
func (a Act) NeedsScratch() bool { return a == ActGELU }

// streams reports whether a is at most a compare per element — memory-bound,
// so a whole-buffer pass is not worth a fork. The transcendentals split at
// actBlock edges.
func (a Act) streams() bool { return a <= ActReLU6 }

// Apply overwrites buf with a(buf), filling keep when a needs it.
func (a Act) Apply(buf []float32, keep ActScratch) {
	if a.streams() || actChunks(len(buf)) <= 1 {
		a.apply(buf, keep, 0, len(buf))
		return
	}
	actParallel(len(buf), func(i0, i1 int) { a.apply(buf, keep, i0, i1) })
}

// apply is Apply over buf[i0:i1] — one row or slab of a fused kernel's
// output while it is still in L1, or one block of a whole-buffer pass. On
// amd64 with AVX2 the bulk of a transcendental run goes 8-wide from i0, so
// callers split only where the 8-lane groups stay put.
func (a Act) apply(buf []float32, keep ActScratch, i0, i1 int) {
	row := buf[i0:i1]
	switch a {
	case ActReLU:
		for i, v := range row {
			b := math.Float32bits(v)
			if v < 0 {
				b = 0
			}
			row[i] = math.Float32frombits(b)
		}
	case ActReLU6:
		for i, v := range row {
			b := math.Float32bits(v)
			if v < 0 {
				b = 0
			}
			if v > 6 {
				b = 0x40c00000 // 6
			}
			row[i] = math.Float32frombits(b)
		}
	case ActTanh:
		tanhRow(row, row)
	case ActSigmoid:
		sigmoidRow(row, row)
	case ActGELU:
		// 0.5·x·(1 + tanh(u)), u = √(2/π)·(x + 0.044715·x³): cheap scalar
		// sweeps around the SIMD tanh row kernel, evaluated in place over t.
		pre, t := keep.Pre[i0:i1], keep.T[i0:i1]
		copy(pre, row)
		for i, v := range pre {
			t[i] = gelu32C * (v + gelu32A*v*v*v)
		}
		tanhRow(t, t)
		for i, v := range pre {
			row[i] = 0.5 * v * (1 + t[i])
		}
	}
}

// Grad turns dy, the gradient of the activated output y, into the gradient
// of the pre-activation in place: zeroed wherever y sits on a flat part of a
// clamp (y > 0 iff the pre-activation was positive, y < 6 iff it was below
// 6), scaled by the derivative — 1−y², y·(1−y), or gelu' from keep —
// elsewhere.
func (a Act) Grad(dy, y []float32, keep ActScratch) {
	y = y[:len(dy)]
	if a.streams() || actChunks(len(dy)) <= 1 {
		a.grad(dy, y, keep, 0, len(dy))
		return
	}
	actParallel(len(dy), func(i0, i1 int) { a.grad(dy, y, keep, i0, i1) })
}

func (a Act) grad(dy, y []float32, keep ActScratch, i0, i1 int) {
	dy, y = dy[i0:i1], y[i0:i1]
	switch a {
	case ActReLU:
		for i, v := range y {
			b := math.Float32bits(dy[i])
			if !(v > 0) {
				b = 0
			}
			dy[i] = math.Float32frombits(b)
		}
	case ActReLU6:
		for i, v := range y {
			b := math.Float32bits(dy[i])
			if !(v > 0) {
				b = 0
			}
			if !(v < 6) {
				b = 0
			}
			dy[i] = math.Float32frombits(b)
		}
	case ActTanh:
		for i, t := range y {
			dy[i] = dy[i] * (1 - t*t)
		}
	case ActSigmoid:
		for i, s := range y {
			dy[i] = dy[i] * s * (1 - s)
		}
	case ActGELU:
		// gelu'(x) = 0.5·(1+t) + 0.5·x·(1−t²)·√(2/π)·(1 + 3·0.044715·x²)
		pre, t := keep.Pre[i0:i1], keep.T[i0:i1]
		for i, x := range pre {
			dy[i] = dy[i] * (0.5*(1+t[i]) + 0.5*x*(1-t[i]*t[i])*gelu32C*(1+3*gelu32A*x*x))
		}
	}
}

// AddRowBiasInto computes dst = act(x + bias) for x [rows, d] with bias [d]
// (dst may alias x): the bias is added, then act runs over the row while it
// is in L1 — the epilogue of a Linear. Rows are assigned to workers whole,
// so a row's SIMD/tail split never depends on the worker count. keep is
// act's scratch over the whole of dst.
func AddRowBiasInto(dst, x, bias []float32, rows, d int, act Act, keep ActScratch) {
	rpw := fusedRowsPerWorker(d)
	if chunksFor(rows, rpw) <= 1 {
		addRowBiasRange(dst, x, bias, d, act, keep, 0, rows)
		return
	}
	parallelFor(rows, rpw, func(r0, r1 int) {
		addRowBiasRange(dst, x, bias, d, act, keep, r0, r1)
	})
}

func addRowBiasRange(dst, x, bias []float32, d int, act Act, keep ActScratch, r0, r1 int) {
	bias = bias[:d]
	for r := r0; r < r1; r++ {
		src := x[r*d : (r+1)*d][:d]
		out := dst[r*d : (r+1)*d][:d]
		for j := 0; j < d; j++ {
			out[j] = src[j] + bias[j]
		}
		act.apply(dst, keep, r*d, (r+1)*d)
	}
}

// AddChanBiasInto computes dst = act(x + bias[ch]) for x [n, c, hw] with
// bias [c] (dst may alias x), act over each [hw] slab right after its bias —
// the epilogue of a biased Conv2d. Images are assigned to workers whole.
// keep is act's scratch over the whole of dst.
func AddChanBiasInto(dst, x, bias []float32, n, c, hw int, act Act, keep ActScratch) {
	rpw := fusedRowsPerWorker(c * hw)
	if chunksFor(n, rpw) <= 1 {
		addChanBiasRange(dst, x, bias, c, hw, act, keep, 0, n)
		return
	}
	parallelFor(n, rpw, func(n0, n1 int) {
		addChanBiasRange(dst, x, bias, c, hw, act, keep, n0, n1)
	})
}

func addChanBiasRange(dst, x, bias []float32, c, hw int, act Act, keep ActScratch, n0, n1 int) {
	for b := n0; b < n1; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			bv := bias[ch]
			src := x[base : base+hw]
			out := dst[base : base+hw][:len(src)]
			for i, v := range src {
				out[i] = v + bv
			}
			act.apply(dst, keep, base, base+hw)
		}
	}
}
