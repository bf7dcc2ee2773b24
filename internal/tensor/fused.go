package tensor

import "math"

// Fused normalization / softmax kernel family (the second kernel round
// after matmul/conv).
//
// The PR 1 profile showed BatchNorm, LayerNorm, and the softmaxes doing
// three to four scalar passes per op, each converting every element through
// float64. The kernels below do the arithmetic in float32 with float64
// multi-lane accumulation for the reductions (four independent accumulator
// lanes, combined in a fixed order), fuse normalize+affine into a single
// pass, and write into caller-provided storage so steady-state training
// allocates nothing.
//
// Each kernel dispatches through a named range function: when the work
// would run on a single worker anyway, the range function is called
// directly, skipping the escaping closure a parallelFor call would
// construct — that closure is the difference between 0 and 1 allocs/op.
//
// Determinism contract: every reduction has a fixed per-element order —
// lanes are combined in one hard-coded sequence, parallel loops only ever
// partition disjoint rows/channels, and cross-row reductions (parameter
// gradients) stay sequential in ascending row order — so results are
// bit-identical for any SetMaxWorkers value on a given machine/binary.

// fusedRowsPerWorker picks a minimum per-goroutine row count so small
// normalization/softmax calls stay single-threaded.
func fusedRowsPerWorker(d int) int {
	if d <= 0 {
		return 1
	}
	const targetElemsPerWorker = 1 << 14
	r := targetElemsPerWorker / d
	if r < 1 {
		r = 1
	}
	return r
}

// Exp32 constants: e^x = 2^n · e^r with n = round(x·log2e) and r the
// two-part-ln2 remainder, followed by a degree-5 polynomial on
// [-ln2/2, ln2/2] (Cephes expf coefficients). The rounding uses the
// 1.5·2^23 magic-number trick — adding it forces float32 round-to-nearest
// onto integer granularity — so the hot loops stay branch- and call-free.
const (
	exp32Log2e = 1.4426950408889634
	exp32C1    = 0.693359375    // ln 2, high part
	exp32C2    = -2.12194440e-4 // ln 2, low part
	exp32Magic = 12582912.0     // 1.5 · 2^23
	exp32Lo    = -87.33655      // below this e^x underflows float32
	exp32Hi    = 88.37          // above this 2^n exceeds the exponent range
)

// exp32Core is the unguarded polynomial; it is small enough to inline into
// the softmax hot loops (a non-inlined call per element would cost more
// than the math). Callers must handle |x| beyond the float32 exponent
// range themselves.
func exp32Core(x float32) float32 {
	rz := (x*exp32Log2e + exp32Magic) - exp32Magic // round-to-nearest
	r := (x - rz*exp32C1) - rz*exp32C2
	p := ((((float32(1.9875691500e-4)*r+1.3981999507e-3)*r+8.3334519073e-3)*r+4.1665795894e-2)*r + 1.6666665459e-1) * r
	return ((r*r)*(p+5.0000001201e-1) + r + 1) * math.Float32frombits(uint32(int32(rz)+127)<<23)
}

// exp32Guarded is exp32Core with the underflow flush the softmax kernels
// need (their arguments are ≤ 0 by construction, so no overflow guard).
func exp32Guarded(x float32) float32 {
	e := exp32Core(x)
	if x < exp32Lo {
		return 0
	}
	return e
}

// Exp32 is a fast float32 e^x (~1 ulp over the float32 range). Pure
// float32 ops in a fixed sequence keep it deterministic.
func Exp32(x float32) float32 {
	if x > exp32Hi {
		return float32(math.Inf(1))
	}
	if x < exp32Lo {
		return 0
	}
	return exp32Core(x)
}

// expRowSum writes dst[j] = e^(src[j]−maxv) and returns Σ dst accumulated
// in float64 lanes with a fixed combine order. On amd64 with AVX2 the bulk
// of the row runs 8-wide in assembly; the tail (and other platforms) use
// the scalar sequence. As with the matmul kernels, SIMD FMA rounds
// differently in the last ulp, so results are consistent per
// machine/binary, not across backends.
func expRowSum(dst, src []float32, maxv float32) float64 {
	dst = dst[:len(src)]
	var sum float64
	p := 0
	if simdAvailable && len(src) >= 8 {
		sum = expRowSumSIMD(dst, src, maxv)
		p = len(src) &^ 7
		for ; p < len(src); p++ {
			e := exp32Guarded(src[p] - maxv)
			dst[p] = e
			sum += float64(e)
		}
		return sum
	}
	var s0, s1, s2, s3 float64
	for ; p+4 <= len(src); p += 4 {
		e0 := exp32Guarded(src[p] - maxv)
		e1 := exp32Guarded(src[p+1] - maxv)
		e2 := exp32Guarded(src[p+2] - maxv)
		e3 := exp32Guarded(src[p+3] - maxv)
		dst[p], dst[p+1], dst[p+2], dst[p+3] = e0, e1, e2, e3
		s0 += float64(e0)
		s1 += float64(e1)
		s2 += float64(e2)
		s3 += float64(e3)
	}
	sum = (s0 + s1) + (s2 + s3)
	for ; p < len(src); p++ {
		e := exp32Guarded(src[p] - maxv)
		dst[p] = e
		sum += float64(e)
	}
	return sum
}

// sumSq4 returns Σ(x−k) and Σ(x−k)² accumulated in four float64 lanes with
// a fixed combine order. One traversal serves both moments of a stats
// pass. The pivot k is the shifted-data variance trick: with k chosen near
// the data (callers pass the first element), the raw-moment identity
// var = Σd²/m − (Σd/m)² loses precision in the *shift*, not the spread, so
// a large common offset no longer cancels catastrophically the way the
// unshifted E[x²]−E[x]² formula does.
func sumSq4(x []float32, k float64) (s, sq float64) {
	var s0, s1, s2, s3, q0, q1, q2, q3 float64
	p := 0
	for ; p+4 <= len(x); p += 4 {
		v0 := float64(x[p]) - k
		v1 := float64(x[p+1]) - k
		v2 := float64(x[p+2]) - k
		v3 := float64(x[p+3]) - k
		s0 += v0
		s1 += v1
		s2 += v2
		s3 += v3
		q0 += v0 * v0
		q1 += v1 * v1
		q2 += v2 * v2
		q3 += v3 * v3
	}
	var st, qt float64
	for ; p < len(x); p++ {
		v := float64(x[p]) - k
		st += v
		qt += v * v
	}
	return ((s0 + s1) + (s2 + s3)) + st, ((q0 + q1) + (q2 + q3)) + qt
}

// sumDot4 returns Σa and Σa·b accumulated in four float64 lanes with a
// fixed combine order (the dy / dy·xhat reduction of the backward passes).
func sumDot4(a, b []float32) (s, t float64) {
	b = b[:len(a)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	p := 0
	for ; p+4 <= len(a); p += 4 {
		v0, v1, v2, v3 := float64(a[p]), float64(a[p+1]), float64(a[p+2]), float64(a[p+3])
		s0 += v0
		s1 += v1
		s2 += v2
		s3 += v3
		t0 += v0 * float64(b[p])
		t1 += v1 * float64(b[p+1])
		t2 += v2 * float64(b[p+2])
		t3 += v3 * float64(b[p+3])
	}
	var st, tt float64
	for ; p < len(a); p++ {
		v := float64(a[p])
		st += v
		tt += v * float64(b[p])
	}
	return ((s0 + s1) + (s2 + s3)) + st, ((t0 + t1) + (t2 + t3)) + tt
}

// sumDotNorm4 is sumDot4(a, x̂) with x̂ = float32((x−mu)·is) recomputed per
// element instead of read from a retained buffer: the same float32
// expression the normalisation forwards evaluate, the conversion making its
// rounding explicit so an architecture that fuses multiply-adds cannot
// change it.
func sumDotNorm4(a, x []float32, mu, is float32) (s, t float64) {
	x = x[:len(a)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	p := 0
	for ; p+4 <= len(a); p += 4 {
		v0, v1, v2, v3 := float64(a[p]), float64(a[p+1]), float64(a[p+2]), float64(a[p+3])
		s0 += v0
		s1 += v1
		s2 += v2
		s3 += v3
		t0 += v0 * float64(float32((x[p]-mu)*is))
		t1 += v1 * float64(float32((x[p+1]-mu)*is))
		t2 += v2 * float64(float32((x[p+2]-mu)*is))
		t3 += v3 * float64(float32((x[p+3]-mu)*is))
	}
	var st, tt float64
	for ; p < len(a); p++ {
		v := float64(a[p])
		st += v
		tt += v * float64(float32((x[p]-mu)*is))
	}
	return ((s0 + s1) + (s2 + s3)) + st, ((t0 + t1) + (t2 + t3)) + tt
}

// LayerNormFwdInto computes, for each of rows rows of length d in x,
//
//	xhat = (x - mean) · invStd    dst = gamma ⊙ xhat + beta
//
// in one stats pass and one fused normalize+affine pass. mean and invStd
// (length rows) are the retained outputs; xhat is not stored — the backward
// recomputes it from x, which the graph keeps alive anyway. Rows are
// processed in parallel; each row's accumulation order is fixed.
func LayerNormFwdInto(dst, mean, invStd, x, gamma, beta []float32, rows, d int, eps float32) {
	rpw := fusedRowsPerWorker(d)
	if chunksFor(rows, rpw) <= 1 {
		layerNormFwdRange(dst, mean, invStd, x, gamma, beta, d, eps, 0, rows)
		return
	}
	parallelFor(rows, rpw, func(r0, r1 int) {
		layerNormFwdRange(dst, mean, invStd, x, gamma, beta, d, eps, r0, r1)
	})
}

func layerNormFwdRange(dst, mean, invStd, x, gamma, beta []float32, d int, eps float32, r0, r1 int) {
	gamma = gamma[:d]
	beta = beta[:d]
	for r := r0; r < r1; r++ {
		src := x[r*d : (r+1)*d]
		k := float64(src[0]) // shift pivot; see sumSq4
		s, sq := sumSq4(src, k)
		sm := s / float64(d)
		mu := k + sm
		vr := sq/float64(d) - sm*sm
		if vr < 0 {
			vr = 0
		}
		is := 1 / math.Sqrt(vr+float64(eps))
		m32, i32 := float32(mu), float32(is)
		mean[r], invStd[r] = m32, i32
		src = src[:d]
		out := dst[r*d : (r+1)*d][:d]
		i := 0
		if simdAvailable && d >= 8 {
			normAffineSIMD(out, src, gamma, beta, m32, i32)
			i = d &^ 7
		}
		for ; i < d; i++ {
			out[i] = gamma[i]*float32((src[i]-m32)*i32) + beta[i]
		}
	}
}

// LayerNormBwdInto accumulates the LayerNorm gradients:
//
//	dgamma += Σ_rows dy ⊙ xhat    dbeta += Σ_rows dy
//	dx     += invStd · (dy⊙gamma - mean(dy⊙gamma) - xhat·mean(dy⊙gamma⊙xhat))
//
// with xhat = float32((x − mean)·invStd) recomputed from the forward's
// input and retained per-row statistics — bit for bit the value the forward
// normalised with. Any of dx, dgamma, dbeta may be nil to skip that
// gradient. The parameter gradients reduce across rows and therefore run
// sequentially in ascending row order; the dx pass touches disjoint rows and
// runs in parallel. No scratch is allocated: the dy⊙gamma intermediate is
// recomputed in the second pass instead of being staged in a per-row buffer.
func LayerNormBwdInto(dx, dgamma, dbeta, dy, x, mean, invStd, gamma []float32, rows, d int) {
	if dgamma != nil || dbeta != nil {
		for r := 0; r < rows; r++ {
			dyr := dy[r*d : (r+1)*d]
			if dgamma != nil {
				xr := x[r*d : (r+1)*d][:len(dyr)]
				dg := dgamma[:len(dyr)]
				mu, is := mean[r], invStd[r]
				for j, g := range dyr {
					dg[j] += g * float32((xr[j]-mu)*is)
				}
			}
			if dbeta != nil {
				db := dbeta[:len(dyr)]
				for j, g := range dyr {
					db[j] += g
				}
			}
		}
	}
	if dx == nil {
		return
	}
	rpw := fusedRowsPerWorker(d)
	if chunksFor(rows, rpw) <= 1 {
		layerNormBwdRange(dx, dy, x, mean, invStd, gamma, d, 0, rows)
		return
	}
	parallelFor(rows, rpw, func(r0, r1 int) {
		layerNormBwdRange(dx, dy, x, mean, invStd, gamma, d, r0, r1)
	})
}

func layerNormBwdRange(dx, dy, x, mean, invStd, gamma []float32, d int, r0, r1 int) {
	gamma = gamma[:d]
	for r := r0; r < r1; r++ {
		dyr := dy[r*d : (r+1)*d][:d]
		xr := x[r*d : (r+1)*d][:d]
		mu, is := mean[r], invStd[r]
		var s0, s1, s2, s3, t0, t1, t2, t3 float64
		p := 0
		for ; p+4 <= d; p += 4 {
			g0 := float64(dyr[p]) * float64(gamma[p])
			g1 := float64(dyr[p+1]) * float64(gamma[p+1])
			g2 := float64(dyr[p+2]) * float64(gamma[p+2])
			g3 := float64(dyr[p+3]) * float64(gamma[p+3])
			s0 += g0
			s1 += g1
			s2 += g2
			s3 += g3
			t0 += g0 * float64(float32((xr[p]-mu)*is))
			t1 += g1 * float64(float32((xr[p+1]-mu)*is))
			t2 += g2 * float64(float32((xr[p+2]-mu)*is))
			t3 += g3 * float64(float32((xr[p+3]-mu)*is))
		}
		s := (s0 + s1) + (s2 + s3)
		t := (t0 + t1) + (t2 + t3)
		for ; p < d; p++ {
			g := float64(dyr[p]) * float64(gamma[p])
			s += g
			t += g * float64(float32((xr[p]-mu)*is))
		}
		mDy := float32(s / float64(d))
		mDyX := float32(t / float64(d))
		out := dx[r*d : (r+1)*d][:d]
		j := 0
		if simdAvailable && d >= 8 {
			lnBwdDxSIMD(out, dyr, gamma, xr, mDy, mDyX, is, mu)
			j = d &^ 7
		}
		for ; j < d; j++ {
			out[j] += is * (dyr[j]*gamma[j] - mDy - float32((xr[j]-mu)*is)*mDyX)
		}
	}
}

// SoftmaxRowsInto writes the row-wise softmax of x [rows, cols] into dst
// (dst may alias x). Max-subtraction keeps it stable; Exp32 does the
// heavy lifting. Rows run in parallel.
func SoftmaxRowsInto(dst, x []float32, rows, cols int) {
	rpw := fusedRowsPerWorker(cols)
	if chunksFor(rows, rpw) <= 1 {
		softmaxRowRange(dst, x, cols, 0, rows)
		return
	}
	parallelFor(rows, rpw, func(r0, r1 int) {
		softmaxRowRange(dst, x, cols, r0, r1)
	})
}

func softmaxRowRange(dst, x []float32, cols, r0, r1 int) {
	for r := r0; r < r1; r++ {
		softmaxRow(dst[r*cols:(r+1)*cols], x[r*cols:(r+1)*cols])
	}
}

// softmaxRow computes dst = softmax(src) for one row (dst may alias src).
func softmaxRow(dst, src []float32) {
	dst = dst[:len(src)]
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := expRowSum(dst, src, maxv)
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxRowsBwdInto accumulates the row-softmax gradient
// dx += y ⊙ (dy - Σ y⊙dy) given the forward output y. Rows run in
// parallel; the per-row dot uses fixed-order float64 lanes.
func SoftmaxRowsBwdInto(dx, y, dy []float32, rows, cols int) {
	rpw := fusedRowsPerWorker(cols)
	if chunksFor(rows, rpw) <= 1 {
		softmaxBwdRange(dx, y, dy, cols, 0, rows)
		return
	}
	parallelFor(rows, rpw, func(r0, r1 int) {
		softmaxBwdRange(dx, y, dy, cols, r0, r1)
	})
}

func softmaxBwdRange(dx, y, dy []float32, cols, r0, r1 int) {
	for r := r0; r < r1; r++ {
		yr := y[r*cols : (r+1)*cols][:cols]
		dyr := dy[r*cols : (r+1)*cols][:cols]
		_, dot := sumDot4(yr, dyr)
		d32 := float32(dot)
		out := dx[r*cols : (r+1)*cols][:cols]
		for j := 0; j < cols; j++ {
			out[j] += yr[j] * (dyr[j] - d32)
		}
	}
}

// SoftmaxXentFwdInto writes row-softmax probabilities of logits [rows,
// cols] into probs and returns Σ_rows -log(probs[r, labels[r]]) (the
// un-averaged cross-entropy). The probability pass runs rows in parallel;
// the loss reduction is a separate sequential pass so its accumulation
// order never depends on the worker count. Labels must be in [0, cols).
func SoftmaxXentFwdInto(probs, logits []float32, labels []int, rows, cols int) float64 {
	SoftmaxRowsInto(probs, logits, rows, cols)
	var loss float64
	for r := 0; r < rows; r++ {
		p := float64(probs[r*cols+labels[r]])
		if p < 1e-30 {
			p = 1e-30
		}
		loss -= math.Log(p)
	}
	return loss
}

// SoftmaxXentBwdInto accumulates the fused softmax-cross-entropy gradient
// dlogits += scale · (probs - onehot(labels)). Rows run in parallel.
func SoftmaxXentBwdInto(dlogits, probs []float32, labels []int, rows, cols int, scale float32) {
	rpw := fusedRowsPerWorker(cols)
	if chunksFor(rows, rpw) <= 1 {
		softmaxXentBwdRange(dlogits, probs, labels, cols, scale, 0, rows)
		return
	}
	parallelFor(rows, rpw, func(r0, r1 int) {
		softmaxXentBwdRange(dlogits, probs, labels, cols, scale, r0, r1)
	})
}

func softmaxXentBwdRange(dlogits, probs []float32, labels []int, cols int, scale float32, r0, r1 int) {
	for r := r0; r < r1; r++ {
		prow := probs[r*cols : (r+1)*cols]
		grow := dlogits[r*cols : (r+1)*cols][:len(prow)]
		for j, p := range prow {
			grow[j] += scale * p
		}
		grow[labels[r]] -= scale
	}
}

// SoftmaxXentBwdInPlace overwrites probs [rows, cols] with the fused
// softmax-cross-entropy gradient scale · (probs − onehot(labels)) — what
// SoftmaxXentBwdInto accumulates into a zeroed dlogits, element for element
// (scale·p, then −scale at the label), without the second buffer. Rows run
// in parallel.
func SoftmaxXentBwdInPlace(probs []float32, labels []int, rows, cols int, scale float32) {
	rpw := fusedRowsPerWorker(cols)
	if chunksFor(rows, rpw) <= 1 {
		softmaxXentBwdInPlaceRange(probs, labels, cols, scale, 0, rows)
		return
	}
	parallelFor(rows, rpw, func(r0, r1 int) {
		softmaxXentBwdInPlaceRange(probs, labels, cols, scale, r0, r1)
	})
}

func softmaxXentBwdInPlaceRange(probs []float32, labels []int, cols int, scale float32, r0, r1 int) {
	for r := r0; r < r1; r++ {
		row := probs[r*cols : (r+1)*cols]
		for j := range row {
			row[j] *= scale
		}
		row[labels[r]] -= scale
	}
}

// BatchNormStatsInto computes the per-channel mean and biased variance of
// x [n, c, hw] over the batch and spatial dimensions. Channels run in
// parallel; within a channel the image blocks accumulate in ascending
// batch order.
func BatchNormStatsInto(mean, varv, x []float32, n, c, hw int) {
	rpw := fusedRowsPerWorker(n * hw)
	if chunksFor(c, rpw) <= 1 {
		batchNormStatsRange(mean, varv, x, n, c, hw, 0, c)
		return
	}
	parallelFor(c, rpw, func(c0, c1 int) {
		batchNormStatsRange(mean, varv, x, n, c, hw, c0, c1)
	})
}

func batchNormStatsRange(mean, varv, x []float32, n, c, hw, c0, c1 int) {
	m := float64(n * hw)
	for ch := c0; ch < c1; ch++ {
		k := float64(x[ch*hw]) // shift pivot (first element of the channel)
		var s, sq float64
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			bs, bq := sumSq4(x[base:base+hw], k)
			s += bs
			sq += bq
		}
		sm := s / m
		vr := sq/m - sm*sm
		if vr < 0 {
			vr = 0
		}
		mean[ch] = float32(k + sm)
		varv[ch] = float32(vr)
	}
}

// BatchNormFwdInto computes the fused normalize+affine(+activation) pass
//
//	xhat = (x - mean[ch]) · invStd[ch]    dst = act(gamma[ch]·xhat + beta[ch])
//
// over x [n, c, hw]. xhat is not stored: the backward recomputes it from x
// and the per-channel statistics, which the graph keeps alive anyway. The
// activation runs over each [hw] slab right after it is written, while it
// is still in cache; keep is its scratch over the whole of dst (see Act).
func BatchNormFwdInto(dst, x, mean, invStd, gamma, beta []float32, n, c, hw int, act Act, keep ActScratch) {
	rpw := fusedRowsPerWorker(n * hw)
	if chunksFor(c, rpw) <= 1 {
		batchNormFwdRange(dst, x, mean, invStd, gamma, beta, n, c, hw, act, keep, 0, c)
		return
	}
	parallelFor(c, rpw, func(c0, c1 int) {
		batchNormFwdRange(dst, x, mean, invStd, gamma, beta, n, c, hw, act, keep, c0, c1)
	})
}

func batchNormFwdRange(dst, x, mean, invStd, gamma, beta []float32, n, c, hw int, act Act, keep ActScratch, c0, c1 int) {
	for ch := c0; ch < c1; ch++ {
		mu, is := mean[ch], invStd[ch]
		ga, be := gamma[ch], beta[ch]
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			src := x[base : base+hw]
			out := dst[base : base+hw][:len(src)]
			for i, v := range src {
				out[i] = ga*float32((v-mu)*is) + be
			}
			act.apply(dst, keep, base, base+hw)
		}
	}
}

// BatchNormBwdInto accumulates the BatchNorm2d gradients over x [n, c, hw]:
//
//	dgamma[ch] += Σ dy⊙xhat    dbeta[ch] += Σ dy
//	dx += gamma·invStd · (dy - mean(dy) - xhat·mean(dy⊙xhat))   (training)
//	dx += gamma·invStd · dy                                     (eval)
//
// with xhat = float32((x − mean[ch])·invStd[ch]) recomputed in both passes —
// bit for bit the value the forward normalised with. Any of dx, dgamma,
// dbeta may be nil to skip that gradient. Channels are fully independent
// (parameter gradients included), so the whole backward runs in parallel
// over channels with fixed per-channel order.
func BatchNormBwdInto(dx, dgamma, dbeta, dy, x, mean, invStd, gamma []float32, n, c, hw int, training bool) {
	rpw := fusedRowsPerWorker(n * hw)
	if chunksFor(c, rpw) <= 1 {
		batchNormBwdRange(dx, dgamma, dbeta, dy, x, mean, invStd, gamma, n, c, hw, training, 0, c)
		return
	}
	parallelFor(c, rpw, func(c0, c1 int) {
		batchNormBwdRange(dx, dgamma, dbeta, dy, x, mean, invStd, gamma, n, c, hw, training, c0, c1)
	})
}

func batchNormBwdRange(dx, dgamma, dbeta, dy, x, mean, invStd, gamma []float32, n, c, hw int, training bool, c0, c1 int) {
	m := float64(n * hw)
	needSums := dgamma != nil || dbeta != nil || (dx != nil && training)
	for ch := c0; ch < c1; ch++ {
		mu, is := mean[ch], invStd[ch]
		var sumDy, sumDyXhat float64
		if needSums {
			for b := 0; b < n; b++ {
				base := (b*c + ch) * hw
				bs, bt := sumDotNorm4(dy[base:base+hw], x[base:base+hw], mu, is)
				sumDy += bs
				sumDyXhat += bt
			}
		}
		if dgamma != nil {
			dgamma[ch] += float32(sumDyXhat)
		}
		if dbeta != nil {
			dbeta[ch] += float32(sumDy)
		}
		if dx == nil {
			continue
		}
		gis := gamma[ch] * is
		if training {
			mDy := float32(sumDy / m)
			mDyX := float32(sumDyXhat / m)
			for b := 0; b < n; b++ {
				base := (b*c + ch) * hw
				dyb := dy[base : base+hw]
				xb := x[base : base+hw][:len(dyb)]
				out := dx[base : base+hw][:len(dyb)]
				for i := range dyb {
					out[i] += gis * (dyb[i] - mDy - float32((xb[i]-mu)*is)*mDyX)
				}
			}
		} else {
			for b := 0; b < n; b++ {
				base := (b*c + ch) * hw
				dyb := dy[base : base+hw]
				out := dx[base : base+hw][:len(dyb)]
				for i := range dyb {
					out[i] += gis * dyb[i]
				}
			}
		}
	}
}

// ChanSumAddInto accumulates dbias[ch] += Σ m[b, ch, :] for m [n, c, hw] —
// the bias gradient of a channel-bias epilogue. Each [hw] slab is summed on
// its own, slabs in ascending batch order.
func ChanSumAddInto(dbias, m []float32, n, c, hw int) {
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			var s float32
			for _, v := range m[base : base+hw] {
				s += v
			}
			dbias[ch] += s
		}
	}
}

// ColSumAddInto accumulates dbias[j] += Σ_rows m[r, j] for m [rows, d] —
// the bias gradient of a row-bias epilogue. Workers take disjoint column
// ranges, each column summing its rows in ascending order as ever.
func ColSumAddInto(dbias, m []float32, rows, d int) {
	cpw := max(fusedRowsPerWorker(rows), 16) // a cache line of columns at least
	if chunksFor(d, cpw) <= 1 {
		colSumAddRange(dbias, m, rows, d, 0, d)
		return
	}
	parallelFor(d, cpw, func(j0, j1 int) { colSumAddRange(dbias, m, rows, d, j0, j1) })
}

func colSumAddRange(dbias, m []float32, rows, d, j0, j1 int) {
	acc := dbias[j0:j1]
	for r := 0; r < rows; r++ {
		row := m[r*d+j0 : r*d+j1][:len(acc)]
		for j := range acc {
			acc[j] += row[j]
		}
	}
}
