package tensor

import (
	"math"
	"slices"
	"testing"
)

// TestExp32Accuracy pins Exp32 within ~2 ulp of math.Exp across the useful
// range, exactly 1 at 0, and correct saturation at the range ends.
func TestExp32Accuracy(t *testing.T) {
	if Exp32(0) != 1 {
		t.Fatalf("Exp32(0) = %v, want 1", Exp32(0))
	}
	for x := -87.0; x <= 88.0; x += 0.0137 {
		got := float64(Exp32(float32(x)))
		want := math.Exp(float64(float32(x)))
		rel := math.Abs(got-want) / want
		if rel > 3e-7 {
			t.Fatalf("Exp32(%v) = %v, want %v (rel err %.3g)", x, got, want, rel)
		}
	}
	if !math.IsInf(float64(Exp32(89)), 1) {
		t.Fatal("Exp32 above range must saturate to +Inf")
	}
	if Exp32(-90) != 0 {
		t.Fatal("Exp32 below range must flush to 0")
	}
	if Exp32(-1e9) != 0 || !math.IsInf(float64(Exp32(1e9)), 1) {
		t.Fatal("Exp32 must handle extreme arguments")
	}
}

// layerNormRef is a scalar float64 reference for both passes.
func layerNormRef(x, gamma, beta, dy []float32, rows, d int, eps float32) (y, dx, dg, db []float32) {
	y = make([]float32, rows*d)
	dx = make([]float32, rows*d)
	dg = make([]float32, d)
	db = make([]float32, d)
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
		xh := make([]float64, d)
		for i, v := range src {
			xh[i] = (float64(v) - mu) * is
			y[r*d+i] = float32(float64(gamma[i])*xh[i] + float64(beta[i]))
		}
		dyr := dy[r*d : (r+1)*d]
		var mDy, mDyX float64
		g := make([]float64, d)
		for i := range dyr {
			g[i] = float64(dyr[i]) * float64(gamma[i])
			mDy += g[i]
			mDyX += g[i] * xh[i]
			dg[i] += float32(float64(dyr[i]) * xh[i])
			db[i] += dyr[i]
		}
		mDy /= float64(d)
		mDyX /= float64(d)
		for i := range dyr {
			dx[r*d+i] = float32(is * (g[i] - mDy - xh[i]*mDyX))
		}
	}
	return y, dx, dg, db
}

func maxAbsDiff32(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestLayerNormKernelsMatchReference(t *testing.T) {
	const rows, d = 7, 37
	rng := NewRNG(101)
	x := New(rows, d)
	dy := New(rows, d)
	gamma := New(d)
	beta := New(d)
	rng.FillNormal(x, 0.5, 2)
	rng.FillNormal(dy, 0, 1)
	rng.FillNormal(gamma, 1, 0.3)
	rng.FillNormal(beta, 0, 0.3)

	refY, refDx, refDg, refDb := layerNormRef(x.Data, gamma.Data, beta.Data, dy.Data, rows, d, 1e-5)

	y := make([]float32, rows*d)
	mean := make([]float32, rows)
	invStd := make([]float32, rows)
	LayerNormFwdInto(y, mean, invStd, x.Data, gamma.Data, beta.Data, rows, d, 1e-5)
	dx := make([]float32, rows*d)
	dg := make([]float32, d)
	db := make([]float32, d)
	LayerNormBwdInto(dx, dg, db, dy.Data, x.Data, mean, invStd, gamma.Data, rows, d)

	if diff := maxAbsDiff32(y, refY); diff > 1e-4 {
		t.Fatalf("forward diverges from float64 reference by %g", diff)
	}
	if diff := maxAbsDiff32(dx, refDx); diff > 1e-4 {
		t.Fatalf("dx diverges from float64 reference by %g", diff)
	}
	if diff := maxAbsDiff32(dg, refDg); diff > 1e-4 {
		t.Fatalf("dgamma diverges by %g", diff)
	}
	if diff := maxAbsDiff32(db, refDb); diff > 1e-4 {
		t.Fatalf("dbeta diverges by %g", diff)
	}

	// nil gradient slots must be skipped without touching the others.
	dx2 := make([]float32, rows*d)
	LayerNormBwdInto(dx2, nil, nil, dy.Data, x.Data, mean, invStd, gamma.Data, rows, d)
	if diff := maxAbsDiff32(dx2, dx); diff != 0 {
		t.Fatalf("dx with nil dgamma/dbeta differs by %g", diff)
	}
}

// TestLayerNormStatsLargeMean pins the shifted-variance stability fix: a
// row with a huge common offset and tiny spread must still recover the
// spread's invStd instead of cancelling it away (the unshifted raw-moment
// formula E[x²]−E[x]² loses ~all precision here).
func TestLayerNormStatsLargeMean(t *testing.T) {
	const d = 64
	x := make([]float32, d)
	for i := range x {
		// mean 1e5 with a ±1 alternating spread: true variance is 1.
		v := float32(1e5)
		if i%2 == 0 {
			v += 1
		} else {
			v -= 1
		}
		x[i] = v
	}
	xhat := make([]float32, d) // the output itself: gamma is 1 and beta 0 below
	mean := make([]float32, 1)
	invStd := make([]float32, 1)
	gamma := make([]float32, d)
	beta := make([]float32, d)
	for i := range gamma {
		gamma[i] = 1
	}
	LayerNormFwdInto(xhat, mean, invStd, x, gamma, beta, 1, d, 0)
	if diff := math.Abs(float64(invStd[0]) - 1); diff > 1e-4 {
		t.Fatalf("invStd for mean=1e5 spread=±1 row: %v, want 1 (±1e-4): shifted variance regressed", invStd[0])
	}
	for i, h := range xhat {
		want := float32(1)
		if i%2 != 0 {
			want = -1
		}
		if math.Abs(float64(h-want)) > 1e-3 {
			t.Fatalf("xhat[%d] = %v, want %v", i, h, want)
		}
	}
}

func TestSoftmaxKernelsMatchReference(t *testing.T) {
	const rows, cols = 9, 31
	rng := NewRNG(102)
	x := New(rows, cols)
	dy := New(rows, cols)
	rng.FillNormal(x, 0, 3)
	rng.FillNormal(dy, 0, 1)

	y := make([]float32, rows*cols)
	SoftmaxRowsInto(y, x.Data, rows, cols)
	for r := 0; r < rows; r++ {
		src := x.Data[r*cols : (r+1)*cols]
		maxv := float64(src[0])
		for _, v := range src[1:] {
			if float64(v) > maxv {
				maxv = float64(v)
			}
		}
		var sum float64
		ref := make([]float64, cols)
		for j, v := range src {
			ref[j] = math.Exp(float64(v) - maxv)
			sum += ref[j]
		}
		var rowSum float64
		for j := range ref {
			got := float64(y[r*cols+j])
			want := ref[j] / sum
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("row %d col %d: softmax %v, want %v", r, j, got, want)
			}
			rowSum += got
		}
		if math.Abs(rowSum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, rowSum)
		}
	}

	// Backward: dx += y ⊙ (dy - Σ y·dy), checked against scalar float64.
	dx := make([]float32, rows*cols)
	SoftmaxRowsBwdInto(dx, y, dy.Data, rows, cols)
	for r := 0; r < rows; r++ {
		var dot float64
		for j := 0; j < cols; j++ {
			dot += float64(y[r*cols+j]) * float64(dy.Data[r*cols+j])
		}
		for j := 0; j < cols; j++ {
			want := float64(y[r*cols+j]) * (float64(dy.Data[r*cols+j]) - dot)
			if math.Abs(float64(dx[r*cols+j])-want) > 1e-5 {
				t.Fatalf("row %d col %d: softmax bwd %v, want %v", r, j, dx[r*cols+j], want)
			}
		}
	}
}

// TestSoftmaxRowsSignOfZero: the row softmax reads a score only as x − max,
// so a −0 score gives the bits a +0 one does, as the row's max or below it,
// with SIMD dispatch off and on. Causal attention adds nothing on and below
// the diagonal (only −1e9 above it); an added +0 would turn a −0 score into
// +0, and this shows that P does not depend on it.
func TestSoftmaxRowsSignOfZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	rng := NewRNG(103)
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		for _, cols := range []int{1, 3, 8, 13, 63} {
			for _, zeroIsMax := range []bool{false, true} {
				row := make([]float32, cols)
				for j := range row {
					row[j] = float32(-1 - rng.Float64()) // below zero,
					if !zeroIsMax {
						row[j] += 3 // or above it
					}
				}
				for z := 0; z < cols; z += 2 {
					pos, neg := slices.Clone(row), slices.Clone(row)
					pos[z], neg[z] = 0, negZero
					a, b := make([]float32, cols), make([]float32, cols)
					SoftmaxRowsInto(a, pos, 1, cols)
					SoftmaxRowsInto(b, neg, 1, cols)
					for j := range a {
						if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
							t.Fatalf("simd=%v cols=%d zero at %d (the max: %v): P[%d] %v with +0, %v with −0", simd, cols, z, zeroIsMax, j, a[j], b[j])
						}
					}
				}
			}
		}
		SetSIMD(prev)
	}
}

func TestSoftmaxXentKernels(t *testing.T) {
	const rows, cols = 6, 11
	rng := NewRNG(103)
	x := New(rows, cols)
	rng.FillNormal(x, 0, 2)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = (i * 3) % cols
	}
	probs := make([]float32, rows*cols)
	loss := SoftmaxXentFwdInto(probs, x.Data, labels, rows, cols)

	var refLoss float64
	for r := 0; r < rows; r++ {
		src := x.Data[r*cols : (r+1)*cols]
		maxv := float64(src[0])
		for _, v := range src[1:] {
			if float64(v) > maxv {
				maxv = float64(v)
			}
		}
		var sum float64
		for _, v := range src {
			sum += math.Exp(float64(v) - maxv)
		}
		refLoss -= float64(src[labels[r]]) - maxv - math.Log(sum)
	}
	if math.Abs(loss-refLoss) > 1e-4 {
		t.Fatalf("fused xent loss %v, want %v", loss, refLoss)
	}

	// XentLoss over row blocks continuing the running sum (4 + 2 rows)
	// gives the whole matrix's loss, bit for bit.
	if part := XentLoss(XentLoss(0, probs, labels, 4, cols), probs[4*cols:], labels[4:], rows-4, cols); part != loss {
		t.Fatalf("xent loss over two row blocks %v, want %v", part, loss)
	}

	// Uniform logits: loss = rows · ln cols.
	zero := make([]float32, rows*cols)
	if l := SoftmaxXentFwdInto(probs, zero, labels, rows, cols); math.Abs(l-float64(rows)*math.Log(cols)) > 1e-4 {
		t.Fatalf("uniform xent loss %v, want %v", l, float64(rows)*math.Log(cols))
	}

	// Backward, in place: probs become scale·(p - onehot).
	SoftmaxXentFwdInto(probs, x.Data, labels, rows, cols)
	p0 := append([]float32(nil), probs...)
	SoftmaxXentBwdInPlace(probs, labels, rows, cols, 0.5)
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			want := 0.5 * p0[r*cols+j]
			if j == labels[r] {
				want -= 0.5
			}
			if probs[r*cols+j] != want {
				t.Fatalf("xent bwd (%d,%d) = %v, want %v", r, j, probs[r*cols+j], want)
			}
		}
	}
}

func TestBatchNormKernelsMatchReference(t *testing.T) {
	const n, c, hw = 3, 4, 10
	rng := NewRNG(104)
	x := New(n, c, hw)
	dy := New(n, c, hw)
	gamma := New(c)
	beta := New(c)
	rng.FillNormal(x, 1, 2)
	rng.FillNormal(dy, 0, 1)
	rng.FillNormal(gamma, 1, 0.2)
	rng.FillNormal(beta, 0, 0.2)

	mean := make([]float32, c)
	varv := make([]float32, c)
	BatchNormStatsInto(mean, varv, x.Data, n, c, hw)
	m := float64(n * hw)
	for ch := 0; ch < c; ch++ {
		var s float64
		for b := 0; b < n; b++ {
			for i := 0; i < hw; i++ {
				s += float64(x.Data[(b*c+ch)*hw+i])
			}
		}
		mu := s / m
		var vr float64
		for b := 0; b < n; b++ {
			for i := 0; i < hw; i++ {
				dv := float64(x.Data[(b*c+ch)*hw+i]) - mu
				vr += dv * dv
			}
		}
		vr /= m
		if math.Abs(float64(mean[ch])-mu) > 1e-5 || math.Abs(float64(varv[ch])-vr) > 1e-4 {
			t.Fatalf("channel %d stats (%v, %v), want (%v, %v)", ch, mean[ch], varv[ch], mu, vr)
		}
	}

	invStd := make([]float32, c)
	for ch := range invStd {
		invStd[ch] = float32(1 / math.Sqrt(float64(varv[ch])+1e-5))
	}
	y := make([]float32, n*c*hw)
	xhat := make([]float32, n*c*hw) // the float64 reference below reads it
	BatchNormFwdInto(y, x.Data, mean, invStd, gamma.Data, beta.Data, nil, n, c, hw, ActNone)
	for idx := range y {
		ch := (idx / hw) % c
		xhat[idx] = (x.Data[idx] - mean[ch]) * invStd[ch]
		want := gamma.Data[ch]*xhat[idx] + beta.Data[ch]
		if math.Abs(float64(y[idx]-want)) > 1e-5 {
			t.Fatalf("y[%d] = %v, want %v", idx, y[idx], want)
		}
	}

	// Backward, training mode, against a scalar float64 reference.
	dx := make([]float32, n*c*hw)
	dg := make([]float32, c)
	db := make([]float32, c)
	BatchNormBwdInto(dx, dg, db, dy.Data, x.Data, mean, invStd, gamma.Data, n, c, hw, true)
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for b := 0; b < n; b++ {
			for i := 0; i < hw; i++ {
				idx := (b*c+ch)*hw + i
				sumDy += float64(dy.Data[idx])
				sumDyXhat += float64(dy.Data[idx]) * float64(xhat[idx])
			}
		}
		if math.Abs(float64(dg[ch])-sumDyXhat) > 1e-4 || math.Abs(float64(db[ch])-sumDy) > 1e-4 {
			t.Fatalf("channel %d param grads (%v, %v), want (%v, %v)", ch, dg[ch], db[ch], sumDyXhat, sumDy)
		}
		for b := 0; b < n; b++ {
			for i := 0; i < hw; i++ {
				idx := (b*c+ch)*hw + i
				want := float64(gamma.Data[ch]) * float64(invStd[ch]) *
					(float64(dy.Data[idx]) - sumDy/m - float64(xhat[idx])*sumDyXhat/m)
				if math.Abs(float64(dx[idx])-want) > 1e-4 {
					t.Fatalf("dx[%d] = %v, want %v", idx, dx[idx], want)
				}
			}
		}
	}

	// Eval mode: dx += gamma·invStd·dy only.
	dxe := make([]float32, n*c*hw)
	BatchNormBwdInto(dxe, nil, nil, dy.Data, x.Data, mean, invStd, gamma.Data, n, c, hw, false)
	for idx := range dxe {
		ch := (idx / hw) % c
		want := gamma.Data[ch] * invStd[ch] * dy.Data[idx]
		if math.Abs(float64(dxe[idx]-want)) > 1e-6 {
			t.Fatalf("eval dx[%d] = %v, want %v", idx, dxe[idx], want)
		}
	}
}

func TestFusedBiasReLUKernels(t *testing.T) {
	const rows, d = 5, 13
	rng := NewRNG(105)
	x := New(rows, d)
	bias := New(d)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(bias, 0, 1)
	dst := make([]float32, rows*d)
	AddRowBiasInto(dst, x.Data, bias.Data, nil, rows, d, ActReLU)
	for r := 0; r < rows; r++ {
		for j := 0; j < d; j++ {
			want := x.Data[r*d+j] + bias.Data[j]
			if want < 0 {
				want = 0
			}
			if dst[r*d+j] != want {
				t.Fatalf("(%d,%d) = %v, want %v", r, j, dst[r*d+j], want)
			}
		}
	}

	const n, c, hw = 2, 3, 4
	xc := New(n, c, hw)
	cb := New(c)
	rng.FillNormal(xc, 0, 1)
	rng.FillNormal(cb, 0, 1)
	dc := make([]float32, n*c*hw)
	AddChanBiasInto(dc, xc.Data, cb.Data, n, c, hw, ActReLU)
	for idx := range dc {
		ch := (idx / hw) % c
		want := xc.Data[idx] + cb.Data[ch]
		if want < 0 {
			want = 0
		}
		if dc[idx] != want {
			t.Fatalf("chan idx %d = %v, want %v", idx, dc[idx], want)
		}
	}

	// Mask helpers.
	y := []float32{1, 0, 6, -0.0, 7}
	for act, want := range map[Act][]float32{ActNone: {5, 6, 7, 8, 9}, ActReLU: {5, 0, 7, 0, 9}, ActReLU6: {5, 0, 0, 0, 0}} {
		dy := []float32{5, 6, 7, 8, 9}
		act.Grad(dy, y)
		for i := range want {
			if dy[i] != want[i] {
				t.Fatalf("Act(%d).Grad = %v, want %v", act, dy, want)
			}
		}
	}
	for act, want := range map[Act][]float32{ActNone: {-1, 0.5, 7}, ActReLU: {0, 0.5, 7}, ActReLU6: {0, 0.5, 6}} {
		buf := []float32{-1, 0.5, 7}
		act.Apply(buf)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("Act(%d).Apply = %v, want %v", act, buf, want)
			}
		}
	}
	chanOut := make([]float32, 8)
	AddChanBiasInto(chanOut, []float32{1, 2, 3, 4, 5, 6, 7, 8}, []float32{10, 20}, 2, 2, 2, ActNone)
	for i, want := range []float32{11, 12, 23, 24, 15, 16, 27, 28} {
		if chanOut[i] != want {
			t.Fatalf("AddChanBiasInto = %v", chanOut)
		}
	}
	dchan := make([]float32, 2)
	ChanSumAddInto(dchan, []float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2)
	if dchan[0] != 14 || dchan[1] != 22 {
		t.Fatalf("ChanSumAddInto = %v", dchan)
	}
	dbias := make([]float32, 2)
	ColSumAddInto(dbias, []float32{1, 2, 3, 4, 5, 6}, 3, 2)
	if dbias[0] != 9 || dbias[1] != 12 {
		t.Fatalf("ColSumAddInto = %v", dbias)
	}
}

// TestColSumAddIntoMatchesSerialLoop: the bias-gradient pass splits by
// column range, so each dbias[j] is still its rows summed in ascending order
// on top of what was there — bit-equal to the one-goroutine loop at any
// worker count, at loss-head size (split) and at sizes that stay serial,
// where the call must not allocate.
func TestColSumAddIntoMatchesSerialLoop(t *testing.T) {
	for _, sh := range [][2]int{{1008, 2000}, {63, 257}, {16, 10}, {3, 2}, {1, 4096}} {
		rows, d := sh[0], sh[1]
		m, seed := New(rows, d), New(d)
		rng := NewRNG(uint64(rows*d + 7))
		rng.FillNormal(m, 0, 1)
		rng.FillNormal(seed, 0, 1)
		want := seed.Clone()
		for r := 0; r < rows; r++ {
			for j := 0; j < d; j++ {
				want.Data[j] += m.Data[r*d+j]
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			prev := SetMaxWorkers(workers)
			got := seed.Clone()
			ColSumAddInto(got.Data, m.Data, rows, d)
			SetMaxWorkers(prev)
			if !got.Equal(want) {
				t.Fatalf("[%d, %d] at %d workers differs from the serial loop", rows, d, workers)
			}
		}
	}
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	m, dbias := New(16, 10), New(10)
	if a := testing.AllocsPerRun(10, func() { ColSumAddInto(dbias.Data, m.Data, 16, 10) }); a != 0 {
		t.Fatalf("a small ColSumAddInto allocates %v/op, want 0", a)
	}
}

// TestRowPassesMatchScalar pins the loss head's four row passes — the row
// bias add, softmax's max and 1/sum scale, the in-place cross-entropy
// backward and the bias column sum — to the scalar loops they replace, bit
// for bit, with the SIMD kernels on and off and at every worker count: each
// pass is element-wise or keeps every column's row order, so no rounding may
// move. The rows plant ties at the maximum, ±0 maxima in both orders,
// all-equal and all-zero rows, and labels in the first and last column.
func TestRowPassesMatchScalar(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	widths, rowCounts := []int{1, 7, 8, 9, 15, 16, 17, 2000, 2001}, []int{1, 3, 1008}
	if raceEnabled {
		rowCounts[2] = 67
	}
	fill := func(x []float32, rows, d int) {
		for r := 0; r < rows; r++ {
			row := x[r*d : (r+1)*d]
			last := d - 1
			switch (r + d) % 6 {
			case 1: // the maximum three times
				row[0], row[d/2], row[last] = 9, 9, 9
			case 2: // negative logits, -0 the first zero, +0 a later one
				for j := range row {
					row[j] = -float32(math.Abs(float64(row[j]))) - 1
				}
				row[d/2] = float32(math.Copysign(0, -1))
				row[last] = 0
			case 3: // +0 first, -0 later
				for j := range row {
					row[j] = -float32(math.Abs(float64(row[j]))) - 1
				}
				row[d/2] = 0
				row[last] = float32(math.Copysign(0, -1))
			case 4: // all equal
				for j := range row {
					row[j] = 0.25
				}
			case 5: // all zero, signs alternating from -0
				for j := range row {
					row[j] = float32(math.Copysign(0, float64(j%2)-0.5))
				}
			}
		}
	}
	scalarMax := func(src []float32) float32 {
		maxv := src[0]
		for _, v := range src[1:] {
			if v > maxv {
				maxv = v
			}
		}
		return maxv
	}
	for _, simd := range []bool{true, false} {
		if simd && !SIMDEnabled() {
			continue
		}
		prev := SetSIMD(simd)
		for _, d := range widths {
			for _, rows := range rowCounts {
				rng := NewRNG(uint64(rows*10007 + d))
				x, bias, acc := New(rows, d), New(d), New(d)
				rng.FillNormal(x, 0, 2)
				rng.FillNormal(bias, 0, 1)
				rng.FillNormal(acc, 0, 1)
				fill(x.Data, rows, d)
				labels := make([]int, rows)
				for r := range labels {
					labels[r] = []int{0, d - 1, (r * 37) % d}[r%3]
				}
				const scale = float32(1.0 / 1008)

				res := New(rows, d)
				rng.FillNormal(res, 0, 1)
				wantBias, wantRes, wantSoft, wantXent, wantSum := x.Clone(), x.Clone(), x.Clone(), x.Clone(), acc.Clone()
				for r := 0; r < rows; r++ {
					src := x.Data[r*d : (r+1)*d]
					row, rrow := wantBias.Data[r*d:(r+1)*d], wantRes.Data[r*d:(r+1)*d]
					for j := range row {
						row[j] = src[j] + bias.Data[j]
						rrow[j] = res.Data[r*d+j] + row[j]
					}
					if got, want := rowMax(src), scalarMax(src); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("simd=%v [%d, %d] row %d: rowMax %v, the scalar loop %v", simd, rows, d, r, got, want)
					}
					row = wantSoft.Data[r*d : (r+1)*d]
					inv := float32(1 / expRowSum(row, src, scalarMax(src)))
					for j := range row {
						row[j] *= inv
					}
					row = wantXent.Data[r*d : (r+1)*d]
					for j := range row {
						row[j] *= scale
					}
					row[labels[r]] -= scale
					for j := range src {
						wantSum.Data[j] += src[j]
					}
				}
				for _, workers := range []int{1, 2, 3, 8} {
					SetMaxWorkers(workers)
					for _, c := range []struct {
						name string
						got  *Tensor
						want *Tensor
						run  func(got []float32)
					}{
						{"AddRowBiasInto", x.Clone(), wantBias, func(g []float32) { AddRowBiasInto(g, x.Data, bias.Data, nil, rows, d, ActNone) }},
						{"AddRowBiasInto+residual", x.Clone(), wantRes, func(g []float32) { AddRowBiasInto(g, x.Data, bias.Data, res.Data, rows, d, ActNone) }},
						{"AddRowBiasSerial+residual", x.Clone(), wantRes, func(g []float32) { AddRowBiasSerial(g, g, bias.Data, res.Data, rows, d, ActNone) }},
						{"SoftmaxRowsInto", x.Clone(), wantSoft, func(g []float32) { SoftmaxRowsInto(g, g, rows, d) }},
						{"SoftmaxRowsSerial", x.Clone(), wantSoft, func(g []float32) { SoftmaxRowsSerial(g, g, rows, d) }},
						{"SoftmaxXentBwdInPlace", x.Clone(), wantXent, func(g []float32) { SoftmaxXentBwdInPlace(g, labels, rows, d, scale) }},
						{"SoftmaxXentBwdSerial", x.Clone(), wantXent, func(g []float32) { SoftmaxXentBwdSerial(g, labels, rows, d, scale) }},
						{"ColSumAddInto", acc.Clone(), wantSum, func(g []float32) { ColSumAddInto(g, x.Data, rows, d) }},
						{"ColSumAddSerial", acc.Clone(), wantSum, func(g []float32) { ColSumAddSerial(g, x.Data, rows, d) }},
					} {
						c.run(c.got.Data)
						if !c.got.Equal(c.want) {
							t.Errorf("simd=%v workers=%d: %s over [%d, %d] differs from the scalar loop", simd, workers, c.name, rows, d)
						}
					}
				}
				SetMaxWorkers(1)
			}
		}
		// NaN: the scalar max stays on a NaN first element and skips a later one.
		for _, d := range widths {
			src := make([]float32, d)
			for j := range src {
				src[j] = float32(j%5) - 2
			}
			for _, at := range []int{0, 1, 3, d / 2, d - 9, d - 1} {
				if at < 0 || at >= d {
					continue
				}
				row := append([]float32(nil), src...)
				row[at] = float32(math.NaN())
				if got, want := rowMax(row), scalarMax(row); math.Float32bits(got) != math.Float32bits(want) {
					t.Errorf("simd=%v width %d, NaN at %d: rowMax %v, the scalar loop %v", simd, d, at, got, want)
				}
			}
		}
		SetSIMD(prev)
	}
}

// TestFusedKernelsDeterministicAcrossWorkers pins the contract for the new
// kernel family: bit-identical outputs for any SetMaxWorkers value,
// including counts that force uneven row/channel chunking.
func TestFusedKernelsDeterministicAcrossWorkers(t *testing.T) {
	const rows, d = 67, 96 // uneven splits at 2, 3, 8 workers
	rng := NewRNG(106)
	x := New(rows, d)
	dy := New(rows, d)
	gamma := New(d)
	beta := New(d)
	rng.FillNormal(x, 0.3, 2)
	rng.FillNormal(dy, 0, 1)
	rng.FillNormal(gamma, 1, 0.3)
	rng.FillNormal(beta, 0, 0.3)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = i % d
	}

	type result struct {
		y, dx, sm, smDx, probs, dl []float32
		mean, invStd               []float32
		loss                       float64
	}
	run := func() result {
		var res result
		res.y = make([]float32, rows*d)
		res.mean = make([]float32, rows)
		res.invStd = make([]float32, rows)
		LayerNormFwdInto(res.y, res.mean, res.invStd, x.Data, gamma.Data, beta.Data, rows, d, 1e-5)
		res.dx = make([]float32, rows*d)
		LayerNormBwdInto(res.dx, nil, nil, dy.Data, x.Data, res.mean, res.invStd, gamma.Data, rows, d)
		res.sm = make([]float32, rows*d)
		SoftmaxRowsInto(res.sm, x.Data, rows, d)
		res.smDx = make([]float32, rows*d)
		SoftmaxRowsBwdInto(res.smDx, res.sm, dy.Data, rows, d)
		res.probs = make([]float32, rows*d)
		res.loss = SoftmaxXentFwdInto(res.probs, x.Data, labels, rows, d)
		res.dl = append([]float32(nil), res.probs...)
		SoftmaxXentBwdInPlace(res.dl, labels, rows, d, 1/float32(rows))
		return res
	}
	equal := func(a, b []float32) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	ref := run()
	for _, wk := range []int{2, 3, 8} {
		SetMaxWorkers(wk)
		got := run()
		if !equal(got.y, ref.y) || !equal(got.mean, ref.mean) || !equal(got.invStd, ref.invStd) {
			t.Errorf("workers=%d: LayerNorm forward not bit-identical", wk)
		}
		if !equal(got.dx, ref.dx) {
			t.Errorf("workers=%d: LayerNorm backward not bit-identical", wk)
		}
		if !equal(got.sm, ref.sm) || !equal(got.smDx, ref.smDx) {
			t.Errorf("workers=%d: softmax fwd/bwd not bit-identical", wk)
		}
		if got.loss != ref.loss || !equal(got.probs, ref.probs) || !equal(got.dl, ref.dl) {
			t.Errorf("workers=%d: softmax-xent not bit-identical", wk)
		}
	}

	// BatchNorm at a channel count that chunks unevenly.
	const n, c, hw = 4, 13, 24
	xb := New(n, c, hw)
	dyb := New(n, c, hw)
	gb := New(c)
	rng.FillNormal(xb, 0.5, 1.5)
	rng.FillNormal(dyb, 0, 1)
	rng.FillNormal(gb, 1, 0.2)
	runBN := func() (mean, varv, dx []float32) {
		mean = make([]float32, c)
		varv = make([]float32, c)
		BatchNormStatsInto(mean, varv, xb.Data, n, c, hw)
		invStd := make([]float32, c)
		for ch := range invStd {
			invStd[ch] = float32(1 / math.Sqrt(float64(varv[ch])+1e-5))
		}
		y := make([]float32, n*c*hw)
		BatchNormFwdInto(y, xb.Data, mean, invStd, gb.Data, make([]float32, c), nil, n, c, hw, ActReLU)
		dx = make([]float32, n*c*hw)
		BatchNormBwdInto(dx, make([]float32, c), make([]float32, c), dyb.Data, xb.Data, mean, invStd, gb.Data, n, c, hw, true)
		return mean, varv, dx
	}
	SetMaxWorkers(1)
	rm, rv, rdx := runBN()
	for _, wk := range []int{2, 3, 8} {
		SetMaxWorkers(wk)
		m2, v2, dx2 := runBN()
		if !equal(m2, rm) || !equal(v2, rv) || !equal(dx2, rdx) {
			t.Errorf("workers=%d: BatchNorm kernels not bit-identical", wk)
		}
	}
}
