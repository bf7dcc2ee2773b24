package autodiff

import (
	"fmt"
	"testing"

	"amalgam/internal/tensor"
)

// convRun executes one Conv2d forward+backward and returns the output
// value plus both gradients, cloned so pooled buffers can be recycled.
func convRun(t *testing.T, seed uint64, batch, inC, outC, h, w, kernel, stride, pad int) (out, dx, dw *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	x := tensor.New(batch, inC, h, w)
	wt := tensor.New(outC, inC, kernel, kernel)
	bias := tensor.New(outC)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(wt, 0, 0.5)
	rng.FillNormal(bias, 0, 0.5)

	xN, wN, bN := Leaf(x), Leaf(wt), Leaf(bias)
	loss := Mean(Conv2d(xN, wN, bN, stride, pad, tensor.ActNone))
	Backward(loss)
	out = loss.Val.Clone()
	dx = xN.Grad.Clone()
	dw = wN.Grad.Clone()
	Release(loss)
	return out, dx, dw
}

// TestDeterminismAcrossWorkers is the repo's determinism contract as a
// table test: the blocked MatMul variants and the im2col Conv2d
// forward+backward must produce bit-identical outputs AND gradients at
// SetMaxWorkers(1) and SetMaxWorkers(8) (plus in-between counts that force
// uneven chunking).
func TestDeterminismAcrossWorkers(t *testing.T) {
	workerCounts := []int{2, 3, 8}

	t.Run("MatMulForwardBackward", func(t *testing.T) {
		run := func() (out, da, db *tensor.Tensor) {
			rng := tensor.NewRNG(5)
			a := tensor.New(33, 17)
			b := tensor.New(17, 29)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			aN, bN := Leaf(a), Leaf(b)
			loss := Mean(MatMul(aN, bN))
			Backward(loss)
			out, da, db = loss.Val.Clone(), aN.Grad.Clone(), bN.Grad.Clone()
			Release(loss)
			return out, da, db
		}
		prev := tensor.SetMaxWorkers(1)
		defer tensor.SetMaxWorkers(prev)
		refOut, refDa, refDb := run()
		for _, wk := range workerCounts {
			tensor.SetMaxWorkers(wk)
			out, da, db := run()
			if !out.Equal(refOut) || !da.Equal(refDa) || !db.Equal(refDb) {
				t.Errorf("workers=%d: MatMul fwd/bwd not bit-identical to workers=1", wk)
			}
		}
	})

	// The PR 2 fused kernel family, run through autodiff on the persistent
	// worker pool: forward values and every gradient must be bit-identical
	// across worker counts.
	t.Run("LayerNormFwdBwd", func(t *testing.T) {
		run := func() (out, dx, dg *tensor.Tensor) {
			rng := tensor.NewRNG(17)
			x := tensor.New(37, 96) // odd row count forces uneven chunks
			rng.FillNormal(x, 0.3, 2)
			gamma, beta := tensor.Ones(96), tensor.New(96)
			xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
			loss := Mean(LayerNorm(xN, gN, bN, 1e-5))
			Backward(loss)
			out, dx, dg = loss.Val.Clone(), xN.Grad.Clone(), gN.Grad.Clone()
			Release(loss)
			return out, dx, dg
		}
		prev := tensor.SetMaxWorkers(1)
		defer tensor.SetMaxWorkers(prev)
		refOut, refDx, refDg := run()
		for _, wk := range workerCounts {
			tensor.SetMaxWorkers(wk)
			out, dx, dg := run()
			if !out.Equal(refOut) || !dx.Equal(refDx) || !dg.Equal(refDg) {
				t.Errorf("workers=%d: LayerNorm fwd/bwd not bit-identical to workers=1", wk)
			}
		}
	})

	t.Run("BatchNormFwdBwd", func(t *testing.T) {
		run := func() (out, dx, rmOut *tensor.Tensor) {
			rng := tensor.NewRNG(18)
			x := tensor.New(5, 13, 6, 6)
			rng.FillNormal(x, 0.5, 1.5)
			gamma, beta := tensor.Ones(13), tensor.New(13)
			rm, rv := tensor.New(13), tensor.Ones(13)
			xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
			loss := Mean(BatchNorm2d(xN, gN, bN, rm, rv, 0.1, 1e-5, true, tensor.ActNone))
			Backward(loss)
			out, dx, rmOut = loss.Val.Clone(), xN.Grad.Clone(), rm.Clone()
			Release(loss)
			return out, dx, rmOut
		}
		prev := tensor.SetMaxWorkers(1)
		defer tensor.SetMaxWorkers(prev)
		refOut, refDx, refRm := run()
		for _, wk := range workerCounts {
			tensor.SetMaxWorkers(wk)
			out, dx, rm := run()
			if !out.Equal(refOut) || !dx.Equal(refDx) || !rm.Equal(refRm) {
				t.Errorf("workers=%d: BatchNorm2d fwd/bwd not bit-identical to workers=1", wk)
			}
		}
	})

	t.Run("SoftmaxCrossEntropyFwdBwd", func(t *testing.T) {
		labels := make([]int, 61)
		for i := range labels {
			labels[i] = i % 32
		}
		run := func() (out, dx *tensor.Tensor) {
			rng := tensor.NewRNG(19)
			x := tensor.New(61, 32)
			rng.FillNormal(x, 0, 2)
			xN := Leaf(x)
			loss := SoftmaxCrossEntropy(xN, labels)
			Backward(loss)
			out, dx = loss.Val.Clone(), xN.Grad.Clone()
			Release(loss)
			return out, dx
		}
		prev := tensor.SetMaxWorkers(1)
		defer tensor.SetMaxWorkers(prev)
		refOut, refDx := run()
		for _, wk := range workerCounts {
			tensor.SetMaxWorkers(wk)
			out, dx := run()
			if !out.Equal(refOut) || !dx.Equal(refDx) {
				t.Errorf("workers=%d: SoftmaxCrossEntropy fwd/bwd not bit-identical to workers=1", wk)
			}
		}
	})

	// The activation-free Linear ops, worker count × SIMD on/off: each
	// backend must agree with itself at every worker count (the two
	// backends round differently and are not compared). 67 rows of 1000
	// columns make the row kernels chunk unevenly at every count.
	linearRun := func(head bool) []*tensor.Tensor {
		rng := tensor.NewRNG(22)
		x := tensor.New(67, 48)
		w := tensor.New(48, 1000)
		b := tensor.New(1000)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(w, 0, 0.3)
		rng.FillNormal(b, 0, 0.3)
		labels := make([]int, 67)
		for i := range labels {
			labels[i] = (i * 37) % 1000
		}
		xN, wN, bN := Leaf(x), Leaf(w), Leaf(b)
		var loss *Node
		if head {
			loss = LinearSoftmaxCrossEntropy(xN, wN, bN, labels)
		} else {
			loss = Mean(Linear(xN, wN, bN, tensor.ActNone))
		}
		Backward(loss)
		res := []*tensor.Tensor{loss.Val.Clone(), xN.Grad.Clone(), wN.Grad.Clone(), bN.Grad.Clone()}
		Release(loss)
		return res
	}
	for name, head := range map[string]bool{"LinearFwdBwd": false, "LinearSoftmaxCrossEntropyFwdBwd": true} {
		t.Run(name, func(t *testing.T) {
			sameAtEveryWorkerCount(t, workerCounts, func() []*tensor.Tensor { return linearRun(head) })
		})
	}

	// Every op that ends in an activation, over every activation.
	t.Run("Act", func(t *testing.T) { actRowsDeterministic(t, workerCounts) })

	// The add→activation node and the norms' recomputed x̂. Shapes are large
	// enough that the row loops really split.
	oneNodeCases := map[string]func() []*tensor.Tensor{
		"AddReLU": func() []*tensor.Tensor {
			h := plainOp(2)
			return h.fwdBwd(h.draw([][]int{{8, 13, 32, 32}, {8, 13, 32, 32}}, 32), func(p []*Node) *Node {
				return AddReLU(p[0], p[1])
			})
		},
		"LayerNormRecomputed": func() []*tensor.Tensor {
			h := plainOp(3)
			return h.fwdBwd(h.draw([][]int{{67, 1000}, {1000}, {1000}}, 33), func(p []*Node) *Node {
				return LayerNorm(p[0], p[1], p[2], 1e-5)
			})
		},
	}
	for name, run := range oneNodeCases {
		t.Run("OneNode/"+name, func(t *testing.T) { sameAtEveryWorkerCount(t, workerCounts, run) })
	}

	convCases := []struct {
		name                                        string
		batch, inC, outC, h, w, kernel, stride, pad int
	}{
		{"lenet-like", 4, 1, 6, 28, 28, 5, 1, 2},
		{"vgg-like", 3, 3, 8, 16, 16, 3, 1, 1},
		{"strided", 2, 2, 4, 15, 15, 3, 2, 1},
		{"odd-batch", 5, 1, 3, 9, 9, 3, 1, 0},
		// Batch large enough that the streamed backward re-lowers many
		// images through its single scratch column buffer.
		{"streamed-batch32", 32, 1, 4, 10, 10, 3, 1, 1},
	}
	for _, tc := range convCases {
		t.Run(fmt.Sprintf("Conv2d/%s", tc.name), func(t *testing.T) {
			prev := tensor.SetMaxWorkers(1)
			defer tensor.SetMaxWorkers(prev)
			refOut, refDx, refDw := convRun(t, 99, tc.batch, tc.inC, tc.outC, tc.h, tc.w, tc.kernel, tc.stride, tc.pad)
			for _, wk := range workerCounts {
				tensor.SetMaxWorkers(wk)
				out, dx, dw := convRun(t, 99, tc.batch, tc.inC, tc.outC, tc.h, tc.w, tc.kernel, tc.stride, tc.pad)
				if !out.Equal(refOut) {
					t.Errorf("workers=%d: conv output not bit-identical", wk)
				}
				if !dx.Equal(refDx) {
					t.Errorf("workers=%d: conv dX not bit-identical", wk)
				}
				if !dw.Equal(refDw) {
					t.Errorf("workers=%d: conv dW not bit-identical", wk)
				}
			}
		})
	}
}

// TestConvStreamedBackwardMatchesPerImage pins the streaming dW
// accumulation: the batched backward re-lowers one image at a time into a
// single scratch buffer and accumulates in ascending batch order, so its
// dW must equal the sum of per-image dWs taken in the same order, bit for
// bit. (This is the invariant that made dropping the retained column
// matrices a pure memory win.)
func TestConvStreamedBackwardMatchesPerImage(t *testing.T) {
	const batch, inC, outC, h, wdt, k = 6, 2, 3, 7, 7, 3
	rng := tensor.NewRNG(72)
	x := tensor.New(batch, inC, h, wdt)
	w := tensor.New(outC, inC, k, k)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.5)

	wN := Leaf(w.Clone())
	full := Conv2d(Constant(x.Clone()), wN, nil, 1, 1, tensor.ActNone)
	Backward(Sum(full))
	dwFull := wN.Grad.Clone()

	imgIn := inC * h * wdt
	dwSum := tensor.New(w.Shape()...)
	for b := 0; b < batch; b++ {
		xb := tensor.New(1, inC, h, wdt)
		copy(xb.Data, x.Data[b*imgIn:(b+1)*imgIn])
		wb := Leaf(w.Clone())
		one := Conv2d(Constant(xb), wb, nil, 1, 1, tensor.ActNone)
		Backward(Sum(one))
		for i, g := range wb.Grad.Data {
			dwSum.Data[i] += g
		}
	}
	if !dwFull.Equal(dwSum) {
		t.Fatal("streamed batch dW is not the ascending-order sum of per-image dWs")
	}
}

// TestReleaseRecyclesScratch verifies Release actually feeds the pool: a
// second identical training step after Release must hit the pool instead
// of allocating fresh buffers.
func TestReleaseRecyclesScratch(t *testing.T) {
	rng := tensor.NewRNG(21)
	x := tensor.New(2, 1, 8, 8)
	w := tensor.New(4, 1, 3, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.5)
	wN := Leaf(w)

	step := func() {
		wN.ZeroGrad()
		loss := Mean(Activate(Conv2d(Constant(x), wN, nil, 1, 1, tensor.ActNone), tensor.ActReLU))
		Backward(loss)
		Release(loss)
	}
	step() // warm the pool
	h0, _ := tensor.PoolStats()
	step()
	h1, m1 := tensor.PoolStats()
	if h1 <= h0 {
		t.Errorf("second step hit the pool %d times, want > 0 (misses now %d)", h1-h0, m1)
	}
}

// TestReleaseKeepsLeaves verifies Release leaves parameter values and
// gradients untouched (the optimizer reads them after Backward).
func TestReleaseKeepsLeaves(t *testing.T) {
	rng := tensor.NewRNG(33)
	w := tensor.New(4, 3)
	rng.FillNormal(w, 0, 1)
	wVals := w.Clone()
	wN := Leaf(w)
	x := tensor.New(2, 4)
	rng.FillNormal(x, 0, 1)

	mm := MatMul(Constant(x), wN) // pooled interior node
	loss := Mean(mm)
	Backward(loss)
	grad := wN.Grad.Clone()
	Release(loss)
	if wN.Val == nil || !wN.Val.Equal(wVals) {
		t.Fatal("Release modified a leaf value")
	}
	if wN.Grad == nil || !wN.Grad.Equal(grad) {
		t.Fatal("Release modified a leaf gradient")
	}
	if mm.Val != nil || mm.Grad != nil {
		t.Fatal("Release kept an interior pooled value or gradient alive")
	}
}
