package autodiff

import (
	"testing"

	"amalgam/internal/tensor"
)

// convCase is one Conv2d geometry of the conv tables: determinism, gradient
// check and the block-GEMM references all walk the same shapes.
type convCase struct {
	name                                        string
	batch, inC, outC, h, w, kernel, stride, pad int
}

// testConvBudget is the scratch budget blockConvCases are sized against.
const testConvBudget = 1 << 11

// blockConvCases exercise what the block loop of Conv2d must get right, on
// shapes small enough for a gradient check: with the scratch budget shrunk
// to testConvBudget floats they span several blocks. The comment on each is
// its lowered floats per image and how the batch splits. Every block's
// position count is a multiple of 4 (see TestConvStreamedBackwardMatchesPerImage).
var blockConvCases = []convCase{
	{"n-not-a-multiple-of-the-block", 5, 2, 3, 6, 6, 3, 1, 1}, // 648: 3 + 2
	{"n1", 1, 2, 3, 6, 6, 3, 1, 1},                            // 648: 1
	{"stage1-like-block-is-1", 3, 8, 4, 8, 8, 3, 1, 1},        // 4608 > budget: 1 + 1 + 1
	{"stage4-like-block-is-n", 3, 16, 5, 2, 2, 3, 1, 1},       // 576: 3
	{"stride2", 5, 3, 4, 8, 8, 3, 2, 1},                       // 432: 4 + 1
	{"1x1", 16, 4, 3, 6, 6, 1, 1, 0},                          // 144: 14 + 2
	{"pad0", 4, 2, 3, 8, 8, 3, 1, 0},                          // 648: 3 + 1
	{"non-square", 5, 2, 3, 4, 6, 3, 1, 1},                    // 432: 4 + 1
}

// shrinkConvBudget makes blockConvCases span several blocks for one test.
func shrinkConvBudget(t *testing.T) {
	prev := convScratchFloats
	convScratchFloats = testConvBudget
	t.Cleanup(func() { convScratchFloats = prev })
}

// fwdBwd runs one biased Conv2d forward+backward and returns the output and
// the gradients of x, w and the bias.
func (c convCase) fwdBwd() []*tensor.Tensor {
	h := plainOp(3)
	operands := h.draw([][]int{{c.batch, c.inC, c.h, c.w}, {c.outC, c.inC, c.kernel, c.kernel}, {c.outC}}, 99)
	return h.fwdBwd(operands, func(p []*Node) *Node { return Conv2d(p[0], p[1], p[2], c.stride, c.pad, tensor.ActNone) })
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

	// Conv2d, worker count × SIMD on/off. First at the real scratch budget —
	// small shapes are one block each; the last case is a real stage-1-like
	// geometry whose nine images split 7 + 2 — then blockConvCases with the
	// budget shrunk so every kind of split occurs.
	convCases := []convCase{
		{"lenet-like", 4, 1, 6, 28, 28, 5, 1, 2},
		{"vgg-like", 3, 3, 8, 16, 16, 3, 1, 1},
		{"strided", 2, 2, 4, 15, 15, 3, 2, 1},
		{"odd-batch", 5, 1, 3, 9, 9, 3, 1, 0},
		{"streamed-batch32", 32, 1, 4, 10, 10, 3, 1, 1},
		{"two-real-blocks", 9, 8, 4, 32, 32, 3, 1, 1},
	}
	for _, tc := range convCases {
		t.Run("Conv2d/"+tc.name, func(t *testing.T) { sameAtEveryWorkerCount(t, workerCounts, tc.fwdBwd) })
	}
	for _, tc := range blockConvCases {
		t.Run("Conv2d/blocks/"+tc.name, func(t *testing.T) {
			shrinkConvBudget(t)
			sameAtEveryWorkerCount(t, workerCounts, tc.fwdBwd)
		})
	}
}

// TestConvStreamedBackwardMatchesPerImage pins what a block of images
// multiplied at once must still equal, bit for bit, on both backends:
//
//   - the forward and dX are those of each image convolved on its own. A
//     block GEMM only makes rows longer: every output element is still the
//     same ascending chain over the same operands, and Col2Im still adds
//     each image's columns into its pixels in the same order.
//   - dW is the one GEMM dY[OC, N·positions] × rows[N·positions, C·KH·KW]
//     over the whole batch: one chain per weight over (image, position) in
//     ascending order, however the batch was cut into blocks — each block's
//     accumulating GEMM continues the chain in the gradient itself. (Exact
//     because every block of blockConvCases holds a multiple of 4 positions;
//     otherwise the 4-wide unrolled steps regroup and the split is only
//     deterministic.) It is NOT the per-image dWs summed: until PR 22 each
//     image's dW was a dot-product GEMM added into the gradient, and that is
//     the order ROADMAP item 3 allowed to change.
func TestConvStreamedBackwardMatchesPerImage(t *testing.T) {
	shrinkConvBudget(t)
	image := func(t *tensor.Tensor, b int) *tensor.Tensor {
		sh := t.Shape()
		sz := t.Numel() / sh[0]
		return tensor.FromSlice(t.Data[b*sz:(b+1)*sz], append([]int{1}, sh[1:]...)...)
	}
	for _, tc := range blockConvCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(72)
			x, w := tensor.New(tc.batch, tc.inC, tc.h, tc.w), tensor.New(tc.outC, tc.inC, tc.kernel, tc.kernel)
			rng.FillNormal(x, 0, 1)
			rng.FillNormal(w, 0, 0.5)
			g := &tensor.ConvGeom{InC: tc.inC, InH: tc.h, InW: tc.w, KH: tc.kernel, KW: tc.kernel,
				StrideH: tc.stride, StrideW: tc.stride, PadH: tc.pad, PadW: tc.pad}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			kdim, positions := tc.inC*tc.kernel*tc.kernel, g.OutH*g.OutW
			if block := convBlock(kdim, positions, tc.batch); block < tc.batch && block*positions%4 != 0 {
				t.Fatalf("blocks of %d positions: the table must keep them a multiple of 4", block*positions)
			}
			dy := tensor.New(tc.batch, tc.outC, g.OutH, g.OutW)
			rng.FillNormal(dy, 0, 1)
			run := func(x, dy *tensor.Tensor) (val, dx, dw *tensor.Tensor) {
				xN, wN := Leaf(x), Leaf(w.Clone())
				out := Conv2d(xN, wN, nil, tc.stride, tc.pad, tensor.ActNone)
				val = out.Val.Clone()
				loss := Sum(Mul(out, Constant(dy))) // so that out.Grad is exactly dy
				Backward(loss)
				Release(loss)
				return val, xN.Grad, wN.Grad
			}
			eachBackend(t, func(simd bool) {
				val, dx, dw := run(x, dy)
				for b := 0; b < tc.batch; b++ { // Errorf: eachBackend restores the dispatch after fn returns
					v1, dx1, _ := run(image(x, b), image(dy, b))
					if !image(val, b).Equal(v1) {
						t.Errorf("simd=%v: image %d of the batch forward is not that image's own forward", simd, b)
					}
					if !image(dx, b).Equal(dx1) {
						t.Errorf("simd=%v: image %d of the batch dX is not that image's own dX", simd, b)
					}
				}
				rows, dyT := tensor.New(tc.batch*positions, kdim), tensor.New(tc.outC, tc.batch*positions)
				tensor.Im2Row(rows, x.Data, g)
				swapMid(dyT.Data, dy.Data, 1, tc.batch, tc.outC, positions, false)
				want := tensor.New(w.Shape()...)
				tensor.MatMulRawInto(want.Data, dyT.Data, rows.Data, tc.outC, tc.batch*positions, kdim)
				if !dw.Equal(want) {
					t.Errorf("simd=%v: batch dW is not the one GEMM over (image, position)", simd)
				}
			})
		})
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
