package autodiff

import (
	"fmt"
	"math"

	"amalgam/internal/tensor"
)

// AddChanBias computes act(x + bias[ch]) for an image batch [N, C, H, W] and
// a per-channel bias [C] — the epilogue Conv2d runs in place inside its own
// node. Composed with a bias-free convolution it is the referee of the
// equivalence tests.
func AddChanBias(x, bias *Node, act tensor.Act) *Node {
	sh := x.Val.Shape()
	if len(sh) != 4 || bias.Val.Numel() != sh[1] {
		panic(fmt.Sprintf("autodiff: AddChanBias dims %v + %v", sh, bias.Val.Shape()))
	}
	n, c, hw := sh[0], sh[1], sh[2]*sh[3]
	val := tensor.Get(sh...)
	tensor.AddChanBiasInto(val.Data, x.Val.Data, bias.Val.Data, n, c, hw, act)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data)
		if bias.requiresGrad {
			tensor.ChanSumAddInto(bias.ensureGrad().Data, out.Grad.Data, n, c, hw)
		}
		out.handGrad(x)
	}
	return out
}

// convScratchFloats bounds the lowered matrix one block of images may
// occupy: 2 MB of float32, a per-core L2's worth. The row kernels stream the
// whole lowered panel once per pair of output rows, so a panel that
// overflows the cache costs more than the longer rows of a bigger block
// save (measured per resnet18 stage in CHANGES.md, PR 22). A variable only
// so that tests can shrink it and make small shapes span several blocks.
var convScratchFloats = 1 << 19

// convBlock is how many images Conv2d lowers and multiplies at once: as
// many as fit the scratch budget, at least one. It depends on the shape
// alone — never on the worker count or the pool's state — so every run of a
// shape splits, and therefore rounds, the same way.
func convBlock(kdim, ncols, n int) int {
	return max(1, min(n, convScratchFloats/(kdim*ncols)))
}

// Conv2d computes act(conv(x, w) + bias), a batched 2-D convolution.
//
//	x: [N, C, H, W]   w: [OC, C, KH, KW]   bias: [OC] or nil
//
// The implementation lowers a block of images at a time (convBlock) and
// runs one matrix multiplication per block in each direction: the forward
// W × cols, the input gradient Wᵀ × dY scattered back by Col2Im, and the
// weight gradient dY × rows accumulated across blocks straight into w's own
// gradient. Bias and activation run in place over the convolution's own
// output — one node, one buffer — and the backward turns out.Grad into the
// gradient of the bare convolution in place before anything reads it.
func Conv2d(x, w, bias *Node, stride, pad int, act tensor.Act) *Node {
	xs, ws := x.Val.Shape(), w.Val.Shape()
	if len(xs) != 4 || len(ws) != 4 || xs[1] != ws[1] {
		panic(fmt.Sprintf("autodiff: Conv2d shapes x%v w%v", xs, ws))
	}
	n, oc := xs[0], ws[0]
	if bias != nil && bias.Val.Numel() != oc {
		panic(fmt.Sprintf("autodiff: Conv2d bias size %d, want %d", bias.Val.Numel(), oc))
	}
	g := &tensor.ConvGeom{
		InC: xs[1], InH: xs[2], InW: xs[3],
		KH: ws[2], KW: ws[3],
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	kdim := g.InC * g.KH * g.KW
	ncols := g.OutH * g.OutW
	imgIn := g.InC * g.InH * g.InW
	imgOut := oc * ncols
	block := convBlock(kdim, ncols, n)

	val := tensor.Get(n, oc, g.OutH, g.OutW)
	// A block's lowered matrix lives only as long as its own matmul; the
	// backward lowers the block again (a pure copy pass, bit-identical)
	// rather than keep it, so lowering memory is one block whatever the
	// batch. A one-image block is already channel-major; a larger one's
	// image-major [nb, OC, positions] goes through swapMid.
	for b0 := 0; b0 < n; b0 += block {
		nb := min(block, n-b0)
		cols := tensor.Get(kdim, nb*ncols)
		tensor.Im2Col(cols, x.Val.Data[b0*imgIn:(b0+nb)*imgIn], g)
		slab := val.Data[b0*imgOut : (b0+nb)*imgOut]
		if nb == 1 {
			tensor.MatMulRawInto(slab, w.Val.Data, cols.Data, oc, kdim, ncols)
		} else {
			y := tensor.Get(oc, nb*ncols)
			tensor.MatMulRawInto(y.Data, w.Val.Data, cols.Data, oc, kdim, nb*ncols)
			swapMid(slab, y.Data, 1, oc, nb, ncols, false)
			tensor.Put(y)
		}
		tensor.Put(cols)
	}
	parents := []*Node{x, w}
	if bias != nil {
		parents = append(parents, bias)
		tensor.AddChanBiasInto(val.Data, val.Data, bias.Val.Data, n, oc, ncols, act)
	} else {
		act.Apply(val.Data)
	}

	out := newPooledNode(val, parents, nil)
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data)
		if bias != nil && bias.requiresGrad {
			tensor.ChanSumAddInto(bias.ensureGrad().Data, out.Grad.Data, n, oc, ncols)
		}
		for b0 := 0; b0 < n; b0 += block {
			nb := min(block, n-b0)
			dy := out.Grad.Data[b0*imgOut : (b0+nb)*imgOut]
			var dyT *tensor.Tensor // dy channel-major, when the block is not already
			if nb > 1 {
				dyT = tensor.Get(oc, nb*ncols)
				swapMid(dyT.Data, dy, 1, nb, oc, ncols, false)
				dy = dyT.Data
			}
			low := tensor.Get(nb*ncols, kdim) // the block's rows for dW, then its dcols for dX
			if w.requiresGrad {
				// dW += dY · rows: one chain per weight over (image,
				// position), continued from block to block in the gradient.
				tensor.Im2Row(low, x.Val.Data[b0*imgIn:(b0+nb)*imgIn], g)
				tensor.MatMulAccRawInto(w.ensureGrad().Data, dy, low.Data, oc, nb*ncols, kdim)
			}
			if x.requiresGrad {
				tensor.MatMulATRawInto(low.Data, w.Val.Data, dy, kdim, oc, nb*ncols)
				tensor.Col2Im(x.ensureGrad().Data[b0*imgIn:(b0+nb)*imgIn], low, g)
			}
			tensor.Put(low)
			tensor.Put(dyT)
		}
	}
	return out
}

// forEachImage runs fn(b) for b in [0, n), in parallel across the batch.
// Each b touches disjoint output ranges so execution order is irrelevant.
func forEachImage(n int, fn func(b int)) {
	tensor.ParallelRange(n, func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			fn(b)
		}
	})
}

// poolGeom is the geometry of a kh×kw pooling window over x [N, C, H, W].
func poolGeom(x *Node, kh, kw, stride, pad int) *tensor.ConvGeom {
	xs := x.Val.Shape()
	if len(xs) != 4 {
		panic(fmt.Sprintf("autodiff: pooling needs 4-D input, got %v", xs))
	}
	g := &tensor.ConvGeom{
		InC: xs[1], InH: xs[2], InW: xs[3],
		KH: kh, KW: kw, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// MaxPool2d applies max pooling with the given square kernel and stride.
func MaxPool2d(x *Node, kernel, stride, pad int) *Node {
	return maxPool(x, poolGeom(x, kernel, kernel, stride, pad))
}

// GlobalMaxPool reduces [N, C, H, W] to [N, C] by spatial max: a max pool
// over one H×W window. The gradient flows to the first maximum only.
func GlobalMaxPool(x *Node) *Node {
	g := poolGeom(x, x.Val.Dim(2), x.Val.Dim(3), 1, 0)
	return Reshape(maxPool(x, g), x.Val.Dim(0), g.InC)
}

// maxPool is max pooling over g's windows; the backward adds each output
// gradient to the element its window picked.
func maxPool(x *Node, g *tensor.ConvGeom) *Node {
	val, argmax := tensor.MaxPoolForward(x.Val, g)
	n := x.Val.Dim(0)
	imgIn := g.InC * g.InH * g.InW
	imgOut := g.InC * g.OutH * g.OutW
	out := newPooledNode(val, []*Node{x}, nil)
	out.backward = func() {
		if x.requiresGrad {
			xg := x.ensureGrad()
			for b := 0; b < n; b++ {
				gb := out.Grad.Data[b*imgOut : (b+1)*imgOut]
				xb := xg.Data[b*imgIn : (b+1)*imgIn]
				ab := argmax[b*imgOut : (b+1)*imgOut]
				for i, idx := range ab {
					if idx >= 0 {
						xb[idx] += gb[i]
					}
				}
			}
		}
	}
	return out
}

// AvgPool2d applies average pooling.
func AvgPool2d(x *Node, kernel, stride, pad int) *Node {
	g := poolGeom(x, kernel, kernel, stride, pad)
	val := tensor.AvgPoolForward(x.Val, g)
	n := x.Val.Dim(0)
	out := newPooledNode(val, []*Node{x}, nil)
	out.backward = func() {
		if !x.requiresGrad {
			return
		}
		xg := x.ensureGrad()
		imgIn := g.InC * g.InH * g.InW
		imgOut := g.InC * g.OutH * g.OutW
		for b := 0; b < n; b++ {
			gb := out.Grad.Data[b*imgOut : (b+1)*imgOut]
			xb := xg.Data[b*imgIn : (b+1)*imgIn]
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for oh := 0; oh < g.OutH; oh++ {
					for ow := 0; ow < g.OutW; ow++ {
						// The in-bounds window size, as the forward counted it.
						kh0, kh1, kw0, kw1 := g.Taps(oh, ow)
						count := (kh1 - kh0) * (kw1 - kw0)
						if count == 0 {
							continue
						}
						gv := gb[(c*g.OutH+oh)*g.OutW+ow] / float32(count)
						for kh := kh0; kh < kh1; kh++ {
							ih := oh*g.StrideH - g.PadH + kh
							for kw := kw0; kw < kw1; kw++ {
								xb[chanBase+ih*g.InW+ow*g.StrideW-g.PadW+kw] += gv
							}
						}
					}
				}
			}
		}
	}
	return out
}

// GlobalAvgPool reduces [N, C, H, W] to [N, C] by spatial averaging.
func GlobalAvgPool(x *Node) *Node {
	xs := x.Val.Shape()
	if len(xs) != 4 {
		panic(fmt.Sprintf("autodiff: GlobalAvgPool needs 4-D input, got %v", xs))
	}
	n, c, hw := xs[0], xs[1], xs[2]*xs[3]
	val := tensor.Get(n, c)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			var s float64
			for i := 0; i < hw; i++ {
				s += float64(x.Val.Data[base+i])
			}
			val.Data[b*c+ch] = float32(s / float64(hw))
		}
	}
	out := newPooledNode(val, []*Node{x}, nil)
	out.backward = func() {
		if x.requiresGrad {
			xg := x.ensureGrad()
			inv := 1 / float32(hw)
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					gv := out.Grad.Data[b*c+ch] * inv
					base := (b*c + ch) * hw
					for i := 0; i < hw; i++ {
						xg.Data[base+i] += gv
					}
				}
			}
		}
	}
	return out
}

// BatchNorm2d computes act(norm(x) + residual) over [N, C, H, W] per channel
// as one node with one buffer; residual (x's shape, nil for none) gets its
// gradient before x (see the package comment).
//
// In training mode it uses batch statistics and updates runningMean/
// runningVar in place with the given momentum. In eval mode it uses the
// running statistics (no stat gradients). gamma and beta are [C] nodes.
// Stats, normalize+affine+activation, and the full backward run on the fused
// tensor kernels. Only the per-channel mean and 1/σ are retained (pooled
// node scratch): the backward rewrites the node's own gradient through the
// activation first, then recomputes x̂ from x, which the graph keeps alive
// anyway.
func BatchNorm2d(x, gamma, beta *Node, runningMean, runningVar *tensor.Tensor, momentum, eps float32, training bool, act tensor.Act, residual *Node) *Node {
	xs := x.Val.Shape()
	if len(xs) != 4 {
		panic(fmt.Sprintf("autodiff: BatchNorm2d needs 4-D input, got %v", xs))
	}
	parents, r := []*Node{x, gamma, beta}, []float32(nil)
	if residual != nil {
		if !residual.Val.SameShape(x.Val) {
			panic(fmt.Sprintf("autodiff: BatchNorm2d residual shape %v, want %v", residual.Val.Shape(), xs))
		}
		parents, r = append(parents, residual), residual.Val.Data
	}
	n, c, hw := xs[0], xs[1], xs[2]*xs[3]
	if gamma.Val.Numel() != c || beta.Val.Numel() != c {
		panic(fmt.Sprintf("autodiff: BatchNorm2d gamma/beta size %d/%d, want %d", gamma.Val.Numel(), beta.Val.Numel(), c))
	}

	mean := tensor.Get(c)   // registered as node scratch below
	invStd := tensor.Get(c) // registered as node scratch below
	if training {
		varv := tensor.Get(c)
		tensor.BatchNormStatsInto(mean.Data, varv.Data, x.Val.Data, n, c, hw)
		// Update running stats (biased variance for normalisation, unbiased
		// for the running estimate — matching PyTorch to keep eval-mode
		// parity).
		m := float64(n * hw)
		unbias := m / (m - 1)
		if m <= 1 {
			unbias = 1
		}
		for ch := 0; ch < c; ch++ {
			runningMean.Data[ch] = (1-momentum)*runningMean.Data[ch] + momentum*mean.Data[ch]
			runningVar.Data[ch] = (1-momentum)*runningVar.Data[ch] + momentum*float32(float64(varv.Data[ch])*unbias)
			invStd.Data[ch] = float32(1 / math.Sqrt(float64(varv.Data[ch])+float64(eps)))
		}
		tensor.Put(varv)
	} else {
		for ch := 0; ch < c; ch++ {
			mean.Data[ch] = runningMean.Data[ch]
			invStd.Data[ch] = float32(1 / math.Sqrt(float64(runningVar.Data[ch])+float64(eps)))
		}
	}

	val := tensor.Get(xs...)
	tensor.BatchNormFwdInto(val.Data, x.Val.Data, mean.Data, invStd.Data, gamma.Val.Data, beta.Val.Data, r, n, c, hw, act)
	out := newPooledNode(val, parents, nil)
	out.scratch = []*tensor.Tensor{mean, invStd}
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data)
		if residual != nil {
			residual.accumulate(out.Grad)
		}
		var dx, dg, db []float32
		if x.requiresGrad {
			dx = x.ensureGrad().Data
		}
		if gamma.requiresGrad {
			dg = gamma.ensureGrad().Data
		}
		if beta.requiresGrad {
			db = beta.ensureGrad().Data
		}
		tensor.BatchNormBwdInto(dx, dg, db, out.Grad.Data, x.Val.Data, mean.Data, invStd.Data, gamma.Val.Data, n, c, hw, training)
	}
	return out
}
