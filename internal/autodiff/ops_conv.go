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
	keep, scratch := actScratch(act, val)
	tensor.AddChanBiasInto(val.Data, x.Val.Data, bias.Val.Data, n, c, hw, act, keep)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.scratch = scratch
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data, keep)
		if bias.requiresGrad {
			tensor.ChanSumAddInto(bias.ensureGrad().Data, out.Grad.Data, n, c, hw)
		}
		out.handGrad(x)
	}
	return out
}

// Conv2d computes act(conv(x, w) + bias), a batched 2-D convolution.
//
//	x: [N, C, H, W]   w: [OC, C, KH, KW]   bias: [OC] or nil
//
// The implementation lowers each image with im2col and performs a single
// matrix multiplication per image, parallelised over the batch. Bias and
// activation run in place over the convolution's own output — one node, one
// buffer — and the backward turns out.Grad into the gradient of the bare
// convolution in place before anything reads it.
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

	val := tensor.Get(n, oc, g.OutH, g.OutW)
	// Streaming im2col: each image's column matrix lives only as long as
	// its own matmul — nothing is retained for the backward, which
	// re-lowers the image when it needs the columns again. Peak column
	// memory is one buffer per active worker instead of one per image
	// (PR 1/2 kept all n alive from forward through backward), and the
	// re-lowering is a pure copy pass, far cheaper than the dW matmul it
	// feeds.
	forEachImage(n, func(b int) {
		cols := tensor.Get(kdim, ncols)
		tensor.Im2Col(cols, x.Val.Data[b*imgIn:(b+1)*imgIn], g)
		// Raw matmul: w.Val viewed as [oc, kdim] and the image's output
		// slab as [oc, ncols], with no per-image view headers.
		tensor.MatMulRawInto(val.Data[b*imgOut:(b+1)*imgOut], w.Val.Data, cols.Data, oc, kdim, ncols)
		tensor.Put(cols)
	})
	parents := []*Node{x, w}
	keep, scratch := actScratch(act, val)
	if bias != nil {
		parents = append(parents, bias)
		tensor.AddChanBiasInto(val.Data, val.Data, bias.Val.Data, n, oc, ncols, act, keep)
	} else {
		act.Apply(val.Data, keep)
	}

	out := newPooledNode(val, parents, nil)
	out.scratch = scratch
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data, keep)
		if bias != nil && bias.requiresGrad {
			tensor.ChanSumAddInto(bias.ensureGrad().Data, out.Grad.Data, n, oc, ncols)
		}
		if w.requiresGrad {
			// dW = Σ_b dY_b · cols_bᵀ, streamed: the loop already runs
			// sequentially in ascending batch order for determinism
			// (parallelising the reduction would reorder float additions),
			// so one pooled column buffer re-lowered per image serves the
			// whole batch. Im2Col is a pure assignment from x, so the
			// recomputed columns are bit-identical to the forward's.
			wd := w.ensureGrad().Data // [oc, kdim] viewed flat
			cols := tensor.Get(kdim, ncols)
			tmp := tensor.Get(oc, kdim)
			for b := 0; b < n; b++ {
				tensor.Im2Col(cols, x.Val.Data[b*imgIn:(b+1)*imgIn], g)
				tensor.MatMulBTRawInto(tmp.Data, out.Grad.Data[b*imgOut:(b+1)*imgOut], cols.Data, oc, ncols, kdim)
				tensor.AddRawInto(wd, tmp.Data)
			}
			tensor.Put(tmp)
			tensor.Put(cols)
		}
		if x.requiresGrad {
			xg := x.ensureGrad()
			forEachImage(n, func(b int) {
				dcols := tensor.Get(kdim, ncols)
				tensor.MatMulATRawInto(dcols.Data, w.Val.Data, out.Grad.Data[b*imgOut:(b+1)*imgOut], kdim, oc, ncols)
				tensor.Col2Im(xg.Data[b*imgIn:(b+1)*imgIn], dcols, g)
				tensor.Put(dcols)
			})
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

// MaxPool2d applies max pooling with the given square kernel and stride.
func MaxPool2d(x *Node, kernel, stride, pad int) *Node {
	xs := x.Val.Shape()
	g := &tensor.ConvGeom{
		InC: xs[1], InH: xs[2], InW: xs[3],
		KH: kernel, KW: kernel, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	val, argmax := tensor.MaxPoolForward(x.Val, g)
	n := xs[0]
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
	xs := x.Val.Shape()
	g := &tensor.ConvGeom{
		InC: xs[1], InH: xs[2], InW: xs[3],
		KH: kernel, KW: kernel, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	val := tensor.AvgPoolForward(x.Val, g)
	n := xs[0]
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

// BatchNorm2d computes act(norm(x)) over [N, C, H, W] per channel as one
// node with one buffer.
//
// In training mode it uses batch statistics and updates runningMean/
// runningVar in place with the given momentum. In eval mode it uses the
// running statistics (no stat gradients). gamma and beta are [C] nodes.
// Stats, normalize+affine+activation, and the full backward run on the fused
// tensor kernels. Only the per-channel mean and 1/σ are retained (pooled
// node scratch): the backward rewrites the node's own gradient through the
// activation first, then recomputes x̂ from x, which the graph keeps alive
// anyway.
func BatchNorm2d(x, gamma, beta *Node, runningMean, runningVar *tensor.Tensor, momentum, eps float32, training bool, act tensor.Act) *Node {
	xs := x.Val.Shape()
	if len(xs) != 4 {
		panic(fmt.Sprintf("autodiff: BatchNorm2d needs 4-D input, got %v", xs))
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
	keep, scratch := actScratch(act, val)
	tensor.BatchNormFwdInto(val.Data, x.Val.Data, mean.Data, invStd.Data, gamma.Val.Data, beta.Val.Data, n, c, hw, act, keep)
	out := newPooledNode(val, []*Node{x, gamma, beta}, nil)
	out.scratch = append(scratch, mean, invStd)
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data, keep)
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
