package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
type ConvGeom struct {
	InC, InH, InW int // input channels / spatial size
	KH, KW        int // kernel size
	StrideH       int
	StrideW       int
	PadH, PadW    int
	OutH, OutW    int // derived; filled by Validate
	outHWComputed bool
}

// Validate derives the output spatial size and checks invariants.
func (g *ConvGeom) Validate() error {
	if g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("tensor: conv stride must be positive, got (%d,%d)", g.StrideH, g.StrideW)
	}
	if g.KH <= 0 || g.KW <= 0 || g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive dimension: %+v", *g)
	}
	oh := (g.InH+2*g.PadH-g.KH)/g.StrideH + 1
	ow := (g.InW+2*g.PadW-g.KW)/g.StrideW + 1
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: conv kernel %dx%d does not fit input %dx%d (pad %d,%d)", g.KH, g.KW, g.InH, g.InW, g.PadH, g.PadW)
	}
	g.OutH, g.OutW = oh, ow
	g.outHWComputed = true
	return nil
}

func (g *ConvGeom) mustValid() {
	if !g.outHWComputed {
		if err := g.Validate(); err != nil {
			panic(err)
		}
	}
}

// Taps returns the part of the kernel window at output position (oh, ow)
// that lies inside the input: kernel rows [kh0, kh1) and columns
// [kw0, kw1), empty when the window is all padding. Tap (kh, kw) reads
// input (oh*StrideH-PadH+kh, ow*StrideW-PadW+kw); a sliding-window loop
// over these ranges visits the in-bounds taps in kernel order and needs no
// per-tap bounds test.
func (g *ConvGeom) Taps(oh, ow int) (kh0, kh1, kw0, kw1 int) {
	ih, iw := oh*g.StrideH-g.PadH, ow*g.StrideW-g.PadW // what tap (0, 0) reads
	kh0, kw0 = max(0, -ih), max(0, -iw)
	return kh0, max(kh0, min(g.KH, g.InH-ih)), kw0, max(kw0, min(g.KW, g.InW-iw))
}

// owRange returns the output columns [ow0, ow1) at which kernel column kw
// reads inside the input row: 0 ≤ ow·StrideW − PadW + kw < InW.
func (g *ConvGeom) owRange(kw int) (ow0, ow1 int) {
	if lo := g.PadW - kw; lo > 0 {
		ow0 = min(g.OutW, (lo+g.StrideW-1)/g.StrideW)
	}
	if hi := g.InW - 1 + g.PadW - kw; hi >= 0 {
		ow1 = min(g.OutW, hi/g.StrideW+1)
	}
	return ow0, max(ow0, ow1)
}

// lowerDims checks a buffer of numel floats against the lowering of the
// images in x ([C, H, W] each, back to back) and returns how many there are
// and the lowered matrix's two per-image dimensions.
func (g *ConvGeom) lowerDims(op string, numel int, x []float32) (nb, kdim, ncols int) {
	g.mustValid()
	nb, kdim, ncols = len(x)/(g.InC*g.InH*g.InW), g.InC*g.KH*g.KW, g.OutH*g.OutW
	if numel != nb*kdim*ncols || len(x) != nb*g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: %s buffer numel %d for %d floats of input, want %d", op, numel, len(x), nb*kdim*ncols))
	}
	return nb, kdim, ncols
}

// Im2Col lowers the images in x (one or a block of several) into a matrix
// of shape [C*KH*KW, nb*OutH*OutW], image b in columns [b, b+1)·OutH·OutW,
// so convolving the block becomes a single MatMul. dst must be pre-sized; it
// is fully overwritten (zero padding included).
func Im2Col(dst *Tensor, x []float32, g *ConvGeom) {
	nb, _, ncols := g.lowerDims("Im2Col", dst.Numel(), x)
	dd, plane := dst.Data, g.InH*g.InW
	parallelFor(nb*g.InC, 1, func(u0, u1 int) {
		for u := u0; u < u1; u++ { // channel plane u = b*InC + c of the block
			b, c := u/g.InC, u%g.InC
			xc := x[u*plane : (u+1)*plane]
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					ow0, ow1 := g.owRange(kw)
					row := dd[(((c*g.KH+kh)*g.KW+kw)*nb+b)*ncols:][:ncols]
					for oh := 0; oh < g.OutH; oh++ {
						d := row[oh*g.OutW : (oh+1)*g.OutW]
						ih, lo, hi := oh*g.StrideH-g.PadH+kh, ow0, ow1
						if ih < 0 || ih >= g.InH {
							lo, hi = 0, 0
						}
						zeroFloats(d[:lo])
						zeroFloats(d[hi:])
						if hi == lo {
							continue
						}
						src := xc[ih*g.InW+lo*g.StrideW-g.PadW+kw:]
						if g.StrideW == 1 {
							copy(d[lo:hi], src)
							continue
						}
						for i := range d[lo:hi] {
							d[lo+i] = src[i*g.StrideW]
						}
					}
				}
			}
		}
	})
}

// Im2Row is the transposed lowering, [nb*OutH*OutW, C*KH*KW]: one row per
// output position holding its receptive field. It is the right-hand operand
// of the weight gradient dW[OC, C*KH*KW] += dY[OC, positions] × rows, whose
// inner dimension then runs over (image, position) in ascending order.
func Im2Row(dst *Tensor, x []float32, g *ConvGeom) {
	nb, kdim, _ := g.lowerDims("Im2Row", dst.Numel(), x)
	dd, plane := dst.Data, g.InH*g.InW
	parallelFor(nb*g.OutH, 1, func(u0, u1 int) {
		for u := u0; u < u1; u++ { // output row u = b*OutH + oh of the block
			xb, oh := x[u/g.OutH*g.InC*plane:], u%g.OutH
			for ow := 0; ow < g.OutW; ow++ {
				d := dd[(u*g.OutW+ow)*kdim:][:kdim]
				kh0, kh1, kw0, kw1 := g.Taps(oh, ow)
				if (kh1-kh0)*(kw1-kw0) < g.KH*g.KW {
					zeroFloats(d) // the taps that fall into padding
					if kw0 == kw1 {
						continue
					}
				}
				at := (oh*g.StrideH-g.PadH)*g.InW + ow*g.StrideW - g.PadW // what tap (0, 0) reads
				for c := 0; c < g.InC; c++ {
					for kh := kh0; kh < kh1; kh++ {
						t := (c*g.KH+kh)*g.KW + kw0
						src := xb[c*plane+kh*g.InW+at+kw0:][:kw1-kw0]
						for i, v := range src {
							d[t+i] = v
						}
					}
				}
			}
		}
	})
}

// Col2Im is the adjoint of Im2Col: it accumulates the column matrix of a
// block back into its image gradients [nb, C, H, W] (added into dx).
func Col2Im(dx []float32, cols *Tensor, g *ConvGeom) {
	nb, _, ncols := g.lowerDims("Col2Im", cols.Numel(), dx)
	cd, plane := cols.Data, g.InH*g.InW
	parallelFor(nb*g.InC, 1, func(u0, u1 int) {
		for u := u0; u < u1; u++ {
			b, c := u/g.InC, u%g.InC
			dxc := dx[u*plane : (u+1)*plane]
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					ow0, ow1 := g.owRange(kw)
					row := cd[(((c*g.KH+kh)*g.KW+kw)*nb+b)*ncols:][:ncols]
					for oh := 0; oh < g.OutH; oh++ {
						ih := oh*g.StrideH - g.PadH + kh
						if ih < 0 || ih >= g.InH || ow0 == ow1 {
							continue
						}
						src := row[oh*g.OutW+ow0 : oh*g.OutW+ow1]
						d := dxc[ih*g.InW+ow0*g.StrideW-g.PadW+kw:]
						if g.StrideW == 1 {
							d = d[:len(src)]
							for i, v := range src {
								d[i] += v
							}
							continue
						}
						for i, v := range src {
							d[i*g.StrideW] += v
						}
					}
				}
			}
		}
	})
}

// MaxPoolForward computes max pooling for a batch input [N, C, H, W] and
// records the argmax flat index (within each image) for the backward pass.
func MaxPoolForward(x *Tensor, g *ConvGeom) (out *Tensor, argmax []int32) {
	g.mustValid()
	n := x.Dim(0)
	imgIn := g.InC * g.InH * g.InW
	imgOut := g.InC * g.OutH * g.OutW
	// Pooled: every element is written below, and autodiff marks the
	// wrapping node as pool-owned so Release recycles it.
	out = Get(n, g.InC, g.OutH, g.OutW)
	argmax = make([]int32, n*imgOut)
	parallelFor(n, 1, func(n0, n1 int) {
		for b := n0; b < n1; b++ {
			xb := x.Data[b*imgIn : (b+1)*imgIn]
			ob := out.Data[b*imgOut : (b+1)*imgOut]
			ab := argmax[b*imgOut : (b+1)*imgOut]
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for oh := 0; oh < g.OutH; oh++ {
					for ow := 0; ow < g.OutW; ow++ {
						best := float32(0)
						bestIdx := -1
						kh0, kh1, kw0, kw1 := g.Taps(oh, ow)
						for kh := kh0; kh < kh1; kh++ {
							ih := oh*g.StrideH - g.PadH + kh
							for kw := kw0; kw < kw1; kw++ {
								iw := ow*g.StrideW - g.PadW + kw
								idx := chanBase + ih*g.InW + iw
								if v := xb[idx]; bestIdx < 0 || v > best {
									best, bestIdx = v, idx
								}
							}
						}
						o := (c*g.OutH+oh)*g.OutW + ow
						ob[o] = best
						ab[o] = int32(bestIdx)
					}
				}
			}
		}
	})
	return out, argmax
}

// AvgPoolForward computes average pooling (count excludes padding, matching
// PyTorch's count_include_pad=False default behaviour for our use).
func AvgPoolForward(x *Tensor, g *ConvGeom) *Tensor {
	g.mustValid()
	n := x.Dim(0)
	imgIn := g.InC * g.InH * g.InW
	imgOut := g.InC * g.OutH * g.OutW
	// GetZero: windows that fall entirely into padding are skipped below
	// and must read as zero.
	out := GetZero(n, g.InC, g.OutH, g.OutW)
	parallelFor(n, 1, func(n0, n1 int) {
		for b := n0; b < n1; b++ {
			xb := x.Data[b*imgIn : (b+1)*imgIn]
			ob := out.Data[b*imgOut : (b+1)*imgOut]
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for oh := 0; oh < g.OutH; oh++ {
					for ow := 0; ow < g.OutW; ow++ {
						var sum float32
						kh0, kh1, kw0, kw1 := g.Taps(oh, ow)
						for kh := kh0; kh < kh1; kh++ {
							ih := oh*g.StrideH - g.PadH + kh
							for kw := kw0; kw < kw1; kw++ {
								sum += xb[chanBase+ih*g.InW+ow*g.StrideW-g.PadW+kw]
							}
						}
						if count := (kh1 - kh0) * (kw1 - kw0); count > 0 {
							ob[(c*g.OutH+oh)*g.OutW+ow] = sum / float32(count)
						}
					}
				}
			}
		}
	})
	return out
}
