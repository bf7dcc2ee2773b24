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

// Im2Col lowers one image x of shape [C, H, W] (flattened) into a matrix of
// shape [C*KH*KW, OutH*OutW] so convolution becomes a single MatMul.
// dst must be pre-sized; it is fully overwritten (zero padding included).
func Im2Col(dst *Tensor, x []float32, g *ConvGeom) {
	g.mustValid()
	rows := g.InC * g.KH * g.KW
	cols := g.OutH * g.OutW
	if dst.Numel() != rows*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst numel %d, want %d", dst.Numel(), rows*cols))
	}
	dd := dst.Data
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((c*g.KH+kh)*g.KW + kw) * cols
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					outBase := row + oh*g.OutW
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < g.OutW; ow++ {
							dd[outBase+ow] = 0
						}
						continue
					}
					inBase := chanBase + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							dd[outBase+ow] = 0
						} else {
							dd[outBase+ow] = x[inBase+iw]
						}
					}
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it accumulates the column matrix back
// into an image gradient of shape [C, H, W] (added into dx).
func Col2Im(dx []float32, cols *Tensor, g *ConvGeom) {
	g.mustValid()
	cd := cols.Data
	ncols := g.OutH * g.OutW
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((c*g.KH+kh)*g.KW + kw) * ncols
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						continue
					}
					inBase := chanBase + ih*g.InW
					outBase := row + oh*g.OutW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							continue
						}
						dx[inBase+iw] += cd[outBase+ow]
					}
				}
			}
		}
	}
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
