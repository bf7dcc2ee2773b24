package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// DepthwiseConv2d convolves each input channel with its own single filter:
// x [N, C, H, W], w [C, KH, KW] → [N, C, OH, OW]. MobileNetV2's inverted
// residual blocks are built from this plus 1×1 convolutions.
func DepthwiseConv2d(x, w *Node, stride, pad int) *Node {
	xs, ws := x.Val.Shape(), w.Val.Shape()
	if len(xs) != 4 || len(ws) != 3 || ws[0] != xs[1] {
		panic(fmt.Sprintf("autodiff: DepthwiseConv2d shapes x%v w%v", xs, ws))
	}
	n, c := xs[0], xs[1]
	g := &tensor.ConvGeom{
		InC: 1, InH: xs[2], InW: xs[3],
		KH: ws[1], KW: ws[2],
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	kh, kw := ws[1], ws[2]
	inHW := xs[2] * xs[3]
	outHW := g.OutH * g.OutW
	val := tensor.Get(n, c, g.OutH, g.OutW)
	forEachImage(n*c, func(bc int) {
		ch := bc % c
		xBase := bc * inHW
		oBase := bc * outHW
		wBase := ch * kh * kw
		for oh := 0; oh < g.OutH; oh++ {
			for ow := 0; ow < g.OutW; ow++ {
				var s float32
				kh0, kh1, kw0, kw1 := g.Taps(oh, ow)
				for dkh := kh0; dkh < kh1; dkh++ {
					ih := oh*stride - pad + dkh
					for dkw := kw0; dkw < kw1; dkw++ {
						iw := ow*stride - pad + dkw
						s += x.Val.Data[xBase+ih*xs[3]+iw] * w.Val.Data[wBase+dkh*kw+dkw]
					}
				}
				val.Data[oBase+oh*g.OutW+ow] = s
			}
		}
	})
	out := newPooledNode(val, []*Node{x, w}, nil)
	out.backward = func() {
		if x.requiresGrad {
			xg := x.ensureGrad()
			forEachImage(n*c, func(bc int) {
				ch := bc % c
				xBase := bc * inHW
				oBase := bc * outHW
				wBase := ch * kh * kw
				for oh := 0; oh < g.OutH; oh++ {
					for ow := 0; ow < g.OutW; ow++ {
						gv := out.Grad.Data[oBase+oh*g.OutW+ow]
						if gv == 0 {
							continue
						}
						kh0, kh1, kw0, kw1 := g.Taps(oh, ow)
						for dkh := kh0; dkh < kh1; dkh++ {
							ih := oh*stride - pad + dkh
							for dkw := kw0; dkw < kw1; dkw++ {
								iw := ow*stride - pad + dkw
								xg.Data[xBase+ih*xs[3]+iw] += gv * w.Val.Data[wBase+dkh*kw+dkw]
							}
						}
					}
				}
			})
		}
		if w.requiresGrad {
			// Sequential over batch for deterministic accumulation.
			wg := w.ensureGrad()
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					xBase := (b*c + ch) * inHW
					oBase := (b*c + ch) * outHW
					wBase := ch * kh * kw
					for oh := 0; oh < g.OutH; oh++ {
						for ow := 0; ow < g.OutW; ow++ {
							gv := out.Grad.Data[oBase+oh*g.OutW+ow]
							if gv == 0 {
								continue
							}
							kh0, kh1, kw0, kw1 := g.Taps(oh, ow)
							for dkh := kh0; dkh < kh1; dkh++ {
								ih := oh*stride - pad + dkh
								for dkw := kw0; dkw < kw1; dkw++ {
									iw := ow*stride - pad + dkw
									wg.Data[wBase+dkh*kw+dkw] += gv * x.Val.Data[xBase+ih*xs[3]+iw]
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}
