package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// ChannelMeanMax builds CBAM's spatial-attention input: for each pixel it
// emits the mean and max across channels, producing [N, 2, H, W].
func ChannelMeanMax(x *Node) *Node {
	xs := x.Val.Shape()
	if len(xs) != 4 {
		panic(fmt.Sprintf("autodiff: ChannelMeanMax needs 4-D input, got %v", xs))
	}
	n, c, hw := xs[0], xs[1], xs[2]*xs[3]
	val := tensor.Get(n, 2, xs[2], xs[3])
	arg := make([]int, n*hw) // channel index of max per pixel
	for b := 0; b < n; b++ {
		for i := 0; i < hw; i++ {
			var sum float32
			best := x.Val.Data[(b*c)*hw+i]
			bi := 0
			for ch := 0; ch < c; ch++ {
				v := x.Val.Data[(b*c+ch)*hw+i]
				sum += v
				if v > best {
					best, bi = v, ch
				}
			}
			val.Data[(b*2)*hw+i] = sum / float32(c)
			val.Data[(b*2+1)*hw+i] = best
			arg[b*hw+i] = bi
		}
	}
	out := newPooledNode(val, []*Node{x}, nil)
	out.backward = func() {
		if x.requiresGrad {
			xg := x.ensureGrad()
			inv := 1 / float32(c)
			for b := 0; b < n; b++ {
				for i := 0; i < hw; i++ {
					gMean := out.Grad.Data[(b*2)*hw+i] * inv
					for ch := 0; ch < c; ch++ {
						xg.Data[(b*c+ch)*hw+i] += gMean
					}
					gMax := out.Grad.Data[(b*2+1)*hw+i]
					xg.Data[(b*c+arg[b*hw+i])*hw+i] += gMax
				}
			}
		}
	}
	return out
}
