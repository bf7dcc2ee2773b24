package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// swapMid writes src, an [outer, a, b, run] array, into dst as
// [outer, b, a, run]: a copy, or with acc an element-wise dst += src. It is
// the one axis swap under the head split and merge, Transpose12 (run 1) and
// Conv2d's block reorders (outer 1). A one-float run is moved by index: a
// copy call or a slice header per float would cost more than the float.
func swapMid(dst, src []float32, outer, a, b, run int, acc bool) {
	n := a * b * run
	for o := 0; o < outer*n; o += n {
		s, d := src[o:o+n], dst[o:o+n]
		for i := 0; i < a; i++ {
			for j := 0; j < b; j++ {
				si, di := (i*b+j)*run, (j*a+i)*run
				switch {
				case run == 1 && acc:
					d[di] += s[si]
				case run == 1:
					d[di] = s[si]
				case acc:
					dd := d[di : di+run]
					for k, v := range s[si : si+run] {
						dd[k] += v
					}
				default:
					copy(d[di:di+run], s[si:])
				}
			}
		}
	}
}

// swapMidNode is swapMid as a graph node: x read as [outer, a, b, run], the
// value shaped shape. Its backward is the same swap with a and b exchanged,
// added into x's gradient.
func swapMidNode(x *Node, shape []int, outer, a, b, run int) *Node {
	val := tensor.Get(shape...)
	swapMid(val.Data, x.Val.Data, outer, a, b, run, false)
	out := newPooledNode(val, []*Node{x}, nil)
	out.backward = func() {
		if x.requiresGrad {
			swapMid(x.ensureGrad().Data, out.Grad.Data, outer, b, a, run, true)
		}
	}
	return out
}

// SplitHeads rearranges [N, T, D] into [N*H, T, D/H] for multi-head
// attention (permuting (N,T,H,hd) → (N,H,T,hd)).
func SplitHeads(a *Node, heads int) *Node {
	as := a.Val.Shape()
	if len(as) != 3 || as[2]%heads != 0 {
		panic(fmt.Sprintf("autodiff: SplitHeads shape %v heads %d", as, heads))
	}
	n, t, hd := as[0], as[1], as[2]/heads
	return swapMidNode(a, []int{n * heads, t, hd}, n, t, heads, hd)
}

// MergeHeads is the inverse of SplitHeads: [N*H, T, hd] → [N, T, H*hd].
func MergeHeads(a *Node, heads int) *Node {
	as := a.Val.Shape()
	if len(as) != 3 || as[0]%heads != 0 {
		panic(fmt.Sprintf("autodiff: MergeHeads shape %v heads %d", as, heads))
	}
	n, t, hd := as[0]/heads, as[1], as[2]
	return swapMidNode(a, []int{n, t, heads * hd}, n, heads, t, hd)
}
