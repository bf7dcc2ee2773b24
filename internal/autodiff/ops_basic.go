package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// Add returns a + b (same shapes).
func Add(a, b *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.AddOut(val, a.Val, b.Val)
	out := newPooledNode(val, []*Node{a, b}, nil)
	out.backward = func() { out.handGrad(a, b) }
	return out
}

// AddReLU computes relu(a + b) as one node with one buffer — the tail of a
// residual block. The backward masks the node's own gradient in place by
// y > 0 (nobody reads it afterwards) and hands it on like Add does.
func AddReLU(a, b *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.AddOut(val, a.Val, b.Val)
	tensor.ActReLU.Apply(val.Data, tensor.ActScratch{})
	out := newPooledNode(val, []*Node{a, b}, nil)
	out.backward = func() {
		tensor.ActReLU.Grad(out.Grad.Data, val.Data, tensor.ActScratch{})
		out.handGrad(a, b)
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.SubOut(val, a.Val, b.Val)
	out := newPooledNode(val, []*Node{a, b}, nil)
	out.backward = func() {
		a.accumulate(out.Grad)
		if b.requiresGrad {
			tensor.AddScaledInto(b.ensureGrad(), -1, out.Grad)
		}
	}
	return out
}

// Mul returns the element-wise product a ⊙ b.
func Mul(a, b *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.MulOut(val, a.Val, b.Val)
	out := newPooledNode(val, []*Node{a, b}, nil)
	out.backward = func() {
		if a.requiresGrad {
			tensor.AddMulInto(a.ensureGrad(), out.Grad, b.Val)
		}
		if b.requiresGrad {
			tensor.AddMulInto(b.ensureGrad(), out.Grad, a.Val)
		}
	}
	return out
}

// Scale returns alpha * a.
func Scale(a *Node, alpha float32) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.ScaleOut(val, alpha, a.Val)
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			tensor.AddScaledInto(a.ensureGrad(), alpha, out.Grad)
		}
	}
	return out
}

// AddN sums any number of same-shaped nodes. Used to combine per-subnet
// losses into Amalgam's joint training objective (Algorithm 1).
func AddN(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("autodiff: AddN of nothing")
	}
	val := tensor.Get(nodes[0].Val.Shape()...)
	val.CopyFrom(nodes[0].Val)
	for _, n := range nodes[1:] {
		tensor.AddInto(val, n.Val)
	}
	parents := append([]*Node(nil), nodes...)
	out := newPooledNode(val, parents, nil)
	out.backward = func() { out.handGrad(parents...) }
	return out
}

// AddRowBias computes act(x + bias) for x [N, D] and bias [D] — the
// epilogue Linear runs in place inside its own node. Composed with MatMul
// it is the unfused referee of the equivalence tests: same kernels, same
// element order, one more graph node.
func AddRowBias(x, bias *Node, act tensor.Act) *Node {
	n, d := x.Val.Dim(0), x.Val.Dim(1)
	if bias.Val.Numel() != d {
		panic(fmt.Sprintf("autodiff: AddRowBias dims %v + %v", x.Val.Shape(), bias.Val.Shape()))
	}
	val := tensor.Get(x.Val.Shape()...)
	keep, scratch := actScratch(act, val)
	tensor.AddRowBiasInto(val.Data, x.Val.Data, bias.Val.Data, n, d, act, keep)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.scratch = scratch
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data, keep)
		if bias.requiresGrad {
			tensor.ColSumAddInto(bias.ensureGrad().Data, out.Grad.Data, n, d)
		}
		out.handGrad(x)
	}
	return out
}

// MatMul returns a × b for 2-D nodes.
func MatMul(a, b *Node) *Node {
	val := tensor.Get(a.Val.Dim(0), b.Val.Dim(1))
	tensor.MatMulInto(val, a.Val, b.Val)
	out := newPooledNode(val, []*Node{a, b}, nil)
	out.backward = func() {
		if a.requiresGrad {
			tmp := tensor.Get(a.Val.Shape()...)
			tensor.MatMulBTInto(tmp, out.Grad, b.Val) // dA = dY·Bᵀ
			a.accumulateOwned(tmp)
		}
		if b.requiresGrad {
			tmp := tensor.Get(b.Val.Shape()...)
			tensor.MatMulATInto(tmp, a.Val, out.Grad) // dB = Aᵀ·dY
			b.accumulateOwned(tmp)
		}
	}
	return out
}

// Reshape returns a view of a with a new shape.
func Reshape(a *Node, shape ...int) *Node {
	val := a.Val.Reshape(shape...)
	out := newNode(val, []*Node{a}, nil)
	out.backward = func() {
		// The same storage under a's shape; the old header is dropped, so
		// the buffer still has exactly one owner.
		g := out.Grad.Reshape(a.Val.Shape()...)
		out.Grad = nil
		a.accumulateOwned(g)
	}
	return out
}

// Flatten reshapes [N, ...] to [N, features].
func Flatten(a *Node) *Node {
	n := a.Val.Dim(0)
	return Reshape(a, n, -1)
}

// Detach returns a node with the same value but no gradient path to a.
// This is the mechanism behind Amalgam's original→decoy taps: decoy
// sub-networks may consume original activations without ever influencing
// the original parameters' gradients.
func Detach(a *Node) *Node {
	return Constant(a.Val)
}

// ConcatFeatures concatenates [N, D_i] nodes along the feature axis.
func ConcatFeatures(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("autodiff: ConcatFeatures of nothing")
	}
	n := nodes[0].Val.Dim(0)
	total := 0
	for _, nd := range nodes {
		if nd.Val.Dims() != 2 || nd.Val.Dim(0) != n {
			panic(fmt.Sprintf("autodiff: ConcatFeatures shape %v", nd.Val.Shape()))
		}
		total += nd.Val.Dim(1)
	}
	return concat(nodes, 1, n, total)
}

// ConcatChannels concatenates [N, C_i, H, W] nodes along the channel axis
// (DenseNet's core operation).
func ConcatChannels(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("autodiff: ConcatChannels of nothing")
	}
	sh := nodes[0].Val.Shape()
	n, h, w := sh[0], sh[2], sh[3]
	totalC := 0
	for _, nd := range nodes {
		s := nd.Val.Shape()
		if len(s) != 4 || s[0] != n || s[2] != h || s[3] != w {
			panic(fmt.Sprintf("autodiff: ConcatChannels shape %v vs %v", s, sh))
		}
		totalC += s[1]
	}
	return concat(nodes, h*w, n, totalC, h, w)
}

// concat is the one concatenation under ConcatFeatures and ConcatChannels:
// each node read as [outer, c_i·rest], with outer and c_i its first two
// axes, joined into [outer, Σc_i·rest] shaped shape. The backward adds each
// row of the gradient back into its node's.
func concat(nodes []*Node, rest int, shape ...int) *Node {
	outer, total := shape[0], shape[1]*rest
	val := tensor.Get(shape...)
	off := 0
	for _, nd := range nodes {
		w := nd.Val.Dim(1) * rest
		for r := 0; r < outer; r++ {
			copy(val.Data[r*total+off:][:w], nd.Val.Data[r*w:])
		}
		off += w
	}
	parents := append([]*Node(nil), nodes...)
	out := newPooledNode(val, parents, nil)
	out.backward = func() {
		off := 0
		for _, nd := range parents {
			w := nd.Val.Dim(1) * rest
			if nd.requiresGrad {
				g := nd.ensureGrad()
				for r := 0; r < outer; r++ {
					src := out.Grad.Data[r*total+off:][:w]
					dst := g.Data[r*w:][:w]
					for i, v := range src {
						dst[i] += v
					}
				}
			}
			off += w
		}
	}
	return out
}

// Mean returns the scalar mean of all elements.
func Mean(a *Node) *Node {
	val := tensor.FromSlice([]float32{float32(tensor.Mean(a.Val))}, 1)
	out := newNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			g := out.Grad.Data[0] / float32(a.Val.Numel())
			ag := a.ensureGrad()
			for i := range ag.Data {
				ag.Data[i] += g
			}
		}
	}
	return out
}

// Sum returns the scalar sum of all elements.
func Sum(a *Node) *Node {
	val := tensor.FromSlice([]float32{float32(tensor.Sum(a.Val))}, 1)
	out := newNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			g := out.Grad.Data[0]
			ag := a.ensureGrad()
			for i := range ag.Data {
				ag.Data[i] += g
			}
		}
	}
	return out
}

// MSE returns mean squared error between a and target (target is constant).
func MSE(a *Node, target *tensor.Tensor) *Node {
	diff := tensor.Sub(a.Val, target)
	var s float64
	for _, v := range diff.Data {
		s += float64(v) * float64(v)
	}
	val := tensor.FromSlice([]float32{float32(s / float64(diff.Numel()))}, 1)
	out := newNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			scale := 2 * out.Grad.Data[0] / float32(diff.Numel())
			ag := a.ensureGrad()
			for i := range ag.Data {
				ag.Data[i] += scale * diff.Data[i]
			}
		}
	}
	return out
}

// GatherCols selects columns idx (same for every row) from a [N, F] node,
// producing [N, len(idx)]. Backward scatter-adds. This op is the
// differentiable primitive under Amalgam's SkipConv2d and SkipEmbedding:
// the secret index subset is the gather pattern.
func GatherCols(a *Node, idx []int) *Node {
	n, f := a.Val.Dim(0), a.Val.Dim(1)
	k := len(idx)
	for _, j := range idx {
		if j < 0 || j >= f {
			panic(fmt.Sprintf("autodiff: GatherCols index %d out of range [0,%d)", j, f))
		}
	}
	val := tensor.Get(n, k)
	for r := 0; r < n; r++ {
		src := a.Val.Data[r*f : (r+1)*f]
		dst := val.Data[r*k : (r+1)*k]
		for i, j := range idx {
			dst[i] = src[j]
		}
	}
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			for r := 0; r < n; r++ {
				src := out.Grad.Data[r*k : (r+1)*k]
				dst := g.Data[r*f : (r+1)*f]
				for i, j := range idx {
					dst[j] += src[i]
				}
			}
		}
	}
	return out
}
