package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// Activate returns act(a) element-wise as a node of its own: the value is a
// copy of a's with act applied in place, and the backward rewrites the
// node's own gradient in place from the output and hands it to a — no
// zero-fill, no read-add-write, no second buffer. Every other op that takes
// an Act ends in the same two calls over its own output.
func Activate(a *Node, act tensor.Act) *Node {
	val := tensor.Get(a.Val.Shape()...)
	val.CopyFrom(a.Val)
	act.Apply(val.Data)
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data)
		out.handGrad(a)
	}
	return out
}

// Dropout zeroes elements of a with probability p and scales survivors by
// 1/(1-p) (inverted dropout). When training is false, or p is 0, it is the
// identity. With a residual r (nil for none; a's element count in any
// shape) the node is Add(r, Dropout(a)) in one buffer shaped as r: each
// element is r + mask·a, the mask drawn before the add in the same order,
// so the draws, the value and both gradients are the composition's, and
// the mask is still the only scratch. At the identity there is no mask to
// fold the add into, and the node is that Add itself: a caller that can
// should fold it into a's producer instead (Linear's residual).
func Dropout(a *Node, p float32, rng *tensor.RNG, training bool, r *Node) *Node {
	if r != nil && r.Val.Numel() != a.Val.Numel() {
		panic(fmt.Sprintf("autodiff: Dropout residual %v for %v", r.Val.Shape(), a.Val.Shape()))
	}
	if !training || p <= 0 {
		if r == nil {
			return a
		}
		return Add(r, Reshape(a, r.Val.Shape()...))
	}
	if p >= 1 {
		panic("autodiff: Dropout p must be < 1")
	}
	keep := 1 - p
	scale := 1 / keep
	parents, shape, rd := []*Node{a}, a.Val.Shape(), []float32(nil)
	if r != nil {
		parents, shape, rd = append(parents, r), r.Val.Shape(), r.Val.Data
	}
	// The mask stores 0 for dropped elements and 1/(1-p) for survivors, so
	// it doubles as the backward multiplier and comes from the pool
	// (registered as node scratch) instead of a fresh []bool per forward.
	mask := tensor.GetZero(a.Val.Shape()...)
	val := tensor.GetZero(shape...)
	for i, v := range a.Val.Data {
		if rng.Float32() < keep {
			mask.Data[i] = scale
			val.Data[i] = v * scale
		}
		if rd != nil {
			val.Data[i] = rd[i] + val.Data[i]
		}
	}
	out := newPooledNode(val, parents, nil)
	out.scratch = []*tensor.Tensor{mask}
	out.backward = func() {
		if r != nil {
			r.accumulate(out.Grad)
		}
		if a.requiresGrad {
			g := out.Grad
			if r != nil {
				g = g.Reshape(a.Val.Shape()...) // r's shape read as a's
			}
			tensor.AddMulInto(a.ensureGrad(), g, mask)
		}
	}
	return out
}

// SoftmaxCrossEntropy computes mean cross-entropy between logits [N, C] and
// integer labels, fused for numerical stability. Returns a scalar node.
// Both passes run on the fused tensor kernels (Exp32 row softmax, one-hot
// subtraction in the backward). The probabilities live in pooled node
// scratch until the backward turns them in place into the logits' gradient
// and hands the buffer over.
func SoftmaxCrossEntropy(logits *Node, labels []int) *Node {
	n, c := logits.Val.Dim(0), logits.Val.Dim(1)
	checkLabels(labels, n, c)
	probs := tensor.Get(n, c) // registered as node scratch below
	loss := tensor.SoftmaxXentFwdInto(probs.Data, logits.Val.Data, labels, n, c)
	val := tensor.FromSlice([]float32{float32(loss / float64(n))}, 1)
	out := newNode(val, []*Node{logits}, nil)
	out.scratch = []*tensor.Tensor{probs}
	out.backward = func() {
		tensor.SoftmaxXentBwdInPlace(probs.Data, labels, n, c, out.Grad.Data[0]/float32(n))
		out.scratch = nil
		logits.accumulateOwned(probs)
	}
	return out
}

// checkLabels panics unless labels holds one class index in [0, c) per row.
func checkLabels(labels []int, n, c int) {
	if len(labels) != n {
		panic(fmt.Sprintf("autodiff: %d labels for %d rows", len(labels), n))
	}
	for _, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("autodiff: label %d out of range [0,%d)", y, c))
		}
	}
}
