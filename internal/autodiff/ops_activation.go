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
	keep, scratch := actScratch(act, val)
	act.Apply(val.Data, keep)
	out := newPooledNode(val, []*Node{a}, nil)
	out.scratch = scratch
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data, keep)
		out.handGrad(a)
	}
	return out
}

// actScratch allocates what act's Apply over val retains for its Grad —
// nothing when the derivative is a function of the output alone, GELU's
// pre-activation and inner tanh otherwise — as pooled buffers the caller
// registers as node scratch.
func actScratch(act tensor.Act, val *tensor.Tensor) (tensor.ActScratch, []*tensor.Tensor) {
	if !act.NeedsScratch() {
		return tensor.ActScratch{}, nil
	}
	pre, t := tensor.Get(val.Shape()...), tensor.Get(val.Shape()...)
	return tensor.ActScratch{Pre: pre.Data, T: t.Data}, []*tensor.Tensor{pre, t}
}

// Dropout zeroes elements with probability p and scales survivors by
// 1/(1-p) (inverted dropout). When training is false it is the identity.
func Dropout(a *Node, p float32, rng *tensor.RNG, training bool) *Node {
	if !training || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("autodiff: Dropout p must be < 1")
	}
	keep := 1 - p
	scale := 1 / keep
	// The mask stores 0 for dropped elements and 1/(1-p) for survivors, so
	// it doubles as the backward multiplier and comes from the pool
	// (registered as node scratch) instead of a fresh []bool per forward.
	mask := tensor.GetZero(a.Val.Shape()...)
	val := tensor.GetZero(a.Val.Shape()...)
	for i, v := range a.Val.Data {
		if rng.Float32() < keep {
			mask.Data[i] = scale
			val.Data[i] = v * scale
		}
	}
	out := newPooledNode(val, []*Node{a}, nil)
	out.scratch = []*tensor.Tensor{mask}
	out.backward = func() {
		if a.requiresGrad {
			tensor.AddMulInto(a.ensureGrad(), out.Grad, mask)
		}
	}
	return out
}

// SoftmaxCrossEntropy computes mean cross-entropy between logits [N, C] and
// integer labels, fused for numerical stability. Returns a scalar node.
// Both passes run on the fused tensor kernels (Exp32 row softmax, one-hot
// subtraction in the backward); probs live in pooled node scratch.
func SoftmaxCrossEntropy(logits *Node, labels []int) *Node {
	n, c := logits.Val.Dim(0), logits.Val.Dim(1)
	checkLabels(labels, n, c)
	probs := tensor.Get(n, c) // registered as node scratch below
	loss := tensor.SoftmaxXentFwdInto(probs.Data, logits.Val.Data, labels, n, c)
	val := tensor.FromSlice([]float32{float32(loss / float64(n))}, 1)
	out := newNode(val, []*Node{logits}, nil)
	out.scratch = []*tensor.Tensor{probs}
	out.backward = func() {
		if logits.requiresGrad {
			scale := out.Grad.Data[0] / float32(n)
			tensor.SoftmaxXentBwdInto(logits.ensureGrad().Data, probs.Data, labels, n, c, scale)
		}
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

// SoftmaxLastDim applies softmax along the last axis of a 2-D node
// [rows, cols]; used inside attention. Forward and backward run on the
// fused row-softmax kernels.
func SoftmaxLastDim(a *Node) *Node {
	rows, cols := a.Val.Dim(0), a.Val.Dim(1)
	val := tensor.Get(rows, cols)
	tensor.SoftmaxRowsInto(val.Data, a.Val.Data, rows, cols)
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			tensor.SoftmaxRowsBwdInto(a.ensureGrad().Data, val.Data, out.Grad.Data, rows, cols)
		}
	}
	return out
}
