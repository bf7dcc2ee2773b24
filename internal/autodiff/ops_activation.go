package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// ReLU returns max(0, a) element-wise.
func ReLU(a *Node) *Node { return clamp(a, tensor.ActReLU) }

// ReLU6 returns min(max(0, a), 6), MobileNet's activation.
func ReLU6(a *Node) *Node { return clamp(a, tensor.ActReLU6) }

// clamp is the standalone ReLU-family node. Its backward masks the node's
// own gradient in place from the output and hands it to a: no zero-fill,
// no read-add-write, no second buffer.
func clamp(a *Node, act tensor.Act) *Node {
	val := tensor.Get(a.Val.Shape()...)
	val.CopyFrom(a.Val)
	act.Apply(val.Data)
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		act.MaskGrad(out.Grad.Data, val.Data)
		out.handGrad(a)
	}
	return out
}

// Sigmoid returns 1/(1+exp(-a)) element-wise on the fused float32 kernel
// family (Sigmoid32 rows, AVX2 bulk); the backward needs only the forward
// output: dx += dy·y·(1−y).
func Sigmoid(a *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.SigmoidInto(val.Data, a.Val.Data)
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			tensor.SigmoidBwdInto(a.ensureGrad().Data, out.Grad.Data, val.Data)
		}
	}
	return out
}

// Tanh returns tanh(a) element-wise on the fused float32 kernel family
// (Tanh32 rows, AVX2 bulk); the backward needs only the forward output:
// dx += dy·(1−tanh²).
func Tanh(a *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.TanhInto(val.Data, a.Val.Data)
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			tensor.TanhBwdInto(a.ensureGrad().Data, out.Grad.Data, val.Data)
		}
	}
	return out
}

// GELU returns the Gaussian error linear unit (tanh approximation) on the
// fused float32 kernels. The forward retains the inner tanh in pooled node
// scratch so the backward evaluates no transcendental at all.
func GELU(a *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	t := tensor.Get(a.Val.Shape()...) // registered as node scratch below
	tensor.GELUFwdInto(val.Data, t.Data, a.Val.Data)
	out := newPooledNode(val, []*Node{a}, nil)
	out.scratch = []*tensor.Tensor{t}
	out.backward = func() {
		if a.requiresGrad {
			tensor.GELUBwdInto(a.ensureGrad().Data, out.Grad.Data, a.Val.Data, t.Data)
		}
	}
	return out
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
