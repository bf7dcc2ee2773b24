package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// linearEpilogueBackward is the dX/dW/dbias matmul backward every Linear
// op shares. dpre [N, Out] is the pre-activation gradient, only read here:
// out.Grad itself (rewritten in place first by the activation's Grad), or
// the loss head's one logit-sized buffer for LinearSoftmaxCrossEntropy.
func linearEpilogueBackward(x, w, b *Node, dpre *tensor.Tensor) {
	if b.requiresGrad {
		tensor.ColSumAddInto(b.ensureGrad().Data, dpre.Data, dpre.Dim(0), dpre.Dim(1))
	}
	if x.requiresGrad {
		tmp := tensor.Get(x.Val.Shape()...)
		tensor.MatMulBTInto(tmp, dpre, w.Val) // dX = dPre·Wᵀ
		x.accumulateOwned(tmp)
	}
	if w.requiresGrad { // dW += Xᵀ·dPre, in the gradient itself
		tensor.MatMulATAccRawInto(w.ensureGrad().Data, x.Val.Data, dpre.Data, w.Val.Dim(0), dpre.Dim(0), dpre.Dim(1))
	}
}

// linearDims returns N and Out for x [N, In] · w [In, Out] + b [Out],
// panicking in op's name when the bias does not fit.
func linearDims(op string, x, w, b *Node) (n, dOut int) {
	n, dOut = x.Val.Dim(0), w.Val.Dim(1)
	if b.Val.Numel() != dOut {
		panic(fmt.Sprintf("autodiff: %s bias size %d, want %d", op, b.Val.Numel(), dOut))
	}
	return n, dOut
}

// Linear computes act(x·W + b) for x [N, In], w [In, Out], b [Out] as one
// node: the matmul writes straight into the pooled output and the
// bias+activation epilogue runs in place over it. The backward forms the
// pre-activation gradient in place in out.Grad — which nobody reads once
// this backward has run — and the bias, weight and input gradients share it.
func Linear(x, w, b *Node, act tensor.Act) *Node {
	n, dOut := linearDims("Linear", x, w, b)
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	keep, scratch := actScratch(act, val)
	tensor.AddRowBiasInto(val.Data, val.Data, b.Val.Data, n, dOut, act, keep)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.scratch = scratch
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data, keep)
		linearEpilogueBackward(x, w, b, out.Grad)
	}
	return out
}

// LinearSoftmaxCrossEntropy computes the mean cross-entropy of the logits
// x·W + b [N, C] against integer labels as one scalar node — a language
// model's loss head, where [N·T, vocab] logits are the largest tensors of
// the step. One pooled buffer is all it holds: the matmul writes the logits
// into it, the softmax turns them into probabilities in place, the backward
// turns those into dlogits = scale·(probs − onehot) in place and runs the
// Linear backward straight off it. Value and all three gradients are bit
// for bit those of SoftmaxCrossEntropy(AddRowBias(MatMul(x, w), b), labels),
// which keeps five such buffers alive; the logits themselves are never
// available, so callers that score predictions keep the unfused head.
func LinearSoftmaxCrossEntropy(x, w, b *Node, labels []int) *Node {
	n, c := linearDims("LinearSoftmaxCrossEntropy", x, w, b)
	checkLabels(labels, n, c)
	buf := tensor.Get(n, c) // registered as node scratch below
	tensor.MatMulInto(buf, x.Val, w.Val)
	tensor.AddRowBiasInto(buf.Data, buf.Data, b.Val.Data, n, c, tensor.ActNone, tensor.ActScratch{})
	loss := tensor.SoftmaxXentFwdInto(buf.Data, buf.Data, labels, n, c)
	val := tensor.FromSlice([]float32{float32(loss / float64(n))}, 1)
	out := newNode(val, []*Node{x, w, b}, nil)
	out.scratch = []*tensor.Tensor{buf}
	out.backward = func() {
		tensor.SoftmaxXentBwdInPlace(buf.Data, labels, n, c, out.Grad.Data[0]/float32(n))
		linearEpilogueBackward(x, w, b, buf)
	}
	return out
}
