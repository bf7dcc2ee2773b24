package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// Fused bias+activation ops. A Linear or Conv2d followed by ReLU is the
// most common layer pair in every model here; fusing the bias add and the
// activation into the epilogue of the preceding kernel removes one full
// read+write pass over the activations and one graph node per pair. The
// backward passes reconstruct the activation's derivative from the fused
// output (y > 0 iff the pre-activation was positive), so no mask tensor is
// stored — and they form the pre-activation gradient in place in the node's
// own out.Grad, which nobody reads once this backward has run.

// AddRowBiasReLU computes relu(x + bias) for x [N, D] and bias [D] as a
// single node — the fused epilogue of a Linear→ReLU pair.
func AddRowBiasReLU(x, bias *Node) *Node {
	n, d := x.Val.Dim(0), x.Val.Dim(1)
	if bias.Val.Numel() != d {
		panic(fmt.Sprintf("autodiff: AddRowBiasReLU dims %v + %v", x.Val.Shape(), bias.Val.Shape()))
	}
	val := tensor.Get(x.Val.Shape()...)
	tensor.AddRowBiasReLUInto(val.Data, x.Val.Data, bias.Val.Data, n, d)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		tensor.ActReLU.MaskGrad(out.Grad.Data, val.Data)
		if bias.requiresGrad {
			tensor.ColSumAddInto(bias.ensureGrad().Data, out.Grad.Data, n, d)
		}
		out.handGrad(x)
	}
	return out
}

// AddRowBiasTanh computes tanh(x + bias) for x [N, D] and bias [D] as a
// single node — the fused epilogue of a Linear→Tanh pair. Unlike the ReLU
// epilogues no mask is stored AND nothing is recomputed: the tanh gradient
// is exactly dy·(1−y²) from the fused output.
func AddRowBiasTanh(x, bias *Node) *Node {
	n, d := x.Val.Dim(0), x.Val.Dim(1)
	if bias.Val.Numel() != d {
		panic(fmt.Sprintf("autodiff: AddRowBiasTanh dims %v + %v", x.Val.Shape(), bias.Val.Shape()))
	}
	val := tensor.Get(x.Val.Shape()...)
	tensor.AddRowBiasTanhInto(val.Data, x.Val.Data, bias.Val.Data, n, d)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		// dpre = dy·(1−y²), once, in place; both gradients read it, then
		// x takes the buffer.
		tensor.TanhGradInto(out.Grad.Data, out.Grad.Data, val.Data)
		if bias.requiresGrad {
			tensor.ColSumAddInto(bias.ensureGrad().Data, out.Grad.Data, n, d)
		}
		out.handGrad(x)
	}
	return out
}

// LinearReLU computes relu(x·W + b) for x [N, In], w [In, Out], b [Out] as
// one node: the matmul writes straight into the output buffer and the
// bias+ReLU epilogue runs in place over it. The backward forms the
// pre-activation gradient (dy masked by y > 0) in place in out.Grad, which
// the bias, weight, and input gradients then share.
func LinearReLU(x, w, b *Node) *Node {
	n, dOut := linearDims("LinearReLU", x, w, b)
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	tensor.AddRowBiasReLUInto(val.Data, val.Data, b.Val.Data, n, dOut)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.backward = func() {
		tensor.ActReLU.MaskGrad(out.Grad.Data, val.Data)
		linearEpilogueBackward(x, w, b, out.Grad)
	}
	return out
}

// linearEpilogueBackward is the dX/dW/dbias matmul backward every Linear
// op shares. dpre [N, Out] is the pre-activation gradient, only read here:
// out.Grad itself (rewritten in place first by the activation epilogues), or
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
	if w.requiresGrad {
		tmp := tensor.Get(w.Val.Shape()...)
		tensor.MatMulATInto(tmp, x.Val, dpre) // dW = Xᵀ·dPre
		w.accumulateOwned(tmp)
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

// Linear computes x·W + b as one node: the matmul writes straight into the
// pooled output and the bias is added in place over it. With no activation
// the pre-activation gradient is out.Grad itself, so the backward stages
// nothing.
func Linear(x, w, b *Node) *Node {
	n, dOut := linearDims("Linear", x, w, b)
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	tensor.AddRowBiasInto(val.Data, val.Data, b.Val.Data, n, dOut)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.backward = func() { linearEpilogueBackward(x, w, b, out.Grad) }
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
	tensor.AddRowBiasInto(buf.Data, buf.Data, b.Val.Data, n, c)
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

// LinearTanh computes tanh(x·W + b) as one node: the matmul writes
// straight into the output buffer and the bias+tanh epilogue runs in place
// over it. The backward forms dpre = dy·(1−y²) in place in out.Grad,
// shared by the bias, weight, and input gradients — no transcendental is
// re-evaluated.
func LinearTanh(x, w, b *Node) *Node {
	n, dOut := linearDims("LinearTanh", x, w, b)
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	tensor.AddRowBiasTanhInto(val.Data, val.Data, b.Val.Data, n, dOut)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.backward = func() {
		tensor.TanhGradInto(out.Grad.Data, out.Grad.Data, val.Data)
		linearEpilogueBackward(x, w, b, out.Grad)
	}
	return out
}

// LinearGELU computes gelu(x·W + b) as one node. GELU's gradient needs the
// pre-activation, so the matmul+bias result and the inner tanh are both
// retained in pooled node scratch; the backward forms
// dpre = dy·gelu'(pre) from them in place in out.Grad without re-evaluating
// any transcendental.
func LinearGELU(x, w, b *Node) *Node {
	n, dOut := linearDims("LinearGELU", x, w, b)
	pre := tensor.Get(n, dOut) // registered as node scratch below
	tensor.MatMulInto(pre, x.Val, w.Val)
	tensor.AddRowBiasInto(pre.Data, pre.Data, b.Val.Data, n, dOut)
	val := tensor.Get(n, dOut)
	t := tensor.Get(n, dOut) // inner tanh; registered as node scratch below
	tensor.GELUFwdInto(val.Data, t.Data, pre.Data)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.scratch = []*tensor.Tensor{pre, t}
	out.backward = func() {
		tensor.GELUGradInto(out.Grad.Data, out.Grad.Data, pre.Data, t.Data)
		linearEpilogueBackward(x, w, b, out.Grad)
	}
	return out
}
