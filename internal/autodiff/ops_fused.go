package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// Fused bias+activation ops. A Linear or Conv2d followed by ReLU is the
// most common layer pair in every model here; fusing the bias add and the
// activation into the epilogue of the preceding kernel removes one full
// read+write pass over the activations and one graph node per pair. The
// backward passes reconstruct the ReLU mask from the fused output (y > 0
// iff the pre-activation was positive), so no mask tensor is stored.

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
		if x.requiresGrad {
			tensor.ReLUMaskAddInto(x.ensureGrad().Data, out.Grad.Data, val.Data)
		}
		if bias.requiresGrad {
			bg := bias.ensureGrad().Data[:d]
			for r := 0; r < n; r++ {
				dy := out.Grad.Data[r*d : (r+1)*d]
				y := val.Data[r*d : (r+1)*d][:len(dy)]
				for j := range dy {
					if y[j] > 0 {
						bg[j] += dy[j]
					}
				}
			}
		}
	}
	return out
}

// AddChanBiasReLU computes relu(x + bias[ch]) for x [N, C, H, W] and bias
// [C] as a single node — the fused epilogue of a biased Conv2d→ReLU pair.
func AddChanBiasReLU(x, bias *Node) *Node {
	sh := x.Val.Shape()
	if len(sh) != 4 || bias.Val.Numel() != sh[1] {
		panic(fmt.Sprintf("autodiff: AddChanBiasReLU dims %v + %v", sh, bias.Val.Shape()))
	}
	n, c, hw := sh[0], sh[1], sh[2]*sh[3]
	val := tensor.Get(sh...)
	tensor.AddChanBiasReLUInto(val.Data, x.Val.Data, bias.Val.Data, n, c, hw)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		if x.requiresGrad {
			tensor.ReLUMaskAddInto(x.ensureGrad().Data, out.Grad.Data, val.Data)
		}
		if bias.requiresGrad {
			bg := bias.ensureGrad().Data
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					base := (b*c + ch) * hw
					dy := out.Grad.Data[base : base+hw]
					y := val.Data[base : base+hw][:len(dy)]
					var s float32
					for i := range dy {
						if y[i] > 0 {
							s += dy[i]
						}
					}
					bg[ch] += s
				}
			}
		}
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
		// Stage dpre = dy·(1−y²) once; both gradients read it, and x
		// takes the buffer over when it is its first contribution.
		dpre := tensor.Get(x.Val.Shape()...)
		tensor.TanhGradInto(dpre.Data, out.Grad.Data, val.Data)
		if bias.requiresGrad {
			tensor.ColSumAddInto(bias.ensureGrad().Data, dpre.Data, n, d)
		}
		x.accumulateOwned(dpre)
	}
	return out
}

// AddChanBiasSigmoid computes sigmoid(x + bias[ch]) for x [N, C, H, W] and
// bias [C] as a single node — the fused epilogue of a biased
// Conv2d→Sigmoid pair (spatial attention gates). The gradient is
// reconstructed from the output: dpre = dy·y·(1−y).
func AddChanBiasSigmoid(x, bias *Node) *Node {
	sh := x.Val.Shape()
	if len(sh) != 4 || bias.Val.Numel() != sh[1] {
		panic(fmt.Sprintf("autodiff: AddChanBiasSigmoid dims %v + %v", sh, bias.Val.Shape()))
	}
	n, c, hw := sh[0], sh[1], sh[2]*sh[3]
	val := tensor.Get(sh...)
	tensor.AddChanBiasSigmoidInto(val.Data, x.Val.Data, bias.Val.Data, n, c, hw)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		// Stage dpre = dy·y·(1−y) once; both gradients read it, and x
		// takes the buffer over when it is its first contribution.
		dpre := tensor.Get(sh...)
		tensor.SigmoidGradInto(dpre.Data, out.Grad.Data, val.Data)
		if bias.requiresGrad {
			bg := bias.ensureGrad().Data
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					base := (b*c + ch) * hw
					row := dpre.Data[base : base+hw]
					var s float32
					for _, v := range row {
						s += v
					}
					bg[ch] += s
				}
			}
		}
		x.accumulateOwned(dpre)
	}
	return out
}

// LinearReLU computes relu(x·W + b) for x [N, In], w [In, Out], b [Out] as
// one node: the matmul writes straight into the output buffer and the
// bias+ReLU epilogue runs in place over it. The backward stages the
// pre-activation gradient (dy masked by y > 0) in one pooled buffer shared
// by the bias, weight, and input gradients.
func LinearReLU(x, w, b *Node) *Node {
	n, dOut := linearDims("LinearReLU", x, w, b)
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	tensor.AddRowBiasReLUInto(val.Data, val.Data, b.Val.Data, n, dOut)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.backward = func() {
		dpre := tensor.Get(n, dOut)
		tensor.ReLUMaskInto(dpre.Data, out.Grad.Data, val.Data)
		linearEpilogueBackward(x, w, b, dpre)
		tensor.Put(dpre)
	}
	return out
}

// linearEpilogueBackward is the dX/dW/dbias matmul backward every Linear
// op shares. dpre [N, Out] is the pre-activation gradient, only read here:
// a staged buffer for the activation epilogues, out.Grad itself for Linear,
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
// over it. The backward stages dpre = dy·(1−y²) in one pooled buffer
// shared by the bias, weight, and input gradients — no transcendental is
// re-evaluated.
func LinearTanh(x, w, b *Node) *Node {
	n, dOut := linearDims("LinearTanh", x, w, b)
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	tensor.AddRowBiasTanhInto(val.Data, val.Data, b.Val.Data, n, dOut)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.backward = func() {
		dpre := tensor.Get(n, dOut)
		tensor.TanhGradInto(dpre.Data, out.Grad.Data, val.Data)
		linearEpilogueBackward(x, w, b, dpre)
		tensor.Put(dpre)
	}
	return out
}

// LinearGELU computes gelu(x·W + b) as one node. GELU's gradient needs the
// pre-activation, so the matmul+bias result and the inner tanh are both
// retained in pooled node scratch; the backward stages
// dpre = dy·gelu'(pre) from them without re-evaluating any transcendental.
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
		dpre := tensor.Get(n, dOut)
		tensor.GELUGradInto(dpre.Data, out.Grad.Data, pre.Data, t.Data)
		linearEpilogueBackward(x, w, b, dpre)
		tensor.Put(dpre)
	}
	return out
}
