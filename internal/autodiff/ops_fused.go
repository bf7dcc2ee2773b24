package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// linearDims returns N, In and Out for x [N, In] · w [In, Out] + b [Out],
// panicking in op's name when the operands do not fit.
func linearDims(op string, x, w, b *Node) (n, in, dOut int) {
	n, in, dOut = x.Val.Dim(0), w.Val.Dim(0), w.Val.Dim(1)
	if x.Val.Dims() != 2 || w.Val.Dims() != 2 || x.Val.Dim(1) != in || b.Val.Numel() != dOut {
		panic(fmt.Sprintf("autodiff: %s over x %v, w %v, bias %v", op, x.Val.Shape(), w.Val.Shape(), b.Val.Shape()))
	}
	return n, in, dOut
}

// Linear computes act(x·W + b + r) for x [N, In], w [In, Out], b [Out] and
// an optional residual r (nil for none) as one node: the matmul writes
// straight into the pooled output and the bias+residual+activation epilogue
// runs in place over it — the float32 operations of Linear → Add(r, ·) →
// Activate in their order, so a block's residual add leaves no [N, Out]
// value behind that only the add read. r holds N·Out elements in any shape
// (a [N, T, D] sequence over its [N·T, D] rows), and the value takes r's
// shape, as Add's first operand gives it. The backward forms the
// pre-activation gradient in place in out.Grad — which nobody reads once
// this backward has run — hands r its copy first, as the add would, and
// the bias, weight and input gradients share it.
func Linear(x, w, b *Node, act tensor.Act, r *Node) *Node {
	n, in, dOut := linearDims("Linear", x, w, b)
	parents, shape, rd := []*Node{x, w, b}, []int{n, dOut}, []float32(nil)
	if r != nil {
		if r.Val.Numel() != n*dOut {
			panic(fmt.Sprintf("autodiff: Linear residual %v, want %d elements", r.Val.Shape(), n*dOut))
		}
		parents, shape, rd = append(parents, r), r.Val.Shape(), r.Val.Data
	}
	val := tensor.Get(shape...)
	tensor.MatMulRawInto(val.Data, x.Val.Data, w.Val.Data, n, in, dOut)
	tensor.AddRowBiasInto(val.Data, val.Data, b.Val.Data, rd, n, dOut, act)
	out := newPooledNode(val, parents, nil)
	out.backward = func() {
		act.Grad(out.Grad.Data, val.Data)
		dpre := out.Grad.Data
		if r != nil {
			r.accumulate(out.Grad)
		}
		if b.requiresGrad {
			tensor.ColSumAddInto(b.ensureGrad().Data, dpre, n, dOut)
		}
		if x.requiresGrad {
			tmp := tensor.Get(n, in)
			tensor.MatMulBTRawInto(tmp.Data, dpre, w.Val.Data, n, dOut, in) // dX = dPre·Wᵀ
			x.accumulateOwned(tmp)
		}
		if w.requiresGrad { // dW += Xᵀ·dPre, in the gradient itself
			tensor.MatMulATAccRawInto(w.ensureGrad().Data, x.Val.Data, dpre, in, n, dOut)
		}
	}
	return out
}

// headBlockFloats (1 MiB) is about how many logits LinearSoftmaxCrossEntropy
// and LinearArgmaxRows form at a time.
const headBlockFloats = 1 << 18

// headBlockRows is how many rows of [n, c] logits a block holds, a function
// of shape alone: as many as fit headBlockFloats, rounded down to a multiple
// of four (at least four) so a block edge never splits a group of dW's
// four-row kernel, and at most n — lm_local's 2000-word vocabulary takes
// 128-row blocks.
func headBlockRows(n, c int) int {
	return min(n, max(4, headBlockFloats/max(c, 1)&^3))
}

// eachHeadBlock walks the row blocks of the logits x·W + b in ascending
// order, each formed in one pooled buffer. A block's rows are split over the
// kernel pool once: each chunk forms its rows' logits — the matmul, then the
// bias — and runs rows over them, so a block's row-wise passes share one
// parallel region; rows calls only serial kernels. block, when not nil,
// then runs over the whole block [r0, r1), for what reduces across rows. Every kernel involved is
// row-independent, so a block's logits are bit for bit those rows of
// Linear(x, w, b, ActNone) however the chunks fall.
func eachHeadBlock(x, w, b *Node, rows, block func(r0, r1 int, z []float32)) {
	n, in, c := linearDims("eachHeadBlock", x, w, b)
	br := headBlockRows(n, c)
	buf := tensor.Get(br, c)
	r0 := 0
	chunk := func(a, e int) { // one closure for every block: it reads r0
		z := buf.Data[a*c : e*c]
		tensor.MatMulSerial(z, x.Val.Data[(r0+a)*in:(r0+e)*in], w.Val.Data, e-a, in, c)
		tensor.AddRowBiasSerial(z, z, b.Val.Data, nil, e-a, c, tensor.ActNone)
		rows(r0+a, r0+e, z)
	}
	for ; r0 < n; r0 += br {
		r1 := min(r0+br, n)
		tensor.ParallelRange(r1-r0, chunk)
		if block != nil {
			block(r0, r1, buf.Data[:(r1-r0)*c])
		}
	}
	tensor.Put(buf)
}

// LinearSoftmaxCrossEntropy computes the mean cross-entropy of the logits
// x·W + b [N, C] against integer labels as one scalar node — a language
// model's loss head, where [N·T, vocab] logits would be the largest tensors
// of the step. It holds none of them: the forward walks eachHeadBlock's
// row blocks, each block's softmax and −log p of its labels continuing one
// float64 sum in row order, and the backward walks the same blocks again,
// recomputing each block's logits and softmax (one more GEMM), turning them
// into dlogits = scale·(probs − onehot) in place and taking the bias column
// sums, the block's dX rows and its dW = Xᵀ·dZ term from there. Blocks are
// whole groups of four rows, so dW's K-blocked chain, like every other
// float32 chain, is the unblocked one: value and all three gradients are
// bit for bit those of SoftmaxCrossEntropy(AddRowBias(MatMul(x, w), b),
// labels) for any upstream gradient.
func LinearSoftmaxCrossEntropy(x, w, b *Node, labels []int) *Node {
	n, in, c := linearDims("LinearSoftmaxCrossEntropy", x, w, b)
	checkLabels(labels, n, c)
	var loss float64
	eachHeadBlock(x, w, b, func(r0, r1 int, z []float32) {
		tensor.SoftmaxRowsSerial(z, z, r1-r0, c)
	}, func(r0, r1 int, z []float32) {
		loss = tensor.XentLoss(loss, z, labels[r0:r1], r1-r0, c)
	})
	val := tensor.FromSlice([]float32{float32(loss / float64(n))}, 1)
	out := newNode(val, []*Node{x, w, b}, nil)
	out.backward = func() {
		scale := out.Grad.Data[0] / float32(n)
		var dx *tensor.Tensor
		if x.requiresGrad {
			dx = tensor.Get(n, in)
		}
		eachHeadBlock(x, w, b, func(r0, r1 int, z []float32) {
			rows := r1 - r0
			tensor.SoftmaxRowsSerial(z, z, rows, c)
			tensor.SoftmaxXentBwdSerial(z, labels[r0:r1], rows, c, scale)
			if dx != nil { // dX = dZ·Wᵀ, row for row
				tensor.MatMulBTSerial(dx.Data[r0*in:r1*in], z, w.Val.Data, rows, c, in)
			}
		}, func(r0, r1 int, z []float32) {
			rows := r1 - r0
			if b.requiresGrad { // a block's sums are too short to split
				tensor.ColSumAddSerial(b.ensureGrad().Data, z, rows, c)
			}
			if w.requiresGrad { // dW += Xᵀ·dZ, in the gradient itself
				tensor.MatMulATAccRawInto(w.ensureGrad().Data, x.Val.Data[r0*in:r1*in], z, in, rows, c)
			}
		})
		if dx != nil {
			x.accumulateOwned(dx)
		}
	}
	return out
}

// LinearArgmaxRows returns, for each row of the logits x·W + b, the column
// of its largest element — tensor.ArgmaxRows of Linear(x, w, b, ActNone),
// which a model's scoring pass would build — walking eachHeadBlock's row
// blocks, so no [N, C] buffer exists. It builds no node.
func LinearArgmaxRows(x, w, b *Node) []int {
	n, _, c := linearDims("LinearArgmaxRows", x, w, b)
	pred := make([]int, n)
	eachHeadBlock(x, w, b, func(r0, r1 int, z []float32) {
		copy(pred[r0:r1], tensor.ArgmaxRows(tensor.FromSlice(z, r1-r0, c)))
	}, nil)
	return pred
}
