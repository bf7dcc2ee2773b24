package autodiff

import (
	"fmt"
	"math"
	"testing"

	"amalgam/internal/tensor"
)

// The per-head chain Attention replaced, kept as its referee: the head split
// and merge, K's transpose, the batched GEMM and the row softmax, each its
// own node, composed as MultiHeadAttention.ForwardSelf composed them between
// its projections (refAttention).

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

// splitHeads rearranges [N, T, D] into [N*H, T, D/H] ((N,T,H,hd) →
// (N,H,T,hd)).
func splitHeads(a *Node, heads int) *Node {
	as := a.Val.Shape()
	n, t, hd := as[0], as[1], as[2]/heads
	return swapMidNode(a, []int{n * heads, t, hd}, n, t, heads, hd)
}

// mergeHeads is the inverse of splitHeads: [N*H, T, hd] → [N, T, H*hd].
func mergeHeads(a *Node, heads int) *Node {
	as := a.Val.Shape()
	n, t, hd := as[0]/heads, as[1], as[2]
	return swapMidNode(a, []int{n, t, heads * hd}, n, heads, t, hd)
}

// transpose12 swaps the last two axes of a 3-D node [B, M, N] → [B, N, M].
func transpose12(a *Node) *Node {
	as := a.Val.Shape()
	b, m, n := as[0], as[1], as[2]
	return swapMidNode(a, []int{b, n, m}, b, m, n, 1)
}

// batchedMatMul multiplies a [B, M, K] by b [B, K, N] → [B, M, N].
func batchedMatMul(a, b *Node) *Node {
	as, bs := a.Val.Shape(), b.Val.Shape()
	bt, m, k, n := as[0], as[1], as[2], bs[2]
	val := tensor.Get(bt, m, n)
	forEachImage(bt, func(i int) {
		tensor.MatMulRawInto(val.Data[i*m*n:(i+1)*m*n],
			a.Val.Data[i*m*k:(i+1)*m*k], b.Val.Data[i*k*n:(i+1)*k*n], m, k, n)
	})
	out := newPooledNode(val, []*Node{a, b}, nil)
	out.backward = func() {
		var tmpA *tensor.Tensor
		if a.requiresGrad {
			tmpA = tensor.Get(m, k)
		}
		for i := 0; i < bt; i++ {
			dy := out.Grad.Data[i*m*n : (i+1)*m*n]
			if a.requiresGrad {
				ga := a.ensureGrad().Data[i*m*k : (i+1)*m*k]
				tensor.MatMulBTRawInto(tmpA.Data, dy, b.Val.Data[i*k*n:(i+1)*k*n], m, n, k)
				tensor.AddRawInto(ga, tmpA.Data)
			}
			if b.requiresGrad {
				gb := b.ensureGrad().Data[i*k*n : (i+1)*k*n]
				tensor.MatMulATAccRawInto(gb, a.Val.Data[i*m*k:(i+1)*m*k], dy, k, m, n)
			}
		}
		tensor.Put(tmpA)
	}
	return out
}

// softmaxLastDim applies softmax along the last axis of a [rows, cols] node.
func softmaxLastDim(a *Node) *Node {
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

// refAttention is Attention as the chain of the ops above, the causal mask a
// [1, T, T] constant that every head's scores broadcast against.
func refAttention(q, k, v *Node, heads int) *Node {
	n, t, d := q.Val.Dim(0), q.Val.Dim(1), q.Val.Dim(2)
	qs, ks, vs := splitHeads(q, heads), splitHeads(k, heads), splitHeads(v, heads)
	scores := batchedMatMul(qs, transpose12(ks)) // [N*H, T, T]
	scores = Scale(scores, float32(1/math.Sqrt(float64(d/heads))))
	mask := tensor.New(1, t, t)
	for i := range t {
		for j := i + 1; j < t; j++ {
			mask.Data[i*t+j] = -1e9
		}
	}
	scores = Add(scores, Constant(mask))
	attn := Reshape(softmaxLastDim(Reshape(scores, n*heads*t, t)), n*heads, t, t)
	return mergeHeads(batchedMatMul(attn, vs), heads)
}

// attentionRun is one forward (and, when any operand takes a gradient, one
// backward under the upstream gradient dy) of op over q, k and v; grads
// says which of them are leaves ('q', 'k', 'v'), the rest are constants. It
// returns the value, then the three gradients (nil for a constant). The
// root hands dy over by accumulate, whose first contribution is a copy that
// keeps a −0, as a consumer passing its own gradient through does.
func attentionRun(op func(q, k, v *Node, heads int) *Node, vals []*tensor.Tensor, dy *tensor.Tensor, heads int, grads string) []*tensor.Tensor {
	nodes := make([]*Node, 3)
	for i, v := range vals {
		nodes[i] = Constant(v)
		if grads[i] != '-' {
			nodes[i] = Leaf(v)
		}
	}
	out := op(nodes[0], nodes[1], nodes[2], heads)
	res := []*tensor.Tensor{out.Val.Clone()}
	root := newNode(tensor.New(1), []*Node{out}, nil)
	root.backward = func() { out.accumulate(dy) }
	if root.RequiresGrad() {
		Backward(root)
	}
	for _, n := range nodes {
		var g *tensor.Tensor
		if n.Grad != nil {
			g = n.Grad.Clone()
		}
		res = append(res, g)
	}
	Release(root)
	return res
}

// TestAttentionMatchesComposition is Attention's referee: its value and the
// gradients of q, k and v are the per-head chain's bit for bit, at 1, 2, 3
// and 8 workers with SIMD dispatch off and on, over sequence lengths, head
// counts and widths that leave GEMM tails and odd rows, with
// each of q, k and v taking a gradient or not (each shape takes the eight
// combinations in turn across the worker counts), under an upstream
// gradient with −0 entries. Blocks run side by side, so CI runs it under
// the race detector too.
func TestAttentionMatchesComposition(t *testing.T) {
	eachBackend(t, func(simd bool) {
		for wi, workers := range []int{1, 2, 3, 8} {
			tensor.SetMaxWorkers(workers)
			c := 0
			for _, tl := range []int{1, 7, 23, 63} {
				for _, heads := range []int{1, 2, 4} {
					for _, hd := range []int{3, 8, 32} {
						mask := (c + wi) % 8
						c++
						grads := []byte("---")
						for i := range grads {
							if mask>>i&1 == 1 {
								grads[i] = "qkv"[i]
							}
						}
						name := fmt.Sprintf("simd=%v/workers=%d/T=%d/heads=%d/hd=%d/grads=%s", simd, workers, tl, heads, hd, grads)
						rng := tensor.NewRNG(uint64(1000 + c))
						vals := make([]*tensor.Tensor, 4)
						for i := range vals {
							vals[i] = tensor.New(2, tl, heads*hd)
							rng.FillNormal(vals[i], 0, 1)
						}
						for i := 0; i < vals[3].Numel(); i += 3 {
							vals[3].Data[i] = float32(math.Copysign(0, -1))
						}
						got := attentionRun(Attention, vals[:3], vals[3], heads, string(grads))
						want := attentionRun(refAttention, vals[:3], vals[3], heads, string(grads))
						for i := range want {
							if (got[i] == nil) != (want[i] == nil) || want[i] != nil && !sameBits(got[i], want[i]) {
								t.Fatalf("%s: result %d (0 the value, then q, k, v's gradients) differs from the per-head chain's", name, i)
							}
						}
					}
				}
			}
		}
	})
}

// TestAttentionKeepsNoScratch: a forward keeps nothing but its value, in
// training as in eval — the backward recomputes P from Q and K — and a
// training step's blocks take their scratch from the pool per chunk, not
// an [N·heads, T, T] buffer.
func TestAttentionKeepsNoScratch(t *testing.T) {
	x := tensor.New(2, 5, 8)
	tensor.NewRNG(3).FillNormal(x, 0, 1)
	for _, train := range []bool{false, true} {
		q := Constant(x)
		if train {
			q = Leaf(x)
		}
		out := Attention(q, Constant(x), Constant(x), 2)
		if out.scratch != nil {
			t.Fatalf("training=%v: a forward keeps %d scratch buffers, want none", train, len(out.scratch))
		}
		Release(out)
	}
}
