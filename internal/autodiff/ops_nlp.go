package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// Embedding looks up rows of weight [V, D] for token ids [N, T], producing
// [N, T, D]. The backward pass scatter-adds into the weight gradient.
func Embedding(weight *Node, ids [][]int) *Node {
	v, d := weight.Val.Dim(0), weight.Val.Dim(1)
	n := len(ids)
	if n == 0 {
		panic("autodiff: Embedding with empty batch")
	}
	t := len(ids[0])
	val := tensor.Get(n, t, d)
	for b, seq := range ids {
		if len(seq) != t {
			panic("autodiff: Embedding ragged batch")
		}
		for pos, id := range seq {
			if id < 0 || id >= v {
				panic(fmt.Sprintf("autodiff: Embedding id %d out of range [0,%d)", id, v))
			}
			copy(val.Data[(b*t+pos)*d:(b*t+pos+1)*d], weight.Val.Data[id*d:(id+1)*d])
		}
	}
	out := newPooledNode(val, []*Node{weight}, nil)
	out.backward = func() {
		if weight.requiresGrad {
			wg := weight.ensureGrad()
			for b, seq := range ids {
				for pos, id := range seq {
					src := out.Grad.Data[(b*t+pos)*d : (b*t+pos+1)*d]
					dst := wg.Data[id*d : (id+1)*d]
					for i := range src {
						dst[i] += src[i]
					}
				}
			}
		}
	}
	return out
}

// EmbeddingMean looks up and mean-pools token embeddings per sample,
// producing [N, D]. It reproduces PyTorch's EmbeddingBag(mode="mean"),
// the first layer of the paper's AGNews text classification model.
func EmbeddingMean(weight *Node, ids [][]int) *Node {
	v, d := weight.Val.Dim(0), weight.Val.Dim(1)
	n := len(ids)
	val := tensor.GetZero(n, d)
	for b, seq := range ids {
		if len(seq) == 0 {
			continue
		}
		inv := 1 / float32(len(seq))
		dst := val.Data[b*d : (b+1)*d]
		for _, id := range seq {
			if id < 0 || id >= v {
				panic(fmt.Sprintf("autodiff: EmbeddingMean id %d out of range [0,%d)", id, v))
			}
			src := weight.Val.Data[id*d : (id+1)*d]
			for i := range dst {
				dst[i] += src[i] * inv
			}
		}
	}
	out := newPooledNode(val, []*Node{weight}, nil)
	out.backward = func() {
		if weight.requiresGrad {
			wg := weight.ensureGrad()
			for b, seq := range ids {
				if len(seq) == 0 {
					continue
				}
				inv := 1 / float32(len(seq))
				src := out.Grad.Data[b*d : (b+1)*d]
				for _, id := range seq {
					dst := wg.Data[id*d : (id+1)*d]
					for i := range src {
						dst[i] += src[i] * inv
					}
				}
			}
		}
	}
	return out
}

// LayerNorm normalises the last dimension of a [..., D] node with learned
// gain gamma [D] and bias beta [D]. Forward and backward run on the fused
// tensor kernels: one stats pass plus one normalize+affine pass forward,
// and a backward that recomputes dy⊙gamma instead of staging it in a
// per-row buffer — the whole op is allocation-free at steady state. Like
// BatchNorm2d it retains only the per-row mean and 1/σ (pooled node
// scratch) and recomputes x̂ from x in the backward.
func LayerNorm(x, gamma, beta *Node, eps float32) *Node {
	d := x.Val.Dim(-1)
	if gamma.Val.Numel() != d || beta.Val.Numel() != d {
		panic(fmt.Sprintf("autodiff: LayerNorm gamma/beta size %d/%d, want %d", gamma.Val.Numel(), beta.Val.Numel(), d))
	}
	rows := x.Val.Numel() / d
	val := tensor.Get(x.Val.Shape()...)
	mean := tensor.Get(rows)   // registered as node scratch below
	invStd := tensor.Get(rows) // registered as node scratch below
	tensor.LayerNormFwdInto(val.Data, mean.Data, invStd.Data, x.Val.Data, gamma.Val.Data, beta.Val.Data, rows, d, eps)
	out := newPooledNode(val, []*Node{x, gamma, beta}, nil)
	out.scratch = []*tensor.Tensor{mean, invStd}
	out.backward = func() {
		var dx, dg, db []float32
		if x.requiresGrad {
			dx = x.ensureGrad().Data
		}
		if gamma.requiresGrad {
			dg = gamma.ensureGrad().Data
		}
		if beta.requiresGrad {
			db = beta.ensureGrad().Data
		}
		tensor.LayerNormBwdInto(dx, dg, db, out.Grad.Data, x.Val.Data, mean.Data, invStd.Data, gamma.Val.Data, rows, d)
	}
	return out
}

// BatchedMatMul multiplies a [B, M, K] by b [B, K, N] → [B, M, N].
// Attention uses it for per-head score and context computation.
func BatchedMatMul(a, b *Node) *Node {
	as, bs := a.Val.Shape(), b.Val.Shape()
	if len(as) != 3 || len(bs) != 3 || as[0] != bs[0] || as[2] != bs[1] {
		panic(fmt.Sprintf("autodiff: BatchedMatMul shapes %v × %v", as, bs))
	}
	bt, m, k, n := as[0], as[1], as[2], bs[2]
	val := tensor.Get(bt, m, n)
	forEachImage(bt, func(i int) {
		tensor.MatMulRawInto(val.Data[i*m*n:(i+1)*m*n],
			a.Val.Data[i*m*k:(i+1)*m*k], b.Val.Data[i*k*n:(i+1)*k*n], m, k, n)
	})
	out := newPooledNode(val, []*Node{a, b}, nil)
	out.backward = func() {
		// dB = Aᵀ·dY forms in b's gradient, as Linear's dW does; dA = dY·Bᵀ
		// goes through a temporary, there being no accumulating a×bᵀ entry.
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

// Transpose12 swaps the last two axes of a 3-D node [B, M, N] → [B, N, M].
func Transpose12(a *Node) *Node {
	as := a.Val.Shape()
	if len(as) != 3 {
		panic(fmt.Sprintf("autodiff: Transpose12 needs 3-D, got %v", as))
	}
	b, m, n := as[0], as[1], as[2]
	return swapMidNode(a, []int{b, n, m}, b, m, n, 1)
}

// AddConstBroadcast adds a constant tensor c (no gradient) to every
// leading-dimension slice of a: a [B, ...] with c matching one slice.
// Attention applies a [T, T] mask to [B*H, T, T] scores with it and the
// language model adds its [T, D] positional table to [N, T, D] embeddings,
// neither materialising the broadcast.
func AddConstBroadcast(a *Node, c *tensor.Tensor) *Node {
	b := a.Val.Dim(0)
	sz := c.Numel()
	if a.Val.Numel() != b*sz {
		panic(fmt.Sprintf("autodiff: AddConstBroadcast %v cannot broadcast %v over dim 0", a.Val.Shape(), c.Shape()))
	}
	val := tensor.Get(a.Val.Shape()...)
	cd := c.Data
	for i := 0; i < b; i++ {
		src := a.Val.Data[i*sz : (i+1)*sz]
		dst := val.Data[i*sz : (i+1)*sz]
		for j := range dst {
			dst[j] = src[j] + cd[j]
		}
	}
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() { out.handGrad(a) }
	return out
}
