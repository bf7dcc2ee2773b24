package autodiff

import (
	"fmt"
	"math"

	"amalgam/internal/tensor"
)

// swapMid writes src, an [outer, a, b, run] array, into dst as
// [outer, b, a, run]: a copy, or with acc an element-wise dst += src. It is
// the one axis swap under Conv2d's block reorders (outer 1). A one-float run
// is moved by index: a copy call or a slice header per float would cost more
// than the float.
func swapMid(dst, src []float32, outer, a, b, run int, acc bool) {
	n := a * b * run
	for o := 0; o < outer*n; o += n {
		s, d := src[o:o+n], dst[o:o+n]
		for i := 0; i < a; i++ {
			for j := 0; j < b; j++ {
				si, di := (i*b+j)*run, (j*a+i)*run
				switch {
				case run == 1 && acc:
					d[di] += s[si]
				case run == 1:
					d[di] = s[si]
				case acc:
					dd := d[di : di+run]
					for k, v := range s[si : si+run] {
						dd[k] += v
					}
				default:
					copy(d[di:di+run], s[si:])
				}
			}
		}
	}
}

// Attention is multi-head scaled dot-product attention over the [N, T, D]
// projections q, k and v: head h reads columns [h·hd, (h+1)·hd) of each, hd
// = D/heads, and writes softmax(Q·Kᵀ/√hd + M)·V to the same columns of the
// value, M the causal mask: -1e9 above the diagonal (no position attends to
// a later one) and 0 elsewhere. Each (sample, head) block works in pooled
// scratch, and the node keeps nothing but its value: the backward gathers
// the block's Q and K again and recomputes its probabilities P, the same
// serial kernels in the same order, so P is the forward's bit for bit — one
// more [T, hd]·[hd, T] GEMM per block instead of an [N·heads, T, T] buffer
// held from the forward to the backward. Value and gradients are the
// per-head chain's it replaced, bit for bit (attention_test.go keeps that
// chain as the referee): the same kernel per GEMM, the scale and the mask
// rounded apart, and each operand's gradient added into zeros. A block
// calls only serial kernels: the blocks are the op's one parallel region.
func Attention(q, k, v *Node, heads int) *Node {
	s := q.Val.Shape()
	if len(s) != 3 || heads < 1 || s[2]%heads != 0 || !q.Val.SameShape(k.Val) || !q.Val.SameShape(v.Val) {
		panic(fmt.Sprintf("autodiff: Attention over %v, %v, %v with %d heads", s, k.Val.Shape(), v.Val.Shape(), heads))
	}
	n, t, d := s[0], s[1], s[2]
	hd, tt := d/heads, t*t
	th, scale := t*hd, float32(1/math.Sqrt(float64(hd)))
	// head moves block b between the [N, T, D] array x and blk, [T, hd] or
	// with tr [hd, T]: with add, blk's elements are added into x's, else x's
	// are copied into blk.
	head := func(x, blk []float32, b int, tr, add bool) {
		for i := range t {
			xr := x[(b/heads*t+i)*d+b%heads*hd:][:hd]
			for j := range xr {
				e := &blk[i*hd+j]
				if tr {
					e = &blk[j*t+i]
				}
				if add {
					xr[j] += *e
				} else {
					*e = xr[j]
				}
			}
		}
	}
	// probs forms block b's P in pb from its Q and Kᵀ, gathered into qb
	// and kt: the forward's pass, and the backward's again.
	probs := func(pb, qb, kt []float32, b int) {
		head(q.Val.Data, qb, b, false, false)
		head(k.Val.Data, kt, b, true, false)
		tensor.MatMulSerial(pb, qb, kt, t, hd, t)
		for i := range t {
			for j, e := range pb[i*t:][:t] {
				x := float32(scale * e) // rounded before the mask is added
				if j > i {
					x += -1e9
				}
				pb[i*t+j] = x
			}
		}
		tensor.SoftmaxRowsSerial(pb, pb, t, t)
	}
	val := tensor.GetZero(n, t, d)
	eachHead(n*heads, 3*th+tt, func(b int, buf []float32) {
		qb, kt, vb, pb := buf[:th], buf[th:2*th], buf[2*th:3*th], buf[3*th:][:tt]
		probs(pb, qb, kt, b)
		head(v.Val.Data, vb, b, false, false)
		tensor.MatMulSerial(qb, pb, vb, t, t, hd) // C = P·V, into Q's place
		head(val.Data, qb, b, false, true)
	})
	out := newPooledNode(val, []*Node{q, k, v}, nil)
	out.backward = func() {
		grad := func(x *Node) []float32 {
			if x.requiresGrad {
				return x.ensureGrad().Data
			}
			return nil
		}
		dq, dk, dv := grad(q), grad(k), grad(v)
		eachHead(n*heads, 3*th+3*tt, func(b int, buf []float32) {
			dc, x, y := buf[:th], buf[th:2*th], buf[2*th:3*th]
			pb, tmp, ds := buf[3*th:][:tt], buf[3*th+tt:][:tt], buf[3*th+2*tt:][:tt]
			probs(pb, x, y, b)
			// dC, dP and the scores' gradient are GEMM output, which is
			// never −0, or only ever GEMM factors, whose sign of zero no
			// product sum keeps: the chain's adds into zeros are copies.
			head(out.Grad.Data, dc, b, false, false)
			if dv != nil { // dV = Pᵀ·dC
				tensor.MatMulATSerial(x, pb, dc, t, t, hd)
				head(dv, x, b, false, true)
			}
			if dq == nil && dk == nil {
				return
			}
			head(v.Val.Data, y, b, false, false)
			tensor.MatMulBTSerial(tmp, dc, y, t, hd, t) // dP = dC·Vᵀ
			clear(ds)
			tensor.SoftmaxRowsBwdSerial(ds, pb, tmp, t, t)
			for i, e := range ds {
				tmp[i] = scale * e // the scores' gradient
			}
			if dq != nil { // dQ = dS·K
				head(k.Val.Data, y, b, true, false)
				tensor.MatMulBTSerial(x, tmp, y, t, t, hd)
				head(dq, x, b, false, true)
			}
			if dk != nil { // dKᵀ = Qᵀ·dS
				head(q.Val.Data, y, b, false, false)
				tensor.MatMulATSerial(x, y, tmp, hd, t, t)
				head(dk, x, b, true, true)
			}
		})
	}
	return out
}

// eachHead runs fn over the (sample, head) blocks [0, blocks) in parallel,
// each with a pooled buffer of size floats that goes back after it: the
// pool hands out as many buffers at any worker count.
func eachHead(blocks, size int, fn func(b int, buf []float32)) {
	forEachImage(blocks, func(b int) {
		buf := tensor.Get(size)
		fn(b, buf.Data)
		tensor.Put(buf)
	})
}
