package nn

import (
	"fmt"
	"math"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

// addForwardSeq is ForwardSeq as the Add composition it fuses: the
// attention sublayer's output and the feed-forward's FF2 output each a
// node of their own, summed with the block's input by autodiff.Add.
func addForwardSeq(l *TransformerEncoderLayer, x *autodiff.Node) *autodiff.Node {
	n, t := x.Val.Dim(0), x.Val.Dim(1)
	att := l.Drop.Forward(l.Attn.ForwardSelf(x))
	x = l.Norm1.Forward(autodiff.Add(x, att))
	flat := autodiff.Reshape(x, n*t, l.D)
	ff := l.FF2.Forward(l.Drop.Forward(l.FF1.ForwardAct(flat, tensor.ActReLU)))
	return l.Norm2.Forward(autodiff.Add(x, autodiff.Reshape(ff, n, t, l.D)))
}

// layerRun builds a layer from seed, runs forward on x and backward under
// the upstream gradient dy, and returns the value, x's gradient and every
// parameter's gradient in Params order, then the dropout stream's state.
func layerRun(t *testing.T, seed uint64, p float32, training bool, x, dy *tensor.Tensor,
	forward func(*TransformerEncoderLayer, *autodiff.Node) *autodiff.Node) ([]*tensor.Tensor, string) {
	t.Helper()
	l := NewTransformerEncoderLayer(tensor.NewRNG(seed), x.Dim(2), 3, 20, p)
	l.SetTraining(training)
	xN := autodiff.Leaf(x.Clone())
	out := forward(l, xN)
	res := []*tensor.Tensor{out.Val.Clone()}
	loss := autodiff.Sum(autodiff.Mul(out, autodiff.Constant(dy)))
	autodiff.Backward(loss)
	res = append(res, xN.Grad.Clone())
	for _, prm := range l.Params() {
		res = append(res, prm.Node.Grad.Clone())
	}
	state, err := l.Drop.rng.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	autodiff.Release(loss)
	return res, string(state)
}

// sameBits reports whether a and b agree bit for bit.
func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestTransformerLayerMatchesAddComposition is ForwardSeq's referee: with
// each residual add folded into its summand's producer — FF2, and Wo or
// the attention dropout — the block's value, its input's gradient, every
// parameter's gradient and the dropout stream afterwards are the Add
// composition's bit for bit, at dropout 0 and 0.1, training on and off,
// 1, 2, 3 and 8 workers and both SIMD backends, under an upstream gradient
// with −0 entries.
func TestTransformerLayerMatchesAddComposition(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	rng := tensor.NewRNG(61)
	x, dy := tensor.New(2, 7, 12), tensor.New(2, 7, 12)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)
	for i := 0; i < dy.Numel(); i += 5 {
		dy.Data[i] = float32(math.Copysign(0, -1))
	}
	for _, simd := range []bool{false, true} {
		prev := tensor.SetSIMD(simd)
		if simd && !tensor.SIMDEnabled() {
			tensor.SetSIMD(prev)
			continue
		}
		for _, p := range []float32{0, 0.1} {
			for _, training := range []bool{true, false} {
				for _, wk := range []int{1, 2, 3, 8} {
					tensor.SetMaxWorkers(wk)
					name := fmt.Sprintf("simd=%v/p=%v/training=%v/workers=%d", simd, p, training, wk)
					got, gotRNG := layerRun(t, 62, p, training, x, dy, (*TransformerEncoderLayer).ForwardSeq)
					want, wantRNG := layerRun(t, 62, p, training, x, dy, addForwardSeq)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%s: result %d (0 the value, 1 x's gradient, then the parameters' in Params order) differs from the Add composition's", name, i)
						}
					}
					if gotRNG != wantRNG {
						t.Fatalf("%s: the dropout stream stands elsewhere than after the Add composition", name)
					}
				}
			}
		}
		tensor.SetSIMD(prev)
	}
}

// TestTransformerLayerStepTakesNoAttentionProbs: a training step of a block
// at lm_local's geometry (16 sequences of 63 positions, D 128, 4 heads, FF
// 512) gets nothing from the pool bucket that P, the heads' [N·heads, T, T]
// attention probabilities, would take: the backward recomputes each
// (sample, head) block's P in per-block scratch.
func TestTransformerLayerStepTakesNoAttentionProbs(t *testing.T) {
	const n, tl, d, heads = 16, 63, 128, 4
	x := tensor.New(n, tl, d)
	tensor.NewRNG(63).FillNormal(x, 0, 1)
	for _, p := range []float32{0, 0.1} {
		l := NewTransformerEncoderLayer(tensor.NewRNG(64), d, heads, 512, p)
		h0, m0 := tensor.PoolBucketStats(n * heads * tl * tl)
		loss := autodiff.Mean(l.ForwardSeq(autodiff.Leaf(x)))
		autodiff.Backward(loss)
		autodiff.Release(loss)
		if h1, m1 := tensor.PoolBucketStats(n * heads * tl * tl); h1+m1 != h0+m0 {
			t.Fatalf("p=%v: a step took %d buffers from P's bucket, want none", p, h1+m1-h0-m0)
		}
	}
}
