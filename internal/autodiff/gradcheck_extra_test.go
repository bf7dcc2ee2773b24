package autodiff

import (
	"math"
	"testing"

	"amalgam/internal/tensor"
)

func TestGradDepthwiseConv2d(t *testing.T) {
	rng := tensor.NewRNG(31)
	x := tensor.New(2, 3, 5, 5)
	w := tensor.New(3, 3, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.4)
	target := tensor.New(2, 3, 5, 5)
	rng.FillNormal(target, 0, 1)
	xN, wN := Leaf(x), Leaf(w)
	loss := func() *Node { return MSE(DepthwiseConv2d(xN, wN, 1, 1), target) }
	gradCheck(t, []*Node{wN, xN}, loss, 2e-2)
}

func TestGradDepthwiseStride2(t *testing.T) {
	rng := tensor.NewRNG(32)
	x := tensor.New(1, 2, 6, 6)
	w := tensor.New(2, 3, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.4)
	target := tensor.New(1, 2, 3, 3)
	rng.FillNormal(target, 0, 1)
	xN, wN := Leaf(x), Leaf(w)
	loss := func() *Node { return MSE(DepthwiseConv2d(xN, wN, 2, 1), target) }
	gradCheck(t, []*Node{wN, xN}, loss, 2e-2)
}

func TestGradGlobalMaxPool(t *testing.T) {
	rng := tensor.NewRNG(33)
	x := tensor.New(2, 3, 4, 4)
	rng.FillNormal(x, 0, 2) // well-separated values avoid kink ambiguity
	target := tensor.New(2, 3)
	rng.FillNormal(target, 0, 1)
	xN := Leaf(x)
	loss := func() *Node { return MSE(GlobalMaxPool(xN), target) }
	gradCheck(t, []*Node{xN}, loss, 3e-2)
}

func TestGradMulChannelScale(t *testing.T) {
	rng := tensor.NewRNG(34)
	x := tensor.New(2, 3, 3, 3)
	s := tensor.New(2, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillUniform(s, 0.2, 1)
	target := tensor.New(2, 3, 3, 3)
	rng.FillNormal(target, 0, 1)
	xN, sN := Leaf(x), Leaf(s)
	loss := func() *Node { return MSE(MulChannelScale(xN, sN), target) }
	gradCheck(t, []*Node{xN, sN}, loss, 2e-2)
}

func TestGradMulSpatialScale(t *testing.T) {
	rng := tensor.NewRNG(35)
	x := tensor.New(2, 3, 3, 3)
	s := tensor.New(2, 1, 3, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillUniform(s, 0.2, 1)
	target := tensor.New(2, 3, 3, 3)
	rng.FillNormal(target, 0, 1)
	xN, sN := Leaf(x), Leaf(s)
	loss := func() *Node { return MSE(MulSpatialScale(xN, sN), target) }
	gradCheck(t, []*Node{xN, sN}, loss, 2e-2)
}

func TestGradChannelMeanMax(t *testing.T) {
	rng := tensor.NewRNG(36)
	x := tensor.New(1, 4, 3, 3)
	rng.FillNormal(x, 0, 2)
	target := tensor.New(1, 2, 3, 3)
	rng.FillNormal(target, 0, 1)
	xN := Leaf(x)
	loss := func() *Node { return MSE(ChannelMeanMax(xN), target) }
	gradCheck(t, []*Node{xN}, loss, 3e-2)
}

func TestSplitMergeHeadsInverse(t *testing.T) {
	rng := tensor.NewRNG(37)
	x := tensor.New(2, 3, 8)
	rng.FillNormal(x, 0, 1)
	xN := Constant(x)
	back := MergeHeads(SplitHeads(xN, 4), 4)
	if !back.Val.Equal(x) {
		t.Fatal("MergeHeads(SplitHeads(x)) must be identity")
	}
}

func TestGradSplitHeads(t *testing.T) {
	rng := tensor.NewRNG(38)
	x := tensor.New(2, 3, 4)
	rng.FillNormal(x, 0, 1)
	target := tensor.New(4, 3, 2)
	rng.FillNormal(target, 0, 1)
	xN := Leaf(x)
	loss := func() *Node { return MSE(SplitHeads(xN, 2), target) }
	gradCheck(t, []*Node{xN}, loss, 2e-2)
}

func TestGradAddConstBroadcastPassesThrough(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	c := tensor.FromSlice([]float32{10, 20}, 2)
	xN := Leaf(x)
	y := AddConstBroadcast(xN, c)
	if want := tensor.FromSlice([]float32{11, 22, 13, 24}, 2, 2); !y.Val.Equal(want) {
		t.Fatalf("AddConstBroadcast = %v, want %v", y.Val.Data, want.Data)
	}
	Backward(Mean(y))
	for _, g := range xN.Grad.Data {
		if math.Abs(float64(g)-0.25) > 1e-6 {
			t.Fatalf("AddConstBroadcast grad %v, want 0.25", g)
		}
	}
}

func TestGradAddChanBias(t *testing.T) {
	rng := tensor.NewRNG(39)
	x := tensor.New(2, 3, 2, 2)
	b := tensor.New(3)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(b, 0, 1)
	target := tensor.New(2, 3, 2, 2)
	rng.FillNormal(target, 0, 1)
	xN, bN := Leaf(x), Leaf(b)
	loss := func() *Node { return MSE(AddChanBias(xN, bN, tensor.ActNone), target) }
	gradCheck(t, []*Node{xN, bN}, loss, 2e-2)
}

func TestSubGradient(t *testing.T) {
	a := Leaf(tensor.FromSlice([]float32{3}, 1))
	b := Leaf(tensor.FromSlice([]float32{1}, 1))
	Backward(Sum(Sub(a, b)))
	if a.Grad.Data[0] != 1 || b.Grad.Data[0] != -1 {
		t.Fatalf("Sub grads: %v, %v", a.Grad.Data[0], b.Grad.Data[0])
	}
}

func TestScaleGradient(t *testing.T) {
	a := Leaf(tensor.FromSlice([]float32{2}, 1))
	Backward(Sum(Scale(a, -3)))
	if a.Grad.Data[0] != -3 {
		t.Fatalf("Scale grad %v, want -3", a.Grad.Data[0])
	}
}
