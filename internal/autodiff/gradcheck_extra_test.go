package autodiff

import (
	"fmt"
	"math"
	"strings"
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

// TestGradGlobalMaxPool checks the max pool over one H×W window, on a
// square plane and on a non-square one, where a window of W×H would not
// fit.
func TestGradGlobalMaxPool(t *testing.T) {
	for _, sh := range [][]int{{2, 3, 4, 4}, {2, 3, 2, 5}} {
		t.Run(fmt.Sprint(sh), func(t *testing.T) {
			rng := tensor.NewRNG(33)
			x := tensor.New(sh...)
			rng.FillNormal(x, 0, 2) // well-separated values avoid kink ambiguity
			target := tensor.New(sh[0], sh[1])
			rng.FillNormal(target, 0, 1)
			xN := Leaf(x)
			loss := func() *Node { return MSE(GlobalMaxPool(xN), target) }
			gradCheck(t, []*Node{xN}, loss, 3e-2)
		})
	}
}

// gradCheckMul gradchecks Mul(x, s) for x of shape xs against a broadcast s
// of shape ss, both leaves, s drawn in [0.2, 1).
func gradCheckMul(t *testing.T, seed uint64, xs, ss []int) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	x, s, target := tensor.New(xs...), tensor.New(ss...), tensor.New(xs...)
	rng.FillNormal(x, 0, 1)
	rng.FillUniform(s, 0.2, 1)
	rng.FillNormal(target, 0, 1)
	xN, sN := Leaf(x), Leaf(s)
	loss := func() *Node { return MSE(Mul(xN, sN), target) }
	gradCheck(t, []*Node{xN, sN}, loss, 2e-2)
}

// TestGradMulChannelScale is CBAM's channel attention: a per-sample,
// per-channel scale [N, C, 1, 1] that takes a gradient.
func TestGradMulChannelScale(t *testing.T) {
	gradCheckMul(t, 34, []int{2, 3, 3, 3}, []int{2, 3, 1, 1})
}

// TestGradMulSpatialScale is CBAM's spatial attention: one [N, 1, H, W]
// map for every channel.
func TestGradMulSpatialScale(t *testing.T) {
	gradCheckMul(t, 35, []int{2, 3, 3, 3}, []int{2, 1, 3, 3})
}

// TestGradMulBroadcast covers the rest of the rule: a leading-axis table
// [1, T, D], a run of two inner axes, and the same shape.
func TestGradMulBroadcast(t *testing.T) {
	for _, c := range []struct {
		name   string
		xs, ss []int
	}{
		{"leading-axis", []int{3, 2, 4}, []int{1, 2, 4}},
		{"inner-run", []int{2, 3, 2, 2}, []int{2, 1, 1, 2}},
		{"same-shape", []int{2, 3, 4}, []int{2, 3, 4}},
	} {
		t.Run(c.name, func(t *testing.T) { gradCheckMul(t, 40, c.xs, c.ss) })
	}
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

// TestSplitMergeHeadsInverse: the referee's head merge undoes its head
// split (attention_test.go).
func TestSplitMergeHeadsInverse(t *testing.T) {
	rng := tensor.NewRNG(37)
	x := tensor.New(2, 3, 8)
	rng.FillNormal(x, 0, 1)
	xN := Constant(x)
	back := mergeHeads(splitHeads(xN, 4), 4)
	if !back.Val.Equal(x) {
		t.Fatal("mergeHeads(splitHeads(x)) must be identity")
	}
}

// TestGradAddConstBroadcastPassesThrough: Add with a broadcast constant b
// adds b to every row of a and hands its own gradient buffer to a.
func TestGradAddConstBroadcastPassesThrough(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	c := tensor.FromSlice([]float32{10, 20}, 1, 2)
	xN := Leaf(x)
	y := Add(xN, Constant(c))
	if want := tensor.FromSlice([]float32{11, 22, 13, 24}, 2, 2); !y.Val.Equal(want) {
		t.Fatalf("Add = %v, want %v", y.Val.Data, want.Data)
	}
	Backward(Mean(y))
	for _, g := range xN.Grad.Data {
		if math.Abs(float64(g)-0.25) > 1e-6 {
			t.Fatalf("Add grad %v, want 0.25", g)
		}
	}

	a := Scale(xN, 1) // an interior a, which can take the buffer over
	y = Add(a, Constant(c))
	g := tensor.Get(2, 2)
	g.Fill(1)
	y.Grad = g
	y.backward()
	if a.Grad != g {
		t.Fatal("broadcast Add copied its gradient instead of handing the buffer to a")
	}
}

// TestBroadcastRefusals: Add and Mul refuse a b that is not a's shape with
// one run of axes set to 1, and Add refuses a broadcast b that requires a
// gradient, which no caller has.
func TestBroadcastRefusals(t *testing.T) {
	a := Leaf(tensor.New(2, 3, 4))
	for _, c := range []struct {
		name string
		op   func() *Node
	}{
		{"two-runs", func() *Node { return Mul(a, Constant(tensor.New(1, 3, 1))) }},
		{"run-not-ones", func() *Node { return Mul(a, Constant(tensor.New(2, 2, 4))) }},
		{"rank", func() *Node { return Add(a, Constant(tensor.New(3, 4))) }},
		{"larger-b", func() *Node { return Add(Constant(tensor.New(1, 3, 4)), Constant(tensor.New(2, 3, 4))) }},
		{"add-broadcast-grad", func() *Node { return Add(a, Leaf(tensor.New(1, 3, 4))) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "autodiff: ") {
					t.Fatalf("got panic %q, want autodiff's refusal", msg)
				}
			}()
			c.op()
		})
	}
	Add(a, Leaf(tensor.New(2, 3, 4))) // the same shape takes both gradients
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
