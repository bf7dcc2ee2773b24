package autodiff

import (
	"fmt"
	"math"
	"testing"

	"amalgam/internal/tensor"
)

// gradCheck compares autodiff gradients against central differences for
// every element of each parameter.
func gradCheck(t *testing.T, params []*Node, loss func() *Node, tol float64) {
	t.Helper()
	gradCheckProbes(t, params, loss, tol, 0)
}

// gradCheckProbes is gradCheck over probes elements of each parameter,
// spread evenly from its first to its last (every element when probes is 0
// or at least its size): for operands too large to difference whole.
func gradCheckProbes(t *testing.T, params []*Node, loss func() *Node, tol float64, probes int) {
	t.Helper()
	root := loss()
	Backward(root)
	grads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		if p.Grad == nil {
			t.Fatalf("param %d has nil grad after Backward", i)
		}
		grads[i] = p.Grad.Clone()
	}
	const h = 1e-2
	for pi, p := range params {
		numel, count := len(p.Val.Data), len(p.Val.Data)
		if probes > 1 && probes < numel {
			count = probes
		}
		for k := 0; k < count; k++ {
			i := k
			if count < numel {
				i = k * (numel - 1) / (count - 1)
			}
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + h
			fPlus := float64(loss().Scalar())
			p.Val.Data[i] = orig - h
			fMinus := float64(loss().Scalar())
			p.Val.Data[i] = orig
			num := (fPlus - fMinus) / (2 * h)
			got := float64(grads[pi].Data[i])
			diff := math.Abs(num - got)
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
			if diff/scale > tol {
				t.Fatalf("param %d elem %d: autodiff %.6f vs numeric %.6f (rel %.4f)", pi, i, got, num, diff/scale)
			}
		}
	}
}

func TestGradLinearChain(t *testing.T) {
	rng := tensor.NewRNG(1)
	w := tensor.New(4, 3)
	b := tensor.New(3)
	x := tensor.New(2, 4)
	rng.FillNormal(w, 0, 0.5)
	rng.FillNormal(b, 0, 0.5)
	rng.FillNormal(x, 0, 1)
	target := tensor.New(2, 3)
	rng.FillNormal(target, 0, 1)

	wN, bN := Leaf(w), Leaf(b)
	loss := func() *Node {
		y := AddRowBias(MatMul(Constant(x), wN), bN, tensor.ActNone)
		return MSE(Activate(y, tensor.ActTanh), target)
	}
	gradCheck(t, []*Node{wN, bN}, loss, 2e-2)
}

func TestGradActivations(t *testing.T) {
	acts := map[string]tensor.Act{
		"relu":    tensor.ActReLU,
		"relu6":   tensor.ActReLU6,
		"sigmoid": tensor.ActSigmoid,
		"tanh":    tensor.ActTanh,
	}
	// Several shapes, deliberately including sizes that are not multiples
	// of the 8-wide SIMD width so the fused kernels' scalar tails get
	// gradient coverage too.
	shapes := [][]int{{12}, {13}, {3, 13}, {2, 5, 7}, {40}}
	for name, act := range acts {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("%s/%v", name, shape), func(t *testing.T) {
				rng := tensor.NewRNG(2)
				x := tensor.New(shape...)
				rng.FillNormal(x, 0.3, 1) // offset so few elements sit at ReLU kink
				xN := Leaf(x)
				target := tensor.New(shape...)
				rng.FillNormal(target, 0, 1)
				loss := func() *Node { return MSE(Activate(xN, act), target) }
				// Dirty the shape's pool bucket: the activation's value and
				// scratch take recycled buffers first, and the gradient MSE
				// accumulates into must start from zero, not from one.
				var dirty []*tensor.Tensor
				for range 4 {
					d := tensor.Get(shape...)
					d.Fill(7)
					dirty = append(dirty, d)
				}
				for _, d := range dirty {
					tensor.Put(d)
				}
				gradCheck(t, []*Node{xN}, loss, 3e-2)
			})
		}
	}
}

// TestGradConv2dStreamedShapes re-runs the conv gradient check (dX, dW,
// db) at shapes that stress the block loop — spatial sizes that are not
// SIMD-width multiples, a 1×1 kernel, and blockConvCases — with the scratch
// budget shrunk so that the batches split into several blocks.
func TestGradConv2dStreamedShapes(t *testing.T) {
	shrinkConvBudget(t)
	cases := append([]convCase{
		{"batch5-7x9", 5, 3, 4, 7, 9, 3, 2, 1},
		{"batch8-odd", 8, 1, 2, 5, 5, 3, 1, 1},
		{"1x1-kernel", 3, 2, 3, 4, 4, 1, 1, 0},
	}, blockConvCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(66)
			x := tensor.New(tc.batch, tc.inC, tc.h, tc.w)
			w := tensor.New(tc.outC, tc.inC, tc.kernel, tc.kernel)
			b := tensor.New(tc.outC)
			rng.FillNormal(x, 0, 1)
			rng.FillNormal(w, 0, 0.3)
			rng.FillNormal(b, 0, 0.3)
			xN, wN, bN := Leaf(x), Leaf(w), Leaf(b)
			probe := Conv2d(xN, wN, bN, tc.stride, tc.pad, tensor.ActNone)
			target := tensor.New(probe.Val.Shape()...)
			rng.FillNormal(target, 0, 1)
			loss := func() *Node { return MSE(Conv2d(xN, wN, bN, tc.stride, tc.pad, tensor.ActNone), target) }
			gradCheck(t, []*Node{wN, bN, xN}, loss, 2e-2)
		})
	}
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	rng := tensor.NewRNG(3)
	logits := tensor.New(5, 4)
	rng.FillNormal(logits, 0, 2)
	labels := []int{0, 3, 1, 2, 2}
	lN := Leaf(logits)
	loss := func() *Node { return SoftmaxCrossEntropy(lN, labels) }
	gradCheck(t, []*Node{lN}, loss, 2e-2)
}

func TestSoftmaxCrossEntropyValue(t *testing.T) {
	// Uniform logits over C classes → loss = ln C.
	logits := tensor.New(3, 4)
	l := SoftmaxCrossEntropy(Leaf(logits), []int{0, 1, 2})
	want := math.Log(4)
	if math.Abs(float64(l.Scalar())-want) > 1e-5 {
		t.Fatalf("uniform CE = %v, want %v", l.Scalar(), want)
	}
}

func TestGradConv2d(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := tensor.New(2, 2, 5, 5)
	w := tensor.New(3, 2, 3, 3)
	b := tensor.New(3)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.3)
	rng.FillNormal(b, 0, 0.3)
	target := tensor.New(2, 3, 5, 5)
	rng.FillNormal(target, 0, 1)

	xN, wN, bN := Leaf(x), Leaf(w), Leaf(b)
	loss := func() *Node { return MSE(Conv2d(xN, wN, bN, 1, 1, tensor.ActNone), target) }
	gradCheck(t, []*Node{wN, bN, xN}, loss, 2e-2)
}

func TestGradConv2dStride2NoPad(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := tensor.New(1, 1, 6, 6)
	w := tensor.New(2, 1, 2, 2)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.5)
	target := tensor.New(1, 2, 3, 3)
	rng.FillNormal(target, 0, 1)
	xN, wN := Leaf(x), Leaf(w)
	loss := func() *Node { return MSE(Conv2d(xN, wN, nil, 2, 0, tensor.ActNone), target) }
	gradCheck(t, []*Node{wN, xN}, loss, 2e-2)
}

func TestGradPooling(t *testing.T) {
	rng := tensor.NewRNG(6)
	x := tensor.New(2, 2, 4, 4)
	rng.FillNormal(x, 0, 1)
	target4 := tensor.New(2, 2, 2, 2)
	rng.FillNormal(target4, 0, 1)
	t.Run("max", func(t *testing.T) {
		xN := Leaf(x.Clone())
		loss := func() *Node { return MSE(MaxPool2d(xN, 2, 2, 0), target4) }
		gradCheck(t, []*Node{xN}, loss, 2e-2)
	})
	t.Run("avg", func(t *testing.T) {
		xN := Leaf(x.Clone())
		loss := func() *Node { return MSE(AvgPool2d(xN, 2, 2, 0), target4) }
		gradCheck(t, []*Node{xN}, loss, 2e-2)
	})
	t.Run("global", func(t *testing.T) {
		xN := Leaf(x.Clone())
		target := tensor.New(2, 2)
		rng.FillNormal(target, 0, 1)
		loss := func() *Node { return MSE(GlobalAvgPool(xN), target) }
		gradCheck(t, []*Node{xN}, loss, 2e-2)
	})
	t.Run("avg/padding windows", func(t *testing.T) {
		// Kernel 1, pad 1: every border window lies wholly in padding and
		// must read as zero. The output's pool bucket is dirtied first, each
		// buffer with its own value, so a forward that left those windows
		// unwritten would see a different border on each call, and the
		// central differences would show it.
		for v := range 8 {
			d := tensor.Get(2, 2, 6, 6)
			d.Fill(float32(v + 1))
			tensor.Put(d)
		}
		xN := Leaf(x.Clone())
		target6 := tensor.New(2, 2, 6, 6)
		rng.FillNormal(target6, 0, 1)
		loss := func() *Node { return MSE(AvgPool2d(xN, 1, 1, 1), target6) }
		gradCheck(t, []*Node{xN}, loss, 2e-2)
	})
}

func TestGradBatchNorm(t *testing.T) {
	rng := tensor.NewRNG(7)
	x := tensor.New(3, 2, 3, 3)
	rng.FillNormal(x, 1, 2)
	gamma := tensor.Ones(2)
	beta := tensor.New(2)
	rm := tensor.New(2)
	rv := tensor.Ones(2)
	target := tensor.New(3, 2, 3, 3)
	rng.FillNormal(target, 0, 1)

	xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
	loss := func() *Node {
		// Fresh running stats each call so the forward value is pure.
		return MSE(BatchNorm2d(xN, gN, bN, rm.Clone(), rv.Clone(), 0.1, 1e-5, true, tensor.ActNone, nil), target)
	}
	gradCheck(t, []*Node{gN, bN, xN}, loss, 3e-2)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	x := tensor.Ones(1, 1, 2, 2)
	gamma, beta := tensor.Ones(1), tensor.New(1)
	rm := tensor.FromSlice([]float32{0.5}, 1)
	rv := tensor.FromSlice([]float32{4}, 1)
	y := BatchNorm2d(Constant(x), Leaf(gamma), Leaf(beta), rm, rv, 0.1, 0, false, tensor.ActNone, nil)
	want := float32((1.0 - 0.5) / 2.0)
	if math.Abs(float64(y.Val.Data[0]-want)) > 1e-5 {
		t.Fatalf("eval BN = %v, want %v", y.Val.Data[0], want)
	}
	if rm.Data[0] != 0.5 {
		t.Fatal("eval mode must not update running stats")
	}
}

func TestGradLayerNorm(t *testing.T) {
	rng := tensor.NewRNG(8)
	x := tensor.New(4, 6)
	rng.FillNormal(x, 0.5, 2)
	gamma := tensor.Ones(6)
	beta := tensor.New(6)
	target := tensor.New(4, 6)
	rng.FillNormal(target, 0, 1)
	xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
	loss := func() *Node { return MSE(LayerNorm(xN, gN, bN, 1e-5), target) }
	gradCheck(t, []*Node{gN, bN, xN}, loss, 3e-2)
}

func TestGradEmbedding(t *testing.T) {
	rng := tensor.NewRNG(9)
	w := tensor.New(10, 4)
	rng.FillNormal(w, 0, 1)
	ids := [][]int{{1, 2, 1}, {0, 9, 3}}
	wN := Leaf(w)
	target := tensor.New(2, 3, 4)
	rng.FillNormal(target, 0, 1)
	loss := func() *Node { return MSE(Embedding(wN, ids), target) }
	gradCheck(t, []*Node{wN}, loss, 2e-2)
}

func TestGradEmbeddingMean(t *testing.T) {
	rng := tensor.NewRNG(10)
	w := tensor.New(8, 3)
	rng.FillNormal(w, 0, 1)
	ids := [][]int{{1, 1, 2}, {7, 0, 4}}
	wN := Leaf(w)
	target := tensor.New(2, 3)
	rng.FillNormal(target, 0, 1)
	loss := func() *Node { return MSE(EmbeddingMean(wN, ids), target) }
	gradCheck(t, []*Node{wN}, loss, 2e-2)
}

func TestGradGatherCols(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := tensor.New(3, 8)
	rng.FillNormal(x, 0, 1)
	idx := []int{7, 2, 2, 0} // repeats allowed — Amalgam subsets may overlap
	xN := Leaf(x)
	target := tensor.New(3, 4)
	rng.FillNormal(target, 0, 1)
	loss := func() *Node { return MSE(GatherCols(xN, idx), target) }
	gradCheck(t, []*Node{xN}, loss, 2e-2)
}

func TestGradConcat(t *testing.T) {
	rng := tensor.NewRNG(12)
	a := tensor.New(2, 3)
	b := tensor.New(2, 2)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	aN, bN := Leaf(a), Leaf(b)
	target := tensor.New(2, 5)
	rng.FillNormal(target, 0, 1)
	loss := func() *Node { return MSE(ConcatFeatures(aN, bN), target) }
	gradCheck(t, []*Node{aN, bN}, loss, 2e-2)

	c := tensor.New(1, 2, 2, 2)
	d := tensor.New(1, 1, 2, 2)
	rng.FillNormal(c, 0, 1)
	rng.FillNormal(d, 0, 1)
	cN, dN := Leaf(c), Leaf(d)
	target2 := tensor.New(1, 3, 2, 2)
	rng.FillNormal(target2, 0, 1)
	loss2 := func() *Node { return MSE(ConcatChannels(cN, dN), target2) }
	gradCheck(t, []*Node{cN, dN}, loss2, 2e-2)
}

// TestGradAttention checks Attention's gradients against central
// differences: every operand, one head or several (each its own columns of
// the projections), and each operand alone taking a gradient.
func TestGradAttention(t *testing.T) {
	for i, tc := range []struct {
		name        string
		n, t, heads int
		hd          int
		grads       string // which of q, k, v are leaves
	}{
		{"q-k-v", 2, 3, 1, 4, "qkv"},
		{"causal", 1, 5, 1, 3, "qkv"},
		{"heads=2", 2, 3, 2, 2, "qkv"},
		{"heads=4/causal", 1, 4, 4, 2, "qkv"},
		{"q-only", 1, 4, 2, 3, "q--"},
		{"k-only", 1, 4, 2, 3, "-k-"},
		{"v-only", 2, 3, 2, 2, "--v"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(uint64(13 + i))
			nodes, params := make([]*Node, 3), []*Node(nil)
			for j := range nodes {
				x := tensor.New(tc.n, tc.t, tc.heads*tc.hd)
				rng.FillNormal(x, 0, 1)
				nodes[j] = Constant(x)
				if tc.grads[j] != '-' {
					nodes[j] = Leaf(x)
					params = append(params, nodes[j])
				}
			}
			target := tensor.New(tc.n, tc.t, tc.heads*tc.hd)
			rng.FillNormal(target, 0, 0.5)
			loss := func() *Node { return MSE(Attention(nodes[0], nodes[1], nodes[2], tc.heads), target) }
			gradCheck(t, params, loss, 3e-2)
		})
	}
}

func TestDetachBlocksGradient(t *testing.T) {
	// The property Amalgam's model augmenter depends on: a detached tap
	// contributes zero gradient to its source.
	x := tensor.FromSlice([]float32{1, 2}, 1, 2)
	xN := Leaf(x)
	y := Scale(xN, 3)
	tap := Detach(y)
	z := Add(y, tap) // value 2·y but gradient must flow only through y once
	loss := Mean(z)
	Backward(loss)
	// d(mean(2*3x))/dx through the live path only = 3 * (1/2) per element.
	for _, g := range xN.Grad.Data {
		if math.Abs(float64(g)-1.5) > 1e-6 {
			t.Fatalf("detach leaked gradient: grad=%v, want 1.5", g)
		}
	}
}

func TestDropout(t *testing.T) {
	rng := tensor.NewRNG(15)
	x := tensor.Ones(1000)
	xN := Leaf(x)
	out := Dropout(xN, 0.5, rng, true, nil)
	zeros := 0
	for _, v := range out.Val.Data {
		switch v {
		case 0:
			zeros++
		case 2:
		default:
			t.Fatalf("dropout output must be 0 or 2 (inverted scaling), got %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout zeroed %d/1000, want ~500", zeros)
	}
	// Eval mode is identity (same node).
	if Dropout(xN, 0.5, rng, false, nil) != xN {
		t.Fatal("eval-mode dropout should be identity")
	}
	// Backward only flows through kept elements.
	Backward(Mean(out))
	for i, v := range out.Val.Data {
		g := xN.Grad.Data[i]
		if v == 0 && g != 0 {
			t.Fatal("gradient leaked through dropped element")
		}
		if v != 0 && g == 0 {
			t.Fatal("gradient missing on kept element")
		}
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar should panic")
		}
	}()
	Backward(Leaf(tensor.New(2)))
}

func TestGradAccumulatesAcrossBackward(t *testing.T) {
	x := tensor.FromSlice([]float32{1}, 1)
	xN := Leaf(x)
	Backward(Scale(xN, 2))
	Backward(Scale(xN, 2))
	if xN.Grad.Data[0] != 4 {
		t.Fatalf("grad should accumulate: got %v, want 4", xN.Grad.Data[0])
	}
	xN.ZeroGrad()
	if xN.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestSharedSubgraphGradient(t *testing.T) {
	// y = x·x + x → dy/dx = 2x + 1; verifies multi-parent accumulation.
	x := tensor.FromSlice([]float32{3}, 1)
	xN := Leaf(x)
	loss := Sum(Add(Mul(xN, xN), xN))
	Backward(loss)
	if got := xN.Grad.Data[0]; got != 7 {
		t.Fatalf("d(x²+x)/dx at 3 = %v, want 7", got)
	}
}

func TestAddNGradient(t *testing.T) {
	a := Leaf(tensor.FromSlice([]float32{1}, 1))
	b := Leaf(tensor.FromSlice([]float32{2}, 1))
	c := Leaf(tensor.FromSlice([]float32{3}, 1))
	Backward(AddN(a, b, c))
	for _, n := range []*Node{a, b, c} {
		if n.Grad.Data[0] != 1 {
			t.Fatalf("AddN grad = %v, want 1", n.Grad.Data[0])
		}
	}
}

func TestReshapeGradient(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	xN := Leaf(x)
	Backward(Mean(Reshape(xN, 4)))
	for _, g := range xN.Grad.Data {
		if g != 0.25 {
			t.Fatalf("reshape grad %v, want 0.25", g)
		}
	}
}
