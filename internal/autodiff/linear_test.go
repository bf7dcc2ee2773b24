package autodiff

import (
	"fmt"
	"testing"

	"amalgam/internal/tensor"
)

// linearCase is one geometry for the fused Linear ops: which operands are
// trainable, (for the loss head) which label every row carries, and how
// many elements of each operand the gradient check probes (0: all).
type linearCase struct {
	name           string
	n, in, out     int
	label          int
	constX, constB bool
	probes         int
}

var linearCases = []linearCase{
	{name: "all-leaves", n: 3, in: 4, out: 5, label: 2},
	{name: "one-row", n: 1, in: 4, out: 5, label: 1},
	{name: "one-class", n: 3, in: 4, out: 1, label: 0},
	{name: "first-label", n: 3, in: 2, out: 5, label: 0},
	{name: "last-label", n: 3, in: 2, out: 5, label: 4},
	{name: "constant-bias", n: 3, in: 4, out: 5, label: 3, constB: true},
	{name: "constant-x", n: 3, in: 4, out: 5, label: 3, constX: true},
	// The loss head's row blocks: 2¹⁸/2000 = 131 rows round down to 128, and
	// 390 rows are three of them and a 6-row tail; 2¹⁸/40000 = 6 rounds down
	// to the 4-row floor, and 11 rows are 4 + 4 + 3.
	{name: "row-blocks", n: 390, in: 8, out: 2000, label: 1999, probes: 40},
	{name: "four-row-blocks", n: 11, in: 3, out: 40000, label: 7, probes: 40},
}

// build draws x, W, b for the case and returns them as nodes plus the
// subset that is trainable.
func (c linearCase) build(seed uint64) (x, w, b *Node, params []*Node) {
	rng := tensor.NewRNG(seed)
	xt, wt, bt := tensor.New(c.n, c.in), tensor.New(c.in, c.out), tensor.New(c.out)
	rng.FillNormal(xt, 0, 1)
	rng.FillNormal(wt, 0, 0.5)
	rng.FillNormal(bt, 0, 0.5)
	x, w, b = Leaf(xt), Leaf(wt), Leaf(bt)
	if c.constX {
		x = Constant(xt)
	}
	if c.constB {
		b = Constant(bt)
	}
	for _, p := range []*Node{x, w, b} {
		if p.requiresGrad {
			params = append(params, p)
		}
	}
	return x, w, b, params
}

func (c linearCase) labels() []int {
	labels := make([]int, c.n)
	for i := range labels {
		labels[i] = c.label
	}
	return labels
}

func TestGradLinear(t *testing.T) {
	for _, c := range linearCases {
		t.Run(c.name, func(t *testing.T) {
			x, w, b, params := c.build(61)
			target := tensor.New(c.n, c.out)
			tensor.NewRNG(62).FillNormal(target, 0, 1)
			gradCheckProbes(t, params, func() *Node { return MSE(Linear(x, w, b, tensor.ActNone, nil), target) }, 2e-2, c.probes)
		})
	}
}

func TestGradLinearSoftmaxCrossEntropy(t *testing.T) {
	for _, c := range linearCases {
		t.Run(c.name, func(t *testing.T) {
			x, w, b, params := c.build(63)
			labels := c.labels()
			gradCheckProbes(t, params, func() *Node { return LinearSoftmaxCrossEntropy(x, w, b, labels) }, 2e-2, c.probes)
		})
	}
}

// TestFusedMatchesUnfusedLinear is TestFusedMatchesUnfused for the two
// activation-free ops, over every linearCase: value and every gradient bit
// for bit those of the MatMul → AddRowBias (→ SoftmaxCrossEntropy) referee.
// A case whose logits span several of the loss head's row blocks runs at
// every worker count × SIMD off/on, the referee under the same settings.
func TestFusedMatchesUnfusedLinear(t *testing.T) {
	sameGrads := func(t *testing.T, what string, fused, plain []*Node) {
		t.Helper()
		for i := range fused {
			if !fused[i].Grad.Equal(plain[i].Grad) {
				t.Fatalf("%s: gradient of trainable operand %d differs from the unfused composition", what, i)
			}
		}
	}
	check := func(t *testing.T, c linearCase) {
		xF, wF, bF, fusedParams := c.build(64)
		xP, wP, bP, plainParams := c.build(64)
		fused, plain := Linear(xF, wF, bF, tensor.ActNone, nil), AddRowBias(MatMul(xP, wP), bP, tensor.ActNone)
		if !fused.Val.Equal(plain.Val) {
			t.Fatal("Linear forward differs from AddRowBias(MatMul)")
		}
		Backward(Mean(fused))
		Backward(Mean(plain))
		sameGrads(t, "Linear", fusedParams, plainParams)

		xF, wF, bF, fusedParams = c.build(65)
		xP, wP, bP, plainParams = c.build(65)
		labels := c.labels()
		fusedLoss := LinearSoftmaxCrossEntropy(xF, wF, bF, labels)
		plainLoss := SoftmaxCrossEntropy(AddRowBias(MatMul(xP, wP), bP, tensor.ActNone), labels)
		if !fusedLoss.Val.Equal(plainLoss.Val) {
			t.Fatalf("LinearSoftmaxCrossEntropy = %v, SoftmaxCrossEntropy(AddRowBias(MatMul)) = %v", fusedLoss.Scalar(), plainLoss.Scalar())
		}
		// A non-unit upstream gradient exercises the scale the in-place
		// backward folds into the probabilities.
		Backward(Scale(fusedLoss, 0.7))
		Backward(Scale(plainLoss, 0.7))
		sameGrads(t, "LinearSoftmaxCrossEntropy", fusedParams, plainParams)
	}
	for _, c := range linearCases {
		t.Run(c.name, func(t *testing.T) {
			if headBlockRows(c.n, c.out) >= c.n {
				check(t, c)
				return
			}
			eachBackend(t, func(simd bool) {
				for _, wk := range []int{1, 2, 3, 8} {
					tensor.SetMaxWorkers(wk)
					t.Run(fmt.Sprintf("simd=%v/workers=%d", simd, wk), func(t *testing.T) { check(t, c) })
				}
			})
		})
	}
}

// poolDelta runs fn and returns how many pool Gets it made, hits and
// misses together.
func poolDelta(fn func()) int64 {
	h0, m0 := tensor.PoolStats()
	fn()
	h1, m1 := tensor.PoolStats()
	return (h1 - h0) + (m1 - m0)
}

// TestAccumulateOwned pins the hand-over contract: the first contribution
// becomes the gradient itself, a later one is added and its buffer goes
// back to the pool, and Release hands an adopted buffer back exactly once.
func TestAccumulateOwned(t *testing.T) {
	fill := func(v float32) *tensor.Tensor {
		tmp := tensor.Get(2, 3)
		tmp.Fill(v)
		return tmp
	}
	leaf := Leaf(tensor.New(2, 3))
	n := Scale(leaf, 1) // an interior node, so Release owns its gradient

	first := fill(2)
	n.accumulateOwned(first)
	if n.Grad != first {
		t.Fatal("first contribution was not adopted as the gradient")
	}
	second := fill(3)
	n.accumulateOwned(second)
	if n.Grad != first {
		t.Fatal("second contribution replaced the adopted gradient")
	}
	for _, g := range n.Grad.Data {
		if g != 5 {
			t.Fatalf("gradient %v after 2 + 3, want 5", n.Grad.Data)
		}
	}
	// The second buffer went back to the pool: the next Get of its bucket
	// is a hit.
	_, m0 := tensor.PoolStats()
	again := tensor.Get(2, 3)
	if _, m1 := tensor.PoolStats(); m1 != m0 {
		t.Fatal("the added temporary was not returned to the pool")
	}
	if again == first {
		t.Fatal("the pool handed out the adopted gradient while the node still owns it")
	}
	tensor.Put(again)

	// A node outside the backward pass adopts nothing and leaks nothing.
	c := Constant(tensor.New(2, 3))
	c.accumulateOwned(fill(1))
	if c.Grad != nil {
		t.Fatal("a constant adopted a gradient")
	}

	// Release returns the adopted buffer once; a second Release must not
	// Put it again (two later Gets would then share storage).
	Release(n)
	Release(n)
	if n.Grad != nil {
		t.Fatal("Release kept the adopted gradient")
	}
	a, b := tensor.Get(2, 3), tensor.Get(2, 3)
	if a == b || &a.Data[0] == &b.Data[0] {
		t.Fatal("double Release put the adopted gradient into the pool twice")
	}
	tensor.Put(a)
	tensor.Put(b)

	// A leaf never adopts: its gradient outlives every step, so it is a
	// copy at the parameter's exact size (a [2, 3] bucket holds 8 floats)
	// and the temporary goes back to the pool.
	w := Leaf(tensor.New(2, 3))
	g := fill(4)
	w.accumulateOwned(g)
	if w.Grad == g || cap(w.Grad.Data) != 6 || w.Grad.Data[5] != 4 {
		t.Fatalf("a leaf's first owned contribution must be copied to exact size, got cap %d", cap(w.Grad.Data))
	}
	w.accumulateOwned(fill(1))
	Release(Mean(w))
	if cap(w.Grad.Data) != 6 || w.Grad.Data[0] != 5 {
		t.Fatalf("leaf gradient %v after 4 + 1 and Release, want all 5", w.Grad.Data)
	}

	// Pool balance over a whole step that adopts (MatMul hands dA and dB
	// over): a warmed step takes every buffer from the pool and Release
	// puts every one back, so a repeat makes the same Gets with no miss.
	x := tensor.New(4, 3)
	tensor.NewRNG(66).FillNormal(x, 0, 1)
	wN := Leaf(tensor.New(3, 2))
	tensor.NewRNG(67).FillNormal(wN.Val, 0, 1)
	step := func() {
		wN.ZeroGrad()
		loss := Mean(MatMul(Activate(MatMul(Constant(x), wN), tensor.ActTanh), Constant(tensor.New(2, 2))))
		Backward(loss)
		Release(loss)
	}
	step()
	step()
	_, m0 = tensor.PoolStats()
	gets := poolDelta(step)
	if again := poolDelta(step); again != gets {
		t.Fatalf("pool Gets per step drifted: %d then %d", gets, again)
	}
	if _, m1 := tensor.PoolStats(); m1 != m0 {
		t.Fatalf("warmed steps missed the pool %d times: adopted buffers are not coming back", m1-m0)
	}
}

// TestFirstTouchCopyNeverAliases: a consumer's out.Grad reaches both
// parents of Add, and the same node twice in Add(a, a) and AddN(a, a, b).
// Only the last receiver may take the buffer over; every earlier one must
// get its own copy. Were a first contribution aliased instead, the next one
// would be added into the shared storage — doubling it in place and then
// returning live memory to the pool. Interior gradients are gone once
// Backward has passed them, so the hazard is observed where it lands: in
// the leaf's gradient, which every path feeds.
func TestFirstTouchCopyNeverAliases(t *testing.T) {
	x := tensor.FromSlice([]float32{1, -2, 3}, 3)
	leaf := Leaf(x)
	a := Scale(leaf, 2) // interior: its gradient starts nil inside Backward
	b := Scale(leaf, 3)
	sumAA, sumAB, sumAAB := Add(a, a), Add(a, b), AddN(a, a, b)
	root := Sum(AddN(sumAA, sumAB, sumAAB))
	Backward(root)
	// d/dleaf Σ(2a + (a + b) + (2a + b)) = 5·2 + 2·3 = 16.
	for i, g := range leaf.Grad.Data {
		if g != 16 {
			t.Fatalf("leaf grad[%d] = %v, want 16: a gradient was modified through an alias", i, g)
		}
	}
	for _, n := range []*Node{a, b, sumAA, sumAB, sumAAB} {
		if n.Grad != nil {
			t.Fatal("an interior gradient outlived its node's backward")
		}
	}
	Release(root)
}

// TestAccumulateShapeMismatchPanics keeps the check AddInto used to make on
// every contribution, now that the first one is a copy or an adoption.
func TestAccumulateShapeMismatchPanics(t *testing.T) {
	for _, owned := range []bool{false, true} {
		t.Run(fmt.Sprintf("owned=%v", owned), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("a [3, 2] gradient for a [2, 3] value did not panic")
				}
			}()
			n := Leaf(tensor.New(2, 3))
			if owned {
				n.accumulateOwned(tensor.Get(3, 2))
			} else {
				n.accumulate(tensor.New(3, 2))
			}
		})
	}
}
