package autodiff

import (
	"testing"

	"amalgam/internal/tensor"
)

// Gradient checks for the fused bias+activation ops. Inputs are offset
// away from the ReLU kink so central differences stay clean.

func TestGradAddRowBiasReLU(t *testing.T) {
	rng := tensor.NewRNG(41)
	x := tensor.New(3, 5)
	b := tensor.New(5)
	rng.FillNormal(x, 0.4, 1)
	rng.FillNormal(b, 0.2, 0.5)
	target := tensor.New(3, 5)
	rng.FillNormal(target, 0, 1)
	xN, bN := Leaf(x), Leaf(b)
	loss := func() *Node { return MSE(AddRowBiasReLU(xN, bN), target) }
	gradCheck(t, []*Node{xN, bN}, loss, 3e-2)
}

func TestGradAddChanBiasReLU(t *testing.T) {
	rng := tensor.NewRNG(42)
	x := tensor.New(2, 3, 4, 4)
	b := tensor.New(3)
	rng.FillNormal(x, 0.4, 1)
	rng.FillNormal(b, 0.2, 0.5)
	target := tensor.New(2, 3, 4, 4)
	rng.FillNormal(target, 0, 1)
	xN, bN := Leaf(x), Leaf(b)
	loss := func() *Node { return MSE(AddChanBiasReLU(xN, bN), target) }
	gradCheck(t, []*Node{xN, bN}, loss, 3e-2)
}

func TestGradLinearReLU(t *testing.T) {
	rng := tensor.NewRNG(43)
	x := tensor.New(3, 4)
	w := tensor.New(4, 5)
	b := tensor.New(5)
	rng.FillNormal(x, 0.3, 1)
	rng.FillNormal(w, 0, 0.5)
	rng.FillNormal(b, 0.2, 0.3)
	target := tensor.New(3, 5)
	rng.FillNormal(target, 0, 1)
	xN, wN, bN := Leaf(x), Leaf(w), Leaf(b)
	loss := func() *Node { return MSE(LinearReLU(xN, wN, bN), target) }
	gradCheck(t, []*Node{xN, wN, bN}, loss, 3e-2)
}

func TestGradConv2dReLU(t *testing.T) {
	rng := tensor.NewRNG(44)
	x := tensor.New(2, 2, 5, 5)
	w := tensor.New(3, 2, 3, 3)
	b := tensor.New(3)
	rng.FillNormal(x, 0.2, 1)
	rng.FillNormal(w, 0, 0.3)
	rng.FillNormal(b, 0.2, 0.3)
	target := tensor.New(2, 3, 5, 5)
	rng.FillNormal(target, 0, 1)
	xN, wN, bN := Leaf(x), Leaf(w), Leaf(b)
	loss := func() *Node { return MSE(Conv2dReLU(xN, wN, bN, 1, 1), target) }
	gradCheck(t, []*Node{wN, bN, xN}, loss, 2e-2)
}

// TestFusedMatchesUnfused pins full equivalence: the fused ops must
// produce the same forward values AND the same gradients as their unfused
// compositions, bit for bit (the arithmetic per element is identical; only
// pass structure changed). The gradient half matters beyond performance:
// the gradient-leakage attack's victim MLP runs on LinearReLU, so a fused
// backward that drifted from ReLU(AddRowBias(MatMul)) would silently
// change attack results.
func TestFusedMatchesUnfused(t *testing.T) {
	rng := tensor.NewRNG(45)
	x := tensor.New(4, 6)
	w := tensor.New(6, 3)
	b := tensor.New(3)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.5)
	rng.FillNormal(b, 0, 0.5)

	xF, wF, bF := Leaf(x.Clone()), Leaf(w.Clone()), Leaf(b.Clone())
	fused := LinearReLU(xF, wF, bF)
	xP, wP, bP := Leaf(x.Clone()), Leaf(w.Clone()), Leaf(b.Clone())
	plain := ReLU(AddRowBias(MatMul(xP, wP), bP))
	if !fused.Val.Equal(plain.Val) {
		t.Fatal("LinearReLU forward differs from ReLU(AddRowBias(MatMul))")
	}
	Backward(Mean(fused))
	Backward(Mean(plain))
	if !xF.Grad.Equal(xP.Grad) || !wF.Grad.Equal(wP.Grad) || !bF.Grad.Equal(bP.Grad) {
		t.Fatal("LinearReLU gradients differ from ReLU(AddRowBias(MatMul))")
	}

	xc := tensor.New(2, 3, 4, 4)
	bc := tensor.New(3)
	rng.FillNormal(xc, 0, 1)
	rng.FillNormal(bc, 0, 0.5)
	xcF, bcF := Leaf(xc.Clone()), Leaf(bc.Clone())
	fusedC := AddChanBiasReLU(xcF, bcF)
	xcP, bcP := Leaf(xc.Clone()), Leaf(bc.Clone())
	plainC := ReLU(AddChanBias(xcP, bcP))
	if !fusedC.Val.Equal(plainC.Val) {
		t.Fatal("AddChanBiasReLU forward differs from ReLU(AddChanBias)")
	}
	Backward(Mean(fusedC))
	Backward(Mean(plainC))
	if !xcF.Grad.Equal(xcP.Grad) || !bcF.Grad.Equal(bcP.Grad) {
		t.Fatal("AddChanBiasReLU gradients differ from ReLU(AddChanBias)")
	}

	fusedNodeRows(t)
	recomputedXhatRows(t)
}

// stepAllocs measures allocations per forward+backward+Release step after
// a warm-up that fills the scratch pool, with a single worker so kernels
// take the closure-free serial path.
func stepAllocs(t *testing.T, step func()) float64 {
	t.Helper()
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	step() // warm the pool
	return testing.AllocsPerRun(10, step)
}

// The steady-state allocation contract for the normalization/softmax ops:
// all tensor storage comes from the scratch pool, so a full training step
// allocates only the graph skeleton (node structs, backward closures, the
// topo-sort bookkeeping) — a small constant independent of tensor sizes.
// The PR 1 LayerNorm backward allocated one float64 buffer per row (~260
// allocs at this shape); these tests pin the fix and its class.
const graphAllocBudget = 40

func TestLayerNormStepAllocs(t *testing.T) {
	rng := tensor.NewRNG(51)
	x := tensor.New(64, 96)
	rng.FillNormal(x, 0, 1)
	gamma, beta := tensor.Ones(96), tensor.New(96)
	xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
	allocs := stepAllocs(t, func() {
		xN.ZeroGrad()
		gN.ZeroGrad()
		bN.ZeroGrad()
		loss := Mean(LayerNorm(xN, gN, bN, 1e-5))
		Backward(loss)
		Release(loss)
	})
	if allocs > graphAllocBudget {
		t.Fatalf("LayerNorm fwd+bwd step allocates %v/op, budget %d (per-row scratch regression?)", allocs, graphAllocBudget)
	}
}

// TestLayerNormAllocsIndependentOfRows is the regression test for the
// per-row make in the PR 1 backward: allocations must not scale with the
// row count.
func TestLayerNormAllocsIndependentOfRows(t *testing.T) {
	measure := func(rows int) float64 {
		rng := tensor.NewRNG(52)
		x := tensor.New(rows, 64)
		rng.FillNormal(x, 0, 1)
		gamma, beta := tensor.Ones(64), tensor.New(64)
		xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
		return stepAllocs(t, func() {
			xN.ZeroGrad()
			gN.ZeroGrad()
			bN.ZeroGrad()
			loss := Mean(LayerNorm(xN, gN, bN, 1e-5))
			Backward(loss)
			Release(loss)
		})
	}
	small, large := measure(4), measure(256)
	if large > small+2 {
		t.Fatalf("LayerNorm step allocs grew with rows: %v at 4 rows vs %v at 256", small, large)
	}
}

func TestBatchNormStepAllocs(t *testing.T) {
	rng := tensor.NewRNG(53)
	x := tensor.New(8, 16, 8, 8)
	rng.FillNormal(x, 0, 1)
	gamma, beta := tensor.Ones(16), tensor.New(16)
	rm, rv := tensor.New(16), tensor.Ones(16)
	xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
	allocs := stepAllocs(t, func() {
		xN.ZeroGrad()
		gN.ZeroGrad()
		bN.ZeroGrad()
		loss := Mean(BatchNorm2d(xN, gN, bN, rm, rv, 0.1, 1e-5, true))
		Backward(loss)
		Release(loss)
	})
	if allocs > graphAllocBudget {
		t.Fatalf("BatchNorm2d fwd+bwd step allocates %v/op, budget %d", allocs, graphAllocBudget)
	}
}

func TestSoftmaxStepAllocs(t *testing.T) {
	rng := tensor.NewRNG(54)
	x := tensor.New(64, 32)
	rng.FillNormal(x, 0, 2)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 32
	}
	t.Run("SoftmaxLastDim", func(t *testing.T) {
		xN := Leaf(x)
		allocs := stepAllocs(t, func() {
			xN.ZeroGrad()
			loss := Mean(SoftmaxLastDim(xN))
			Backward(loss)
			Release(loss)
		})
		if allocs > graphAllocBudget {
			t.Fatalf("SoftmaxLastDim fwd+bwd step allocates %v/op, budget %d", allocs, graphAllocBudget)
		}
	})
	t.Run("SoftmaxCrossEntropy", func(t *testing.T) {
		xN := Leaf(x.Clone())
		allocs := stepAllocs(t, func() {
			xN.ZeroGrad()
			loss := SoftmaxCrossEntropy(xN, labels)
			Backward(loss)
			Release(loss)
		})
		if allocs > graphAllocBudget {
			t.Fatalf("SoftmaxCrossEntropy fwd+bwd step allocates %v/op, budget %d", allocs, graphAllocBudget)
		}
	})
}

// TestFusedKernelZeroAllocs pins the tensor-level kernels at exactly zero
// allocations on the serial path (SetMaxWorkers(1)).
func TestFusedKernelZeroAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	const rows, d = 32, 48
	rng := tensor.NewRNG(55)
	x := tensor.New(rows, d)
	dy := tensor.New(rows, d)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)
	gamma, beta := tensor.Ones(d), tensor.New(d)
	y := make([]float32, rows*d)
	mean := make([]float32, rows)
	invStd := make([]float32, rows)
	dx := make([]float32, rows*d)
	dg := make([]float32, d)
	db := make([]float32, d)
	labels := make([]int, rows)

	if n := testing.AllocsPerRun(10, func() {
		tensor.LayerNormFwdInto(y, mean, invStd, x.Data, gamma.Data, beta.Data, rows, d, 1e-5)
		tensor.LayerNormBwdInto(dx, dg, db, dy.Data, x.Data, mean, invStd, gamma.Data, rows, d)
		tensor.SoftmaxRowsInto(y, x.Data, rows, d)
		tensor.SoftmaxRowsBwdInto(dx, y, dy.Data, rows, d)
		tensor.SoftmaxXentFwdInto(y, x.Data, labels, rows, d)
		tensor.SoftmaxXentBwdInto(dx, y, labels, rows, d, 1)
		tensor.SoftmaxXentBwdInPlace(y, labels, rows, d, 1)
	}); n != 0 {
		t.Fatalf("fused kernels allocate %v/op on the serial path, want 0", n)
	}
}
