package autodiff

import (
	"testing"

	"amalgam/internal/tensor"
)

// Steady-state allocation pins: all tensor storage comes from the scratch
// pool, so a full forward+backward+Release step allocates only the graph
// skeleton.

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
		loss := Mean(BatchNorm2d(xN, gN, bN, rm, rv, 0.1, 1e-5, true, tensor.ActNone))
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

// TestActivationStepAllocs pins every row of the Act × host-op table at the
// constant-graph-skeleton class: an activation costs its op no allocation
// beyond the node it already is.
func TestActivationStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; pool-hit alloc counts are meaningless")
	}
	eachActRow(t, allActs, func(t *testing.T, h hostOp, act tensor.Act) {
		p := h.nodes(h.draw(h.wide, 73))
		allocs := stepAllocs(t, func() {
			for _, n := range p {
				n.ZeroGrad()
			}
			loss := Mean(h.build(p, act))
			Backward(loss)
			Release(loss)
		})
		if allocs > graphAllocBudget {
			t.Fatalf("fwd+bwd step allocates %v/op, budget %d", allocs, graphAllocBudget)
		}
	})
}

// TestConvBackwardStepAllocs pins the streamed conv forward+backward at
// the constant-graph-skeleton class — the path PR 1's zero-alloc contract
// previously exempted (it retained one pooled column matrix per image;
// those still came from the pool, but the per-image bookkeeping slice and
// its registration scaled with the batch).
func TestConvBackwardStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; pool-hit alloc counts are meaningless")
	}
	rng := tensor.NewRNG(76)
	x := tensor.New(16, 2, 12, 12)
	w := tensor.New(8, 2, 3, 3)
	b := tensor.New(8)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.3)
	rng.FillNormal(b, 0, 0.3)
	wN, bN := Leaf(w), Leaf(b)
	allocs := stepAllocs(t, func() {
		wN.ZeroGrad()
		bN.ZeroGrad()
		loss := Mean(Conv2d(Constant(x), wN, bN, 1, 1, tensor.ActNone))
		Backward(loss)
		Release(loss)
	})
	if allocs > graphAllocBudget {
		t.Fatalf("streamed conv fwd+bwd step allocates %v/op, budget %d", allocs, graphAllocBudget)
	}
}

// TestConvBackwardAllocsIndependentOfBatch is the regression test for the
// streaming rewrite: step allocations must not scale with the batch size
// (the retained-columns design kept a []*Tensor of length n plus n live
// pool buffers across the backward).
func TestConvBackwardAllocsIndependentOfBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; pool-hit alloc counts are meaningless")
	}
	measure := func(batch int) float64 {
		rng := tensor.NewRNG(77)
		x := tensor.New(batch, 1, 10, 10)
		rng.FillNormal(x, 0, 1)
		w := tensor.New(4, 1, 3, 3)
		rng.FillNormal(w, 0, 0.3)
		wN := Leaf(w)
		return stepAllocs(t, func() {
			wN.ZeroGrad()
			loss := Mean(Conv2d(Constant(x), wN, nil, 1, 1, tensor.ActNone))
			Backward(loss)
			Release(loss)
		})
	}
	small, large := measure(2), measure(32)
	if large > small+4 {
		t.Fatalf("conv step allocs grew with batch: %v at 2 vs %v at 32", small, large)
	}
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
