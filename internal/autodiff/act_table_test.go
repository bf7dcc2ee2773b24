package autodiff

import (
	"math"
	"testing"

	"amalgam/internal/tensor"
)

// One table, Act × host op, instead of a test per name. Every op that takes
// an Act is a row; every check below runs over every row: value and all
// gradients bit for bit those of Activate(host(…, ActNone), act) — the
// composition of two product ops is the referee — central-difference
// gradients, one result at any worker count on either SIMD backend, and a
// constant allocation count per step (TestActivationStepAllocs).

var (
	allActs    = []tensor.Act{tensor.ActNone, tensor.ActReLU, tensor.ActReLU6, tensor.ActTanh, tensor.ActSigmoid, tensor.ActGELU}
	clampActs  = []tensor.Act{tensor.ActReLU, tensor.ActReLU6}
	smoothActs = []tensor.Act{tensor.ActTanh, tensor.ActSigmoid, tensor.ActGELU}
	actNames   = map[tensor.Act]string{
		tensor.ActNone: "None", tensor.ActReLU: "ReLU", tensor.ActReLU6: "ReLU6",
		tensor.ActTanh: "Tanh", tensor.ActSigmoid: "Sigmoid", tensor.ActGELU: "GELU",
	}
)

// hostOp is one op that ends in an Act. A row's subtest is called name +
// the activation + suffix.
type hostOp struct {
	name, suffix string
	// Operand shapes: small for finite differences; wide in multiples of the
	// 8-lane SIMD width, so a fused per-row run and the referee's flat run
	// split into the same lane groups, and large enough that every row,
	// channel and image loop really splits across workers.
	small, wide [][]int
	// The first leaves operands are trainable; the rest is state the op
	// updates in place (batch norm's running statistics).
	leaves int
	// carry returns operands whose pre-activation is the nine values of row
	// (or, through batch statistics, the row's NaN nine times).
	carry func(row []float32) []*tensor.Tensor
	build func(p []*Node, act tensor.Act) *Node
}

func vec(v ...float32) *tensor.Tensor { return tensor.FromSlice(v, len(v)) }

// negZeros is a bias that leaves every value it is added to unchanged, −0
// included.
func negZeros(n int) *tensor.Tensor {
	return tensor.Full(float32(math.Copysign(0, -1)), n)
}

// samePad is the padding that keeps a stride-1 convolution's plane size.
func samePad(w *Node) int { return w.Val.Dim(2) / 2 }

func batchNormHost(training bool, suffix string) hostOp {
	return hostOp{
		name: "BatchNorm2d", suffix: suffix, leaves: 3,
		small: [][]int{{3, 3, 2, 3}, {3}, {3}, {3}, {3}},
		wide:  [][]int{{8, 13, 32, 32}, {13}, {13}, {13}, {13}},
		// γ = 1, β = −0, running mean 0 and variance 1 − eps: the identity in
		// eval mode. Batch statistics spread the row's NaN to every element.
		carry: func(row []float32) []*tensor.Tensor {
			return []*tensor.Tensor{tensor.FromSlice(row, 1, 1, 3, 3), vec(1), negZeros(1), vec(0), vec(1 - 1e-5)}
		},
		build: func(p []*Node, act tensor.Act) *Node {
			return BatchNorm2d(p[0], p[1], p[2], p[3].Val, p[4].Val, 0.1, 1e-5, training, act)
		},
	}
}

var hostOps = []hostOp{
	{ // the standalone activation: Activate itself
		small: [][]int{{3, 5}}, wide: [][]int{{37, 1000}}, leaves: 1,
		carry: func(row []float32) []*tensor.Tensor { return []*tensor.Tensor{vec(row...)} },
		build: func(p []*Node, act tensor.Act) *Node { return Activate(p[0], act) },
	},
	{
		name: "AddRowBias", leaves: 2,
		small: [][]int{{3, 13}, {13}}, wide: [][]int{{67, 1000}, {1000}},
		carry: func(row []float32) []*tensor.Tensor {
			return []*tensor.Tensor{tensor.FromSlice(row, 1, 9), negZeros(9)}
		},
		build: func(p []*Node, act tensor.Act) *Node { return AddRowBias(p[0], p[1], act) },
	},
	{
		name: "AddChanBias", leaves: 2,
		small: [][]int{{2, 3, 3, 3}, {3}}, wide: [][]int{{9, 13, 16, 16}, {13}},
		carry: func(row []float32) []*tensor.Tensor {
			return []*tensor.Tensor{tensor.FromSlice(row, 1, 1, 3, 3), negZeros(1)}
		},
		build: func(p []*Node, act tensor.Act) *Node { return AddChanBias(p[0], p[1], act) },
	},
	{
		name: "Linear", leaves: 3,
		small: [][]int{{3, 4}, {4, 5}, {5}}, wide: [][]int{{67, 48}, {48, 1000}, {1000}},
		carry: func(row []float32) []*tensor.Tensor {
			return []*tensor.Tensor{tensor.Ones(1, 1), tensor.FromSlice(row, 1, 9), negZeros(9)}
		},
		build: func(p []*Node, act tensor.Act) *Node { return Linear(p[0], p[1], p[2], act) },
	},
	{
		name: "Conv2d", leaves: 2,
		small: [][]int{{2, 2, 5, 5}, {3, 2, 3, 3}}, wide: [][]int{{5, 2, 32, 32}, {4, 2, 3, 3}},
		carry: func(row []float32) []*tensor.Tensor {
			return []*tensor.Tensor{tensor.FromSlice(row, 1, 1, 3, 3), tensor.Ones(1, 1, 1, 1)}
		},
		build: func(p []*Node, act tensor.Act) *Node { return Conv2d(p[0], p[1], nil, 1, samePad(p[1]), act) },
	},
	{
		name: "Conv2d", suffix: "+bias", leaves: 3,
		small: [][]int{{2, 2, 5, 5}, {3, 2, 3, 3}, {3}}, wide: [][]int{{5, 2, 32, 32}, {4, 2, 3, 3}, {4}},
		carry: func(row []float32) []*tensor.Tensor {
			return []*tensor.Tensor{tensor.FromSlice(row, 1, 1, 3, 3), tensor.Ones(1, 1, 1, 1), negZeros(1)}
		},
		build: func(p []*Node, act tensor.Act) *Node { return Conv2d(p[0], p[1], p[2], 1, samePad(p[1]), act) },
	},
	batchNormHost(true, "/training=true"),
	batchNormHost(false, "/training=false"),
}

// plainOp stands in for an op outside the table — n trainable operands, no
// state — where only draw and fwdBwd are wanted.
func plainOp(n int) hostOp { return hostOp{leaves: n} }

// eachActRow runs fn as one subtest per host op × activation in acts.
func eachActRow(t *testing.T, acts []tensor.Act, fn func(t *testing.T, h hostOp, act tensor.Act)) {
	for _, h := range hostOps {
		for _, act := range acts {
			t.Run(h.name+actNames[act]+h.suffix, func(t *testing.T) { fn(t, h, act) })
		}
	}
}

// draw fills operands of the given shapes: trainable ones from N(0.2, 1),
// state from U(0.5, 1.5) (a running variance must stay positive).
func (h hostOp) draw(shapes [][]int, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	operands := make([]*tensor.Tensor, len(shapes))
	for i, sh := range shapes {
		operands[i] = tensor.New(sh...)
		if i < h.leaves {
			rng.FillNormal(operands[i], 0.2, 1)
		} else {
			rng.FillUniform(operands[i], 0.5, 1.5)
		}
	}
	return operands
}

// nodes wraps clones of the operands: leaves first, then state as constants.
func (h hostOp) nodes(operands []*tensor.Tensor) []*Node {
	p := make([]*Node, len(operands))
	for i, o := range operands {
		if i < h.leaves {
			p[i] = Leaf(o.Clone())
		} else {
			p[i] = Constant(o.Clone())
		}
	}
	return p
}

// fwdBwd builds an op over clones of the operands, pushes a fixed
// non-uniform upstream gradient through it and returns everything the op
// produced: its value, the gradient of each trainable operand, and the
// state it updated in place.
func (h hostOp) fwdBwd(operands []*tensor.Tensor, build func(p []*Node) *Node) []*tensor.Tensor {
	p := h.nodes(operands)
	out := build(p)
	res := []*tensor.Tensor{out.Val.Clone()}
	dy := tensor.New(out.Val.Shape()...)
	tensor.NewRNG(83).FillNormal(dy, 0, 1)
	loss := Sum(Mul(out, Constant(dy)))
	Backward(loss)
	for i, n := range p {
		if i < h.leaves {
			res = append(res, n.Grad.Clone())
		} else {
			res = append(res, n.Val)
		}
	}
	Release(loss)
	return res
}

// sameBits reports whether a and b agree bit for bit, a NaN matching a NaN.
func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
			return false
		}
	}
	return true
}

// sameAsReferee demands bit-identical results (fwdBwd's: value, operand
// gradients, state) from fused and referee over the same operands.
func sameAsReferee(t *testing.T, h hostOp, operands []*tensor.Tensor, fused, referee func(p []*Node) *Node) {
	t.Helper()
	got, want := h.fwdBwd(operands, fused), h.fwdBwd(operands, referee)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("result %d (0 = value, then operand gradients, then state) differs from the referee", i)
		}
	}
}

// fusedMatchesComposed is the table's equivalence check: the host ending in
// act against Activate over the host ending in nothing.
func fusedMatchesComposed(t *testing.T, h hostOp, act tensor.Act, operands []*tensor.Tensor) {
	t.Helper()
	sameAsReferee(t, h, operands,
		func(p []*Node) *Node { return h.build(p, act) },
		func(p []*Node) *Node { return Activate(h.build(p, tensor.ActNone), act) })
}

// TestFusedMatchesUnfused pins full equivalence for the clamps and for the
// ops that fold a bias or a second operand into the producing node: the same
// forward values AND the same gradients as the unfused composition, bit for
// bit (the arithmetic per element is identical; only pass structure
// differs). The gradient half matters beyond performance: the
// gradient-leakage attack's victim MLP runs on Linear→ReLU, so a fused
// backward that drifted from its composition would silently change attack
// results.
func TestFusedMatchesUnfused(t *testing.T) {
	eachActRow(t, clampActs, func(t *testing.T, h hostOp, act tensor.Act) {
		fusedMatchesComposed(t, h, act, h.draw(h.wide, 45))
	})

	rng := tensor.NewRNG(84)
	a, b := tensor.New(3, 5, 2, 2), tensor.New(3, 5, 2, 2)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	t.Run("AddReLU", func(t *testing.T) {
		sameAsReferee(t, plainOp(2), []*tensor.Tensor{a, b},
			func(p []*Node) *Node { return AddReLU(p[0], p[1]) },
			func(p []*Node) *Node { return Activate(Add(p[0], p[1]), tensor.ActReLU) })
	})
	t.Run("AddReLU(a,a)", func(t *testing.T) {
		sameAsReferee(t, plainOp(1), []*tensor.Tensor{a},
			func(p []*Node) *Node { return AddReLU(p[0], p[0]) },
			func(p []*Node) *Node { return Activate(Add(p[0], p[0]), tensor.ActReLU) })
	})
	// The biased convolution: one node against the two-node composition.
	cx, cw, cb := tensor.New(3, 2, 8, 8), tensor.New(4, 2, 3, 3), tensor.New(4)
	rng.FillNormal(cx, 0, 1)
	rng.FillNormal(cw, 0, 0.4)
	rng.FillNormal(cb, 0, 0.5)
	t.Run("Conv2d+bias", func(t *testing.T) {
		sameAsReferee(t, plainOp(3), []*tensor.Tensor{cx, cw, cb},
			func(p []*Node) *Node { return Conv2d(p[0], p[1], p[2], 1, 1, tensor.ActNone) },
			func(p []*Node) *Node {
				return AddChanBias(Conv2d(p[0], p[1], nil, 1, 1, tensor.ActNone), p[2], tensor.ActNone)
			})
	})
	recomputedXhatRows(t)
}

// TestFusedActivationsMatchUnfused is the same equivalence for the
// transcendentals, which hold it only where the fused per-row (per-plane)
// runs and the referee's flat run partition into identical 8-lane groups on
// both dispatch backends — the table's wide shapes.
func TestFusedActivationsMatchUnfused(t *testing.T) {
	eachActRow(t, smoothActs, func(t *testing.T, h hostOp, act tensor.Act) {
		fusedMatchesComposed(t, h, act, h.draw(h.wide, 71))
	})
}

// TestFusedMatchesUnfusedOnSpecialValues carries a row of NaN, ±0, ±Inf, the
// smallest denormal, 6 and the next float above it to the pre-activation of
// every host op: with one Act there is one rule for them (NaN propagates, −0
// is kept, a NaN output passes a zero gradient), so fused and composed agree
// off the finite inputs too.
func TestFusedMatchesUnfusedOnSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	row := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), inf, -inf,
		math.Float32frombits(1), 6, math.Nextafter32(6, 7), -1}
	eachActRow(t, allActs[1:], func(t *testing.T, h hostOp, act tensor.Act) {
		operands := h.carry(row)
		// Equal as numbers: a matmul's zeroed accumulator turns −0 into +0,
		// so only the bias-only hosts deliver the sign of zero.
		for i, v := range h.build(h.nodes(operands), tensor.ActNone).Val.Data {
			if v != row[i] && v == v {
				t.Fatalf("fixture: pre-activation[%d] = %v, want the special value %v", i, v, row[i])
			}
		}
		fusedMatchesComposed(t, h, act, operands)
	})
}

// awayFromKinks draws small operands for h, moving on to the next seed
// until no pre-activation lies within 0.05 of a clamp's kink (0 or 6), so a
// finite-difference step of 1e-2 never straddles one.
func (h hostOp) awayFromKinks(seed uint64) []*tensor.Tensor {
	for ; ; seed++ {
		operands := h.draw(h.small, seed)
		clear := true
		for _, v := range h.build(h.nodes(operands), tensor.ActNone).Val.Data {
			if math.Abs(float64(v)) < 0.05 || math.Abs(float64(v)-6) < 0.05 {
				clear = false
			}
		}
		if clear {
			return operands
		}
	}
}

// TestGradFusedActivationEpilogues checks every row's analytic gradients
// against central differences, at widths that are not multiples of the SIMD
// width so both dispatch paths contribute.
func TestGradFusedActivationEpilogues(t *testing.T) {
	eachActRow(t, allActs, func(t *testing.T, h hostOp, act tensor.Act) {
		p := h.nodes(h.awayFromKinks(61))
		target := tensor.New(h.build(p, act).Val.Shape()...)
		tensor.NewRNG(62).FillNormal(target, 0, 1)
		gradCheck(t, p[:h.leaves], func() *Node { return MSE(h.build(p, act), target) }, 3e-2)
	})
}

// actRowsDeterministic are the TestDeterminismAcrossWorkers rows for the
// table.
func actRowsDeterministic(t *testing.T, workerCounts []int) {
	eachActRow(t, allActs, func(t *testing.T, h hostOp, act tensor.Act) {
		operands := h.draw(h.wide, 30)
		sameAtEveryWorkerCount(t, workerCounts, func() []*tensor.Tensor {
			return h.fwdBwd(operands, func(p []*Node) *Node { return h.build(p, act) })
		})
	})
}

// sameAtEveryWorkerCount runs run at one worker and at each of workerCounts,
// with SIMD dispatch off and on, and demands bit-identical results: each
// backend must agree with itself at every worker count (the two round
// differently and are not compared).
func sameAtEveryWorkerCount(t *testing.T, workerCounts []int, run func() []*tensor.Tensor) {
	t.Helper()
	eachBackend(t, func(simd bool) {
		tensor.SetMaxWorkers(1)
		ref := run()
		for _, wk := range workerCounts {
			tensor.SetMaxWorkers(wk)
			for i, got := range run() {
				if !sameBits(got, ref[i]) {
					t.Errorf("simd=%v workers=%d: result %d (0 = value, then operand gradients, then state) not bit-identical to workers=1", simd, wk, i)
				}
			}
		}
	})
}

// eachBackend runs fn with SIMD dispatch off and, where the machine has it,
// on, restoring the dispatch and the worker count afterwards.
func eachBackend(t *testing.T, fn func(simd bool)) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	for _, simd := range []bool{false, true} {
		prev := tensor.SetSIMD(simd)
		if simd && !tensor.SIMDEnabled() {
			tensor.SetSIMD(prev)
			t.Log("AVX2 not available; SIMD dispatch not exercised")
			continue
		}
		fn(simd)
		tensor.SetSIMD(prev)
	}
}
