package autodiff

import (
	"fmt"
	"testing"

	"amalgam/internal/tensor"
)

// A transformer block's residual add folded into the op producing its
// summand: Linear's epilogue act(x·W + b + r), and Dropout's r + mask⊙a.
// Each is refereed by the Add composition it replaced.

// residualShapes are s [N, T, D], the block's input and residual, then
// the projection's W [D, D] and b [D]: odd sizes, so GEMM tails, lone rows
// and the SIMD remainder all show.
var residualShapes = [][]int{{3, 7, 13}, {13, 13}, {13}}

// projection is the op whose output the residual add reads: the rows of s
// through W and b.
func projection(p []*Node, act tensor.Act, r *Node) *Node {
	s := p[0].Val.Shape()
	return Linear(Reshape(p[0], s[0]*s[1], s[2]), p[1], p[2], act, r)
}

// withScale adds 0.5·s to a block's output: s then takes three gradient
// terms — the projection's dX, the residual's share and the Scale's — so
// only the add's order, the residual's share before the projection's,
// gives the referee's bits.
func withScale(out *Node, p []*Node) *Node { return Add(out, Scale(p[0], 0.5)) }

// TestLinearResidualMatchesAdd: Linear(x, w, b, act, r) against
// Activate(Add(r, Linear(x, w, b, ActNone, nil)), act) — value and every
// operand's gradient bit for bit, r a [N, T, D] sequence over the
// projection's [N·T, D] rows, at 1, 2, 3 and 8 workers on both SIMD
// backends.
func TestLinearResidualMatchesAdd(t *testing.T) {
	h := plainOp(3)
	operands := h.draw(residualShapes, 91)
	for _, act := range []tensor.Act{tensor.ActNone, tensor.ActReLU, tensor.ActReLU6} {
		eachBackend(t, func(simd bool) {
			for _, wk := range []int{1, 2, 3, 8} {
				tensor.SetMaxWorkers(wk)
				t.Run(fmt.Sprintf("%s/simd=%v/workers=%d", actNames[act], simd, wk), func(t *testing.T) {
					sameAsReferee(t, h, operands,
						func(p []*Node) *Node { return withScale(projection(p, act, p[0]), p) },
						func(p []*Node) *Node {
							a := Reshape(projection(p, tensor.ActNone, nil), p[0].Val.Shape()...)
							return withScale(Activate(Add(p[0], a), act), p)
						})
				})
			}
		})
	}
}

// TestDropoutResidualMatchesAdd: Dropout(a, p, rng, training, r) against
// Add(r, Dropout(a, p, rng, training, nil)) at p 0 and 0.1, training on and
// off, 1, 2, 3 and 8 workers and both SIMD backends — value, every
// operand's gradient and the dropout stream's cursor afterwards, bit for
// bit: the same draws in the same order, each before its element's add.
func TestDropoutResidualMatchesAdd(t *testing.T) {
	h := plainOp(3)
	operands := h.draw(residualShapes, 92)
	for _, p := range []float32{0, 0.1} {
		for _, training := range []bool{true, false} {
			eachBackend(t, func(simd bool) {
				for _, wk := range []int{1, 2, 3, 8} {
					tensor.SetMaxWorkers(wk)
					name := fmt.Sprintf("p=%v/training=%v/simd=%v/workers=%d", p, training, simd, wk)
					t.Run(name, func(t *testing.T) {
						fusedRNG, refRNG := tensor.NewRNG(93), tensor.NewRNG(93)
						sameAsReferee(t, h, operands,
							func(ps []*Node) *Node {
								return withScale(Dropout(projection(ps, tensor.ActNone, nil), p, fusedRNG, training, ps[0]), ps)
							},
							func(ps []*Node) *Node {
								a := Reshape(projection(ps, tensor.ActNone, nil), ps[0].Val.Shape()...)
								return withScale(Add(ps[0], Dropout(a, p, refRNG, training, nil)), ps)
							})
						if got, want := fusedRNG.Uint64(), refRNG.Uint64(); got != want {
							t.Fatalf("the stream's next draw is %#x after the fused op, %#x after the composition", got, want)
						}
					})
				}
			})
		}
	}
}

// TestResidualEpiloguesKeepNoSum: a fused residual add is one node whose
// parents are the producer's operands and the residual — no node holds
// the summand alone — and the dropout's scratch is still its mask alone.
func TestResidualEpiloguesKeepNoSum(t *testing.T) {
	p := plainOp(3).nodes(plainOp(3).draw(residualShapes, 94))
	lin := projection(p, tensor.ActNone, p[0])
	if len(lin.parents) != 4 || lin.parents[3] != p[0] || !lin.Val.SameShape(p[0].Val) {
		t.Fatalf("Linear with a residual has parents %d and shape %v, want x, W, b, r and r's shape %v", len(lin.parents), lin.Val.Shape(), p[0].Val.Shape())
	}
	drop := Dropout(projection(p, tensor.ActNone, nil), 0.1, tensor.NewRNG(95), true, p[0])
	if len(drop.parents) != 2 || drop.parents[1] != p[0] || len(drop.scratch) != 1 || !drop.Val.SameShape(p[0].Val) {
		t.Fatalf("Dropout with a residual has %d parents and %d scratch buffers, want a and r, and the mask", len(drop.parents), len(drop.scratch))
	}
	Release(lin)
	Release(drop)
}

// TestGradResidualEpilogues checks every operand's gradient, the
// residual's among them, against central differences: Linear's residual, a
// separate [N, T, D] operand over its [N·T, D] rows, under tanh; and the
// dropout's at p = 0.25, the stream re-seeded for every evaluation, so the
// mask is fixed.
func TestGradResidualEpilogues(t *testing.T) {
	rng := tensor.NewRNG(96)
	leaf := func(shape ...int) *Node {
		v := tensor.New(shape...)
		rng.FillNormal(v, 0, 1)
		return Leaf(v)
	}
	x, w, b, r := leaf(6, 4), leaf(4, 3), leaf(3), leaf(2, 3, 3)
	target := tensor.New(2, 3, 3)
	rng.FillNormal(target, 0, 1)
	params := []*Node{x, w, b, r}
	t.Run("Linear", func(t *testing.T) {
		gradCheck(t, params, func() *Node { return MSE(Linear(x, w, b, tensor.ActTanh, r), target) }, 2e-2)
	})
	for _, p := range params {
		p.Grad = nil
	}
	t.Run("Dropout", func(t *testing.T) {
		gradCheck(t, params, func() *Node {
			return MSE(Dropout(Linear(x, w, b, tensor.ActNone, nil), 0.25, tensor.NewRNG(97), true, r), target)
		}, 2e-2)
	})
}
