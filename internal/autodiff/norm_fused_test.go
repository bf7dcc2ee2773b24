package autodiff

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"amalgam/internal/tensor"
)

// Tests for the fixtures the Act × host-op table cannot draw at random —
// batch-norm outputs placed around the clamps' kinks, the residual epilogue —
// and for the norms' recomputed x̂.

// clusters fills t with values drawn around the given centres (±0.1), so a
// normalised, affinely mapped copy of it stays a known distance away from
// the kinks of ReLU and ReLU6 under a finite-difference step.
func clusters(rng *tensor.RNG, t *tensor.Tensor, centres ...float32) {
	rng.FillUniform(t, -0.1, 0.1)
	for i := range t.Data {
		t.Data[i] += centres[i%len(centres)]
	}
}

func TestGradBatchNormActivation(t *testing.T) {
	acts := []struct {
		name string
		act  tensor.Act
		// gamma/beta that put the three x̂ clusters (≈ −1.2, 0, 1.2) below
		// the activation's range, inside it, and (ReLU6) above it.
		gamma, beta float32
	}{
		{"ReLU", tensor.ActReLU, 1, 0.5},
		{"ReLU6", tensor.ActReLU6, 4, 3},
	}
	for _, act := range acts {
		for _, training := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/training=%v", act.name, training), func(t *testing.T) {
				rng := tensor.NewRNG(81)
				x := tensor.New(3, 3, 2, 3) // 18 values per channel, six per cluster
				clusters(rng, x, -1, 0, 1)
				gamma, beta := tensor.Full(act.gamma, 3), tensor.Full(act.beta, 3)
				// Channel 2 is entirely ≤ 0 after the affine map: its mask is
				// all zeros and every gradient through it must vanish.
				gamma.Data[2], beta.Data[2] = 0.5, -3
				rm, rv := tensor.New(3), tensor.Full(0.7, 3)
				target := tensor.New(3, 3, 2, 3)
				rng.FillNormal(target, 0, 1)
				xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
				var out *Node
				loss := func() *Node {
					// Fresh running stats each call so the forward value is pure.
					out = BatchNorm2d(xN, gN, bN, rm.Clone(), rv.Clone(), 0.1, 1e-5, training, act.act, nil)
					return MSE(out, target)
				}
				gradCheck(t, []*Node{gN, bN, xN}, loss, 3e-2)
				var zero, pass int
				for i, v := range out.Val.Data {
					switch {
					case (i/6)%3 == 2:
						if v != 0 {
							t.Fatalf("dead channel produced %v", v)
						}
					case v == 0 || v == 6:
						zero++
					default:
						pass++
					}
				}
				if zero == 0 || pass == 0 {
					t.Fatalf("fixture exercises only one side of the activation: %d clamped, %d passed", zero, pass)
				}
			})
		}
	}

	// N·HW = 1: the batch variance is zero, x̂ is zero, the output is beta.
	t.Run("single-element", func(t *testing.T) {
		x := tensor.FromSlice([]float32{0.3, -0.7}, 1, 2, 1, 1)
		gamma := tensor.FromSlice([]float32{1.5, 0.5}, 2)
		beta := tensor.FromSlice([]float32{1, -1}, 2)
		target := tensor.FromSlice([]float32{0.2, 0.4}, 1, 2, 1, 1)
		xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
		for _, act := range acts {
			loss := func() *Node {
				return MSE(BatchNorm2d(xN, gN, bN, tensor.New(2), tensor.Ones(2), 0.1, 1e-5, true, act.act, nil), target)
			}
			gradCheck(t, []*Node{gN, bN, xN}, loss, 3e-2)
			xN.Grad, gN.Grad, bN.Grad = nil, nil, nil
		}
	})
}

// TestGradBatchNorm2dResidual checks every residual case's gradients, and
// a constant residual's, against central differences through ReLU, on
// operands whose pre-activations stay clear of the kink.
func TestGradBatchNorm2dResidual(t *testing.T) {
	constant := residualCase{name: "constant", leaves: 3,
		shapes: func(n, c, hw int) [][]int {
			return [][]int{{n, c, hw, hw}, {c}, {c}, {c}, {c}, {n, c, hw, hw}}
		},
		residual: func(p []*Node) *Node { return Constant(p[5].Val) },
	}
	for _, rc := range append(residualCases, constant) {
		t.Run(rc.name, func(t *testing.T) {
			h := plainOp(rc.leaves)
			for seed := uint64(82); ; seed++ {
				p := h.nodes(h.draw(rc.shapes(3, 3, 2), seed))
				pre := rc.build(tensor.ActNone, true)(p).parents[0].Val
				if slices.ContainsFunc(pre.Data, func(v float32) bool { return math.Abs(float64(v)) < 0.05 }) {
					continue
				}
				target := tensor.New(pre.Shape()...)
				tensor.NewRNG(seed).FillNormal(target, 0, 1)
				gradCheck(t, p[:rc.leaves], func() *Node { return MSE(rc.build(tensor.ActReLU, true)(p), target) }, 3e-2)
				return
			}
		})
	}
}

// laneDot is the four-lane float64 reduction (Σa, Σa·b) the norm backwards
// use, kept here for the retained-x̂ referees.
func laneDot(a, b []float32) (s, t float64) {
	var sl, tl [4]float64
	p := 0
	for ; p+4 <= len(a); p += 4 {
		for l := 0; l < 4; l++ {
			sl[l] += float64(a[p+l])
			tl[l] += float64(a[p+l]) * float64(b[p+l])
		}
	}
	var st, tt float64
	for ; p < len(a); p++ {
		st += float64(a[p])
		tt += float64(a[p]) * float64(b[p])
	}
	return ((sl[0] + sl[1]) + (sl[2] + sl[3])) + st, ((tl[0] + tl[1]) + (tl[2] + tl[3])) + tt
}

// retainedBatchNorm is training-mode BatchNorm2d the way it ran before x̂
// was recomputed: the forward stores x̂ in a full-size buffer and the
// backward reads it back. Statistics come from the shipped stats kernel.
func retainedBatchNorm(x, gamma, beta, dy []float32, n, c, hw int, eps float32) (y, dx, dg, db []float32) {
	mean, varv := make([]float32, c), make([]float32, c)
	tensor.BatchNormStatsInto(mean, varv, x, n, c, hw)
	xhat := make([]float32, len(x))
	y, dx = make([]float32, len(x)), make([]float32, len(x))
	dg, db = make([]float32, c), make([]float32, c)
	m := float64(n * hw)
	for ch := 0; ch < c; ch++ {
		is := float32(1 / math.Sqrt(float64(varv[ch])+float64(eps)))
		var sumDy, sumDyXhat float64
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			for i := base; i < base+hw; i++ {
				h := (x[i] - mean[ch]) * is
				xhat[i] = h
				y[i] = gamma[ch]*h + beta[ch]
			}
			bs, bt := laneDot(dy[base:base+hw], xhat[base:base+hw])
			sumDy += bs
			sumDyXhat += bt
		}
		dg[ch], db[ch] = float32(sumDyXhat), float32(sumDy)
		gis := gamma[ch] * is
		mDy, mDyX := float32(sumDy/m), float32(sumDyXhat/m)
		for b := 0; b < n; b++ {
			base := (b*c + ch) * hw
			for i := base; i < base+hw; i++ {
				dx[i] = gis * (dy[i] - mDy - xhat[i]*mDyX)
			}
		}
	}
	return y, dx, dg, db
}

// retainedLayerNorm is LayerNorm with a stored x̂, on the scalar kernels'
// arithmetic (the AVX2 backend rounds its multiply-adds differently, so the
// row below compares with SIMD off). Statistics come from the shipped
// forward kernel.
func retainedLayerNorm(x, gamma, beta, dy []float32, rows, d int, eps float32) (y, dx, dg, db []float32) {
	mean, invStd := make([]float32, rows), make([]float32, rows)
	y = make([]float32, len(x))
	tensor.LayerNormFwdInto(y, mean, invStd, x, gamma, beta, rows, d, eps)
	xhat := make([]float32, len(x))
	dx = make([]float32, len(x))
	dg, db = make([]float32, d), make([]float32, d)
	for r := 0; r < rows; r++ {
		gd := make([]float64, d) // dy⊙gamma, exact in float64
		for j := 0; j < d; j++ {
			i := r*d + j
			xhat[i] = (x[i] - mean[r]) * invStd[r]
			y[i] = gamma[j]*xhat[i] + beta[j]
			dg[j] += dy[i] * xhat[i]
			db[j] += dy[i]
			gd[j] = float64(dy[i]) * float64(gamma[j])
		}
		var sl, tl [4]float64
		p := 0
		for ; p+4 <= d; p += 4 {
			for l := 0; l < 4; l++ {
				sl[l] += gd[p+l]
				tl[l] += gd[p+l] * float64(xhat[r*d+p+l])
			}
		}
		s := (sl[0] + sl[1]) + (sl[2] + sl[3])
		tt := (tl[0] + tl[1]) + (tl[2] + tl[3])
		for ; p < d; p++ {
			s += gd[p]
			tt += gd[p] * float64(xhat[r*d+p])
		}
		mDy, mDyX := float32(s/float64(d)), float32(tt/float64(d))
		for j := 0; j < d; j++ {
			i := r*d + j
			dx[i] = invStd[r] * (dy[i]*gamma[j] - mDy - xhat[i]*mDyX)
		}
	}
	return y, dx, dg, db
}

// recomputedXhatRows are the TestFusedMatchesUnfused rows for the norms'
// recomputed x̂ against a retained x̂: value and all three gradients bit for
// bit.
func recomputedXhatRows(t *testing.T) {
	equal := func(t *testing.T, what string, got *tensor.Tensor, want []float32) {
		t.Helper()
		if !got.Equal(tensor.FromSlice(want, got.Shape()...)) {
			t.Fatalf("%s with recomputed x̂ differs from the retained-x̂ referee", what)
		}
	}
	rng := tensor.NewRNG(85)
	t.Run("BatchNorm2d", func(t *testing.T) {
		const n, c, h, w = 5, 3, 3, 3 // hw = 9: lanes plus a tail
		x, dy := tensor.New(n, c, h, w), tensor.New(n, c, h, w)
		gamma, beta := tensor.New(c), tensor.New(c)
		rng.FillNormal(x, 0.7, 2)
		rng.FillNormal(dy, 0, 1)
		rng.FillNormal(gamma, 1, 0.3)
		rng.FillNormal(beta, 0, 0.5)
		y, dx, dg, db := retainedBatchNorm(x.Data, gamma.Data, beta.Data, dy.Data, n, c, h*w, 1e-5)
		xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
		out := BatchNorm2d(xN, gN, bN, tensor.New(c), tensor.Ones(c), 0.1, 1e-5, true, tensor.ActNone, nil)
		equal(t, "value", out.Val, y)
		loss := Sum(Mul(out, Constant(dy)))
		Backward(loss)
		equal(t, "dx", xN.Grad, dx)
		equal(t, "dgamma", gN.Grad, dg)
		equal(t, "dbeta", bN.Grad, db)
		Release(loss)
	})
	t.Run("LayerNorm", func(t *testing.T) {
		defer tensor.SetSIMD(tensor.SetSIMD(false))
		const rows, d = 6, 21
		x, dy := tensor.New(rows, d), tensor.New(rows, d)
		gamma, beta := tensor.New(d), tensor.New(d)
		rng.FillNormal(x, 0.7, 2)
		rng.FillNormal(dy, 0, 1)
		rng.FillNormal(gamma, 1, 0.3)
		rng.FillNormal(beta, 0, 0.5)
		y, dx, dg, db := retainedLayerNorm(x.Data, gamma.Data, beta.Data, dy.Data, rows, d, 1e-5)
		xN, gN, bN := Leaf(x), Leaf(gamma), Leaf(beta)
		out := LayerNorm(xN, gN, bN, 1e-5)
		equal(t, "value", out.Val, y)
		loss := Sum(Mul(out, Constant(dy)))
		Backward(loss)
		equal(t, "dx", xN.Grad, dx)
		equal(t, "dgamma", gN.Grad, dg)
		equal(t, "dbeta", bN.Grad, db)
		Release(loss)
	})
}
