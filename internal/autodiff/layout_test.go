package autodiff

import (
	"testing"

	"amalgam/internal/tensor"
)

// layoutCase is one layout op over seeded parents. kinds has one letter per
// parent: 'l' a leaf whose gradient starts at zero, 'd' a leaf whose gradient
// is already non-zero (so the backward must add, not overwrite), 'c' a
// constant that takes no gradient. def calls emit(parent, index) once per
// output element, in output order: the op written out as an index map.
type layoutCase struct {
	name   string
	shapes [][]int
	kinds  string
	op     func(p []*Node) *Node
	def    func(emit func(p, j int))
}

func splitHeadsCase(name string, n, t, heads, hd int, kinds string) layoutCase {
	d := heads * hd
	return layoutCase{name, [][]int{{n, t, d}}, kinds,
		func(p []*Node) *Node { return splitHeads(p[0], heads) },
		func(emit func(p, j int)) {
			for b := 0; b < n; b++ {
				for h := 0; h < heads; h++ {
					for pos := 0; pos < t; pos++ {
						for e := 0; e < hd; e++ {
							emit(0, (b*t+pos)*d+h*hd+e)
						}
					}
				}
			}
		}}
}

func mergeHeadsCase(name string, n, t, heads, hd int, kinds string) layoutCase {
	return layoutCase{name, [][]int{{n * heads, t, hd}}, kinds,
		func(p []*Node) *Node { return mergeHeads(p[0], heads) },
		func(emit func(p, j int)) {
			for b := 0; b < n; b++ {
				for pos := 0; pos < t; pos++ {
					for h := 0; h < heads; h++ {
						for e := 0; e < hd; e++ {
							emit(0, ((b*heads+h)*t+pos)*hd+e)
						}
					}
				}
			}
		}}
}

func transposeCase(name string, bt, m, n int, kinds string) layoutCase {
	return layoutCase{name, [][]int{{bt, m, n}}, kinds,
		func(p []*Node) *Node { return transpose12(p[0]) },
		func(emit func(p, j int)) {
			for i := 0; i < bt; i++ {
				for c := 0; c < n; c++ {
					for r := 0; r < m; r++ {
						emit(0, (i*m+r)*n+c)
					}
				}
			}
		}}
}

// attentionCase is Attention where its softmax saturates into an index map:
// the op replaces q's and k's drawn values by scaled unit vectors, K's row j
// e_j and head h's Q row i e_pick(h,i), so each row of P is one-hot and the
// value is V's row pick(h, i) in head h's columns. That pins where the head
// split, K's transpose and the merge put every element; q and k get a zero
// gradient. The mask hides every later row, so pick(h, i) ≤ i. A v whose
// gradient starts non-zero needs pick to be a permutation, so that no two
// rows' gradients sum before they reach it.
func attentionCase(name string, n, t, heads, hd int, pick func(h, i int) int, kinds string) layoutCase {
	d := heads * hd
	shape := []int{n, t, d}
	return layoutCase{name, [][]int{shape, shape, shape}, kinds,
		func(p []*Node) *Node {
			const l = 30 // scores are 0 or l²/√hd: exp underflows to 0 off the pick
			q, k := p[0].Val, p[1].Val
			q.Zero()
			k.Zero()
			for r := range n * t {
				for h := range heads {
					q.Data[r*d+h*hd+pick(h, r%t)] = l
					k.Data[r*d+h*hd+r%t] = l
				}
			}
			return Attention(p[0], p[1], p[2], heads)
		},
		func(emit func(p, j int)) {
			for b := 0; b < n; b++ {
				for pos := 0; pos < t; pos++ {
					for h := 0; h < heads; h++ {
						for e := 0; e < hd; e++ {
							emit(2, (b*t+pick(h, pos))*d+h*hd+e)
						}
					}
				}
			}
		}}
}

// concatCase joins parents along axis 1: ConcatFeatures for 2-D shapes,
// ConcatChannels for 4-D ones.
func concatCase(name string, shapes [][]int, kinds string) layoutCase {
	op := func(p []*Node) *Node { return ConcatFeatures(p...) }
	if len(shapes[0]) == 4 {
		op = func(p []*Node) *Node { return ConcatChannels(p...) }
	}
	return layoutCase{name, shapes, kinds, op,
		func(emit func(p, j int)) {
			for r := 0; r < shapes[0][0]; r++ {
				for p, sh := range shapes {
					width := 1
					for _, s := range sh[1:] {
						width *= s
					}
					for e := 0; e < width; e++ {
						emit(p, r*width+e)
					}
				}
			}
		}}
}

var layoutCases = []layoutCase{
	splitHeadsCase("SplitHeads", 2, 3, 4, 2, "l"),
	splitHeadsCase("SplitHeads/heads=1", 2, 3, 1, 4, "d"),
	splitHeadsCase("SplitHeads/T=1", 2, 1, 3, 2, "l"),
	splitHeadsCase("SplitHeads/run=1", 2, 3, 4, 1, "d"),
	mergeHeadsCase("MergeHeads", 2, 3, 4, 2, "l"),
	mergeHeadsCase("MergeHeads/heads=1", 2, 3, 1, 4, "d"),
	mergeHeadsCase("MergeHeads/T=1", 2, 1, 3, 2, "l"),
	mergeHeadsCase("MergeHeads/run=1", 2, 3, 4, 1, "d"),
	transposeCase("Transpose12", 2, 3, 5, "l"),
	transposeCase("Transpose12/T=1", 3, 1, 4, "d"),
	transposeCase("Transpose12/one-column", 2, 4, 1, "d"),
	attentionCase("Attention/one-hot", 2, 3, 2, 4, func(h, i int) int { return i >> h }, "ldl"),
	attentionCase("Attention/one-hot/causal", 1, 4, 3, 4, func(h, i int) int { return max(i-h, 0) }, "dcl"),
	attentionCase("Attention/T=1", 3, 1, 2, 2, func(h, i int) int { return 0 }, "cdd"),
	concatCase("ConcatFeatures/one-parent", [][]int{{3, 4}}, "d"),
	concatCase("ConcatFeatures", [][]int{{3, 2}, {3, 5}, {3, 1}}, "lcd"),
	concatCase("ConcatChannels/one-parent", [][]int{{2, 3, 2, 2}}, "l"),
	concatCase("ConcatChannels", [][]int{{2, 1, 3, 2}, {2, 4, 3, 2}, {2, 2, 3, 2}}, "dlc"),
	concatCase("ConcatChannels/1x1", [][]int{{3, 2, 1, 1}, {3, 1, 1, 1}}, "cd"),
}

// TestLayoutOpsMatchDefinition pins every layout op — both concats,
// Attention where it is an index map, and the head split and merge and the
// 3-D transpose of its referee (attention_test.go) — to its definition as an
// index map, bit for bit: the forward value, and each parent's gradient under
// a seeded upstream gradient (added to what the parent already held, none
// for a constant).
func TestLayoutOpsMatchDefinition(t *testing.T) {
	for ci, tc := range layoutCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(uint64(400 + ci))
			vals := make([]*tensor.Tensor, len(tc.shapes))
			for i, sh := range tc.shapes {
				vals[i] = tensor.New(sh...)
				rng.FillNormal(vals[i], 0, 1)
			}
			parents, wantGrads := layoutParents(rng, vals, tc.kinds)
			out := tc.op(parents)
			var at [][2]int
			tc.def(func(p, j int) { at = append(at, [2]int{p, j}) })
			if len(at) != out.Val.Numel() {
				t.Fatalf("definition has %d elements, op %d (shape %v)", len(at), out.Val.Numel(), out.Val.Shape())
			}
			want := tensor.New(out.Val.Shape()...)
			for i, s := range at {
				want.Data[i] = parents[s[0]].Val.Data[s[1]]
			}
			if !sameBits(out.Val, want) {
				t.Fatalf("forward is not the index map")
			}
			dy := tensor.New(out.Val.Shape()...)
			rng.FillNormal(dy, 0, 1)
			loss := Sum(Mul(out, Constant(dy))) // so that out.Grad is exactly dy
			Backward(loss)
			for i, s := range at {
				wantGrads[s[0]].Data[s[1]] += dy.Data[i]
			}
			checkLayoutGrads(t, parents, wantGrads, tc.kinds)
			Release(loss)
		})
	}

	// Conv2d's block reorder: a block's GEMM works channel-major, [OC,
	// images·positions], and the node's value and gradient are image-major.
	// The reference runs the same GEMMs on the reorder written out here.
	for _, tc := range []struct {
		convCase
		kinds string // x, then w, as above
	}{
		{convCase{"Conv2d/block", 3, 2, 4, 5, 5, 3, 1, 1}, "ld"},
		{convCase{"Conv2d/one-position", 4, 2, 3, 3, 3, 3, 1, 0}, "dl"},
		{convCase{"Conv2d/constant-input", 2, 3, 2, 4, 4, 3, 1, 1}, "cd"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &tensor.ConvGeom{InC: tc.inC, InH: tc.h, InW: tc.w, KH: tc.kernel, KW: tc.kernel,
				StrideH: tc.stride, StrideW: tc.stride, PadH: tc.pad, PadW: tc.pad}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			n, oc, kdim, pos := tc.batch, tc.outC, tc.inC*tc.kernel*tc.kernel, g.OutH*g.OutW
			if convBlock(kdim, pos, n) != n {
				t.Fatalf("the case must be one block of %d images", n)
			}
			rng := tensor.NewRNG(77)
			x, w := tensor.New(n, tc.inC, tc.h, tc.w), tensor.New(oc, tc.inC, tc.kernel, tc.kernel)
			rng.FillNormal(x, 0, 1)
			rng.FillNormal(w, 0, 0.5)
			parents, wantGrads := layoutParents(rng, []*tensor.Tensor{x, w}, tc.kinds)
			out := Conv2d(parents[0], parents[1], nil, tc.stride, tc.pad, tensor.ActNone)

			cols, y := tensor.New(kdim, n*pos), tensor.New(oc, n*pos)
			tensor.Im2Col(cols, x.Data, g)
			tensor.MatMulRawInto(y.Data, w.Data, cols.Data, oc, kdim, n*pos)
			want := tensor.New(n, oc, g.OutH, g.OutW)
			for b := 0; b < n; b++ {
				for o := 0; o < oc; o++ {
					for p := 0; p < pos; p++ {
						want.Data[(b*oc+o)*pos+p] = y.Data[o*n*pos+b*pos+p]
					}
				}
			}
			if !sameBits(out.Val, want) {
				t.Fatalf("forward is not the block GEMM reordered image-major")
			}

			dy := tensor.New(out.Val.Shape()...)
			rng.FillNormal(dy, 0, 1)
			loss := Sum(Mul(out, Constant(dy))) // so that out.Grad is exactly dy
			Backward(loss)
			dyT := tensor.New(oc, n*pos)
			for b := 0; b < n; b++ {
				for o := 0; o < oc; o++ {
					for p := 0; p < pos; p++ {
						dyT.Data[o*n*pos+b*pos+p] = dy.Data[(b*oc+o)*pos+p]
					}
				}
			}
			low := tensor.New(n*pos, kdim)
			tensor.MatMulATRawInto(low.Data, w.Data, dyT.Data, kdim, oc, n*pos)
			tensor.Col2Im(wantGrads[0].Data, low, g)
			tensor.Im2Row(low, x.Data, g)
			tensor.MatMulAccRawInto(wantGrads[1].Data, dyT.Data, low.Data, oc, n*pos, kdim)
			checkLayoutGrads(t, parents, wantGrads, tc.kinds)
			Release(loss)
		})
	}
}

// layoutParents wraps each value as kinds says and returns, beside the
// nodes, the gradient each starts Backward with: drawn for 'd', zero else.
func layoutParents(rng *tensor.RNG, vals []*tensor.Tensor, kinds string) ([]*Node, []*tensor.Tensor) {
	parents, grads := make([]*Node, len(vals)), make([]*tensor.Tensor, len(vals))
	for i, v := range vals {
		parents[i], grads[i] = Leaf(v), tensor.New(v.Shape()...)
		switch kinds[i] {
		case 'c':
			parents[i] = Constant(v)
		case 'd':
			rng.FillNormal(grads[i], 0, 1)
			parents[i].Grad = grads[i].Clone()
		}
	}
	return parents, grads
}

// checkLayoutGrads compares each parent's gradient with want bit for bit;
// a constant must have received none.
func checkLayoutGrads(t *testing.T, parents []*Node, want []*tensor.Tensor, kinds string) {
	t.Helper()
	for i, p := range parents {
		switch {
		case kinds[i] == 'c' && p.Grad != nil:
			t.Errorf("parent %d is a constant but received a gradient", i)
		case kinds[i] != 'c' && !sameBits(p.Grad, want[i]):
			t.Errorf("parent %d: gradient differs from the definition's", i)
		}
	}
}
