package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		numel int
	}{
		{"scalar-ish", []int{1}, 1},
		{"vector", []int{7}, 7},
		{"matrix", []int{3, 4}, 12},
		{"image", []int{2, 3, 8, 8}, 384},
		{"empty-dim", []int{0, 5}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			x := New(tc.shape...)
			if got := x.Numel(); got != tc.numel {
				t.Fatalf("Numel() = %d, want %d", got, tc.numel)
			}
			if got := x.Dims(); got != len(tc.shape) {
				t.Fatalf("Dims() = %d, want %d", got, len(tc.shape))
			}
			for i, d := range tc.shape {
				if x.Dim(i) != d {
					t.Fatalf("Dim(%d) = %d, want %d", i, x.Dim(i), d)
				}
			}
		})
	}
}

func TestNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative dim did not panic")
		}
	}()
	New(2, -1)
}

func TestAtSetRoundtrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(42, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 42 {
		t.Fatalf("At = %v, want 42", got)
	}
	// Row-major layout: flat index of (1,2,3) is ((1*3)+2)*4+3 = 23.
	if x.Data[23] != 42 {
		t.Fatalf("row-major layout violated: Data[23] = %v", x.Data[23])
	}
}

func TestDimNegativeIndex(t *testing.T) {
	x := New(2, 3, 5)
	if x.Dim(-1) != 5 || x.Dim(-2) != 3 || x.Dim(-3) != 2 {
		t.Fatalf("negative Dim indexing broken: %d %d %d", x.Dim(-1), x.Dim(-2), x.Dim(-3))
	}
}

func TestReshapeView(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 99
	if x.Data[0] != 99 {
		t.Fatal("Reshape must share backing storage")
	}
	z := x.Reshape(-1)
	if z.Dims() != 1 || z.Dim(0) != 6 {
		t.Fatalf("Reshape(-1) shape = %v", z.Shape())
	}
	inferred := x.Reshape(3, -1)
	if inferred.Dim(1) != 2 {
		t.Fatalf("Reshape(3,-1) inferred %d, want 2", inferred.Dim(1))
	}
}

func TestReshapeBadNumelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape to wrong numel did not panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data[0] = -1
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone changed shape")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data; got[3] != 44 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 9 {
		t.Fatalf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data; got[2] != 90 {
		t.Fatalf("Mul wrong: %v", got)
	}
	if got := Scale(a, 2).Data; got[3] != 8 {
		t.Fatalf("Scale wrong: %v", got)
	}
	c := a.Clone()
	AddScaledInto(c, -1, a)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatalf("AddScaledInto(-1) should zero: %v", c.Data)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	Add(New(2, 2), New(4))
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3, -4}, 4)
	if got := Sum(a); got != -2 {
		t.Fatalf("Sum = %v, want -2", got)
	}
	if got := Mean(a); got != -0.5 {
		t.Fatalf("Mean = %v, want -0.5", got)
	}
	if got := Max(a); got != 3 {
		t.Fatalf("Max = %v, want 3", got)
	}
	if got := Min(a); got != -4 {
		t.Fatalf("Min = %v, want -4", got)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := ArgmaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v, want [1 0]", got)
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("transpose shape %v", at.Shape())
	}
	if at.At(2, 1) != a.At(1, 2) {
		t.Fatal("transpose values wrong")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := NewRNG(3)
	a := New(9, 7)
	b := New(7, 11)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	want := MatMul(a, b)

	bt := Transpose2D(b)
	got := MatMulBT(a, bt)
	if got.MaxAbsDiff(want) > 1e-4 {
		t.Fatalf("MatMulBT disagrees by %v", got.MaxAbsDiff(want))
	}
	at := Transpose2D(a)
	got2 := MatMulAT(at, b)
	if got2.MaxAbsDiff(want) > 1e-4 {
		t.Fatalf("MatMulAT disagrees by %v", got2.MaxAbsDiff(want))
	}
}

func TestMatMulDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := NewRNG(11)
	a := New(64, 33)
	b := New(33, 29)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)

	prev := SetMaxWorkers(1)
	seq := MatMul(a, b)
	SetMaxWorkers(8)
	par := MatMul(a, b)
	SetMaxWorkers(prev)

	if !seq.Equal(par) {
		t.Fatal("MatMul results differ between 1 and 8 workers; determinism requirement violated")
	}
}

func TestMatMulPropertyDistributivity(t *testing.T) {
	// (A+B)·C == A·C + B·C, within float tolerance.
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a, b, c := New(5, 4), New(5, 4), New(4, 6)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		rng.FillNormal(c, 0, 1)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return lhs.AllClose(rhs, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeomValidate(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutH != 8 || g.OutW != 8 {
		t.Fatalf("same-padding conv output %dx%d, want 8x8", g.OutH, g.OutW)
	}
	bad := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized kernel should fail validation")
	}
	zeroStride := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2}
	if err := zeroStride.Validate(); err == nil {
		t.Fatal("zero stride should fail validation")
	}
}

func TestIm2ColKnown(t *testing.T) {
	// 1-channel 3x3 input, 2x2 kernel, stride 1, no padding → 2x2 output.
	x := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	g := &ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cols := New(4, 4)
	Im2Col(cols, x, g)
	// Row r of cols holds kernel-position r across all 4 output positions.
	want := [][]float32{
		{1, 2, 4, 5}, // top-left of each window
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for r, row := range want {
		for c, w := range row {
			if got := cols.At(r, c); got != w {
				t.Fatalf("cols[%d,%d] = %v, want %v", r, c, got, w)
			}
		}
	}
}

func TestCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property that
	// makes conv backward correct.
	rng := NewRNG(5)
	g := &ConvGeom{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := New(g.InC * g.InH * g.InW)
	rng.FillNormal(x, 0, 1)
	rows := g.InC * g.KH * g.KW
	ncols := g.OutH * g.OutW

	cols := New(rows, ncols)
	Im2Col(cols, x.Data, g)
	y := New(rows, ncols)
	rng.FillNormal(y, 0, 1)

	dx := New(g.InC * g.InH * g.InW)
	Col2Im(dx.Data, y, g)

	lhs := Dot(cols, y)
	rhs := Dot(x, dx)
	if math.Abs(lhs-rhs) > 1e-3 {
		t.Fatalf("Im2Col/Col2Im adjoint violated: %v vs %v", lhs, rhs)
	}
}

func TestMaxPoolForward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	g := &ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	out, argmax := MaxPoolForward(x, g)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("maxpool[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	if argmax[0] != 5 || argmax[3] != 15 {
		t.Fatalf("argmax wrong: %v", argmax)
	}
}

func TestAvgPoolForward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	for _, tc := range []struct {
		name string
		g    ConvGeom
		want []float32
	}{
		{"one window", ConvGeom{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2}, []float32{2.5}},
		// Kernel 1, pad 1: every border window lies wholly in padding.
		{"padding windows", ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, []float32{
			0, 0, 0, 0,
			0, 1, 2, 0,
			0, 3, 4, 0,
			0, 0, 0, 0,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			// Dirty the output's pool bucket: a window the pass skips must
			// read as zero, not as whatever the recycled buffer held.
			d := Get(len(tc.want))
			d.Fill(7)
			Put(d)
			out := AvgPoolForward(x, &g)
			for i, v := range out.Data {
				if v != tc.want[i] {
					t.Fatalf("avgpool = %v, want %v", out.Data, tc.want)
				}
			}
		})
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 64; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	// Two children with different labels from identical parents must differ;
	// identical labels from identical parents must match.
	p1, p2 := NewRNG(9), NewRNG(9)
	c1 := p1.Split(1)
	c2 := p2.Split(1)
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("Split with same label should be reproducible")
	}
	p3, p4 := NewRNG(9), NewRNG(9)
	d1, d2 := p3.Split(1), p4.Split(2)
	if d1.Uint64() == d2.Uint64() {
		t.Fatal("Split with different labels should diverge")
	}
}

func TestLaplaceStats(t *testing.T) {
	rng := NewRNG(1)
	var sum, absSum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := rng.Laplace(0, 1)
		sum += v
		absSum += math.Abs(v)
	}
	if m := sum / n; math.Abs(m) > 0.05 {
		t.Fatalf("Laplace mean %v, want ~0", m)
	}
	// E|X| = b = 1 for Laplace(0,1).
	if m := absSum / n; math.Abs(m-1) > 0.05 {
		t.Fatalf("Laplace E|X| = %v, want ~1", m)
	}
}

func TestSampleIndicesDistinct(t *testing.T) {
	rng := NewRNG(2)
	idx := rng.SampleIndices(50, 20)
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 50 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestInitializers(t *testing.T) {
	rng := NewRNG(4)
	w := New(64, 64)
	KaimingUniform(rng, w, 64)
	bound := float32(1.0 / 8.0)
	for _, v := range w.Data {
		if v < -bound || v > bound {
			t.Fatalf("KaimingUniform out of bounds: %v (bound %v)", v, bound)
		}
	}
	x := New(1000)
	NormalInit(rng, x, 0.02)
	if s := math.Abs(Mean(x)); s > 0.01 {
		t.Fatalf("NormalInit mean %v too large", s)
	}
}

// TestForLoadSkipsOnlyWeightFills: on a ForLoad stream and on everything
// Split from it the two weight-fill entries draw nothing and leave the
// tensor zero, while the Split tree itself — seeds of children, their
// children, and every other kind of draw on them — is a normal build's.
func TestForLoadSkipsOnlyWeightFills(t *testing.T) {
	normal, load := NewRNG(11), NewRNG(11).ForLoad(true)
	for label := uint64(1); label <= 3; label++ {
		n, l := normal.Split(label), load.Split(label)
		w, z := New(5, 7), New(5, 7)
		KaimingUniform(n, w, 5)
		KaimingUniform(l, z, 5)
		NormalInit(n.Split(9), w, 0.1)
		NormalInit(l.Split(9), z, 0.1)
		if !z.Equal(New(5, 7)) || w.Equal(z) {
			t.Fatalf("split %d: a ForLoad stream filled a weight (or a normal one did not)", label)
		}
		// n has been drawn from, l has not: their next children differ, which
		// is why a constructor that fills from a stream takes nothing else
		// from it. Fresh children of the roots agree.
		if normal.Split(label+10).Split(2).IntN(1<<30) != load.Split(label+10).Split(2).IntN(1<<30) {
			t.Fatalf("split %d: the ForLoad Split tree diverged from the normal one", label)
		}
	}
	if NewRNG(11).ForLoad(true).ForLoad(false).Split(1).forLoad {
		t.Fatal("ForLoad(false) must build normally again")
	}
}

// TestEqualComparesBitPatterns: Equal is "the same bytes" — a NaN equals the
// same NaN, a NaN with another payload does not, and the two zeros differ.
func TestEqualComparesBitPatterns(t *testing.T) {
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	otherNaN := math.Float32frombits(math.Float32bits(nan) ^ 1)
	a := FromSlice([]float32{1, nan, 0, negZero}, 2, 2)
	if !a.Equal(a.Clone()) {
		t.Fatal("a tensor holding a NaN must equal its exact copy")
	}
	for i, v := range []float32{2, otherNaN, negZero, 0} {
		b := a.Clone()
		b.Data[i] = v
		if a.Equal(b) || b.Equal(a) {
			t.Fatalf("element %d: %v (bits %#x) must not equal %v (bits %#x)", i, a.Data[i], math.Float32bits(a.Data[i]), v, math.Float32bits(v))
		}
	}
	if a.Equal(a.Clone().Reshape(4)) {
		t.Fatal("Equal must still compare shapes")
	}
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2.0005, 3}, 3)
	if !a.AllClose(b, 1e-3) {
		t.Fatal("AllClose should accept within tolerance")
	}
	if a.AllClose(b, 1e-5) {
		t.Fatal("AllClose should reject outside tolerance")
	}
	if d := a.MaxAbsDiff(b); d < 4e-4 || d > 6e-4 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func TestStringPreview(t *testing.T) {
	x := New(100)
	s := x.String()
	if s == "" {
		t.Fatal("String() empty")
	}
}
