package nn

import (
	"math"
	"strings"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear(rng, 5, 3)
	x := autodiff.Constant(tensor.Ones(4, 5))
	y := l.Forward(x)
	if y.Val.Dim(0) != 4 || y.Val.Dim(1) != 3 {
		t.Fatalf("Linear output %v", y.Val.Shape())
	}
	if len(l.Params()) != 2 {
		t.Fatal("Linear should expose weight and bias")
	}
}

func TestConv2dOutputShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	tests := []struct {
		name                 string
		k, stride, pad       int
		inH, inW, outH, outW int
	}{
		{"same-3x3", 3, 1, 1, 8, 8, 8, 8},
		{"stride2", 3, 2, 1, 8, 8, 4, 4},
		{"valid5x5", 5, 1, 0, 12, 10, 8, 6},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2d(rng, 3, 6, tc.k, tc.stride, tc.pad)
			x := autodiff.Constant(tensor.New(2, 3, tc.inH, tc.inW))
			y := c.Forward(x)
			want := []int{2, 6, tc.outH, tc.outW}
			got := y.Val.Shape()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("conv output %v, want %v", got, want)
				}
			}
		})
	}
}

func TestStateDictRoundtrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	a := NewLinear(rng.Split(1), 4, 4)
	b := NewLinear(rng.Split(2), 4, 4)
	if a.W.Val.Equal(b.W.Val) {
		t.Fatal("different seeds should give different weights")
	}
	if err := LoadStateDict(b, StateDict(a)); err != nil {
		t.Fatal(err)
	}
	if !a.W.Val.Equal(b.W.Val) || !a.B.Val.Equal(b.B.Val) {
		t.Fatal("LoadStateDict did not copy values")
	}
}

func TestLoadStateDictErrors(t *testing.T) {
	rng := tensor.NewRNG(6)
	l := NewLinear(rng, 4, 4)
	w, b := l.W.Val.Clone(), l.B.Val.Clone()
	// Every well-formed entry holds new values, so a load that copied
	// before it had checked everything would show in the model.
	for _, tc := range []struct {
		want string
		dict map[string]*tensor.Tensor
	}{
		{"missing parameter", map[string]*tensor.Tensor{}},
		{"missing parameter", map[string]*tensor.Tensor{"weight": tensor.Ones(4, 4)}},
		{"shape mismatch", map[string]*tensor.Tensor{"weight": tensor.New(2, 2), "bias": tensor.Ones(4)}},
		{"shape mismatch", map[string]*tensor.Tensor{"weight": tensor.Ones(4, 4), "bias": tensor.New(2)}},
	} {
		err := LoadStateDict(l, tc.dict)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("want %s error, got %v", tc.want, err)
		}
		if !l.W.Val.Equal(w) || !l.B.Val.Equal(b) {
			t.Fatalf("failed load (%v) mutated the model", err)
		}
	}
}

func TestBatchNormTrainingToggle(t *testing.T) {
	bn := NewBatchNorm2d(2)
	rng := tensor.NewRNG(7)
	x := tensor.New(4, 2, 3, 3)
	rng.FillNormal(x, 3, 2)
	bn.SetTraining(true)
	_ = bn.Forward(autodiff.Constant(x))
	if bn.RunningMean.Data[0] == 0 {
		t.Fatal("training forward should update running mean")
	}
	bn.SetTraining(false)
	before := bn.RunningMean.Clone()
	_ = bn.Forward(autodiff.Constant(x))
	if !bn.RunningMean.Equal(before) {
		t.Fatal("eval forward must not update running stats")
	}
}

func TestMultiHeadAttentionShapesAndMask(t *testing.T) {
	rng := tensor.NewRNG(8)
	mha := NewMultiHeadAttention(rng, 8, 2)
	x := tensor.New(2, 5, 8)
	rng.FillNormal(x, 0, 1)
	y := mha.ForwardSelf(autodiff.Constant(x), nil)
	got := y.Val.Shape()
	if got[0] != 2 || got[1] != 5 || got[2] != 8 {
		t.Fatalf("attention output %v", got)
	}
	// With a causal mask, output at position 0 must not depend on later
	// positions: perturb position 4 and check position 0 is unchanged.
	mask := CausalMask(5)
	y1 := mha.ForwardSelf(autodiff.Constant(x), mask)
	x2 := x.Clone()
	for i := 0; i < 8; i++ {
		x2.Data[(0*5+4)*8+i] += 10
	}
	y2 := mha.ForwardSelf(autodiff.Constant(x2), mask)
	for i := 0; i < 8; i++ {
		a := y1.Val.Data[i] // batch 0, pos 0
		b := y2.Val.Data[i]
		if math.Abs(float64(a-b)) > 1e-5 {
			t.Fatalf("causal mask leaked future info: %v vs %v", a, b)
		}
	}
}

func TestTransformerEncoderLayerGradientsFlow(t *testing.T) {
	rng := tensor.NewRNG(9)
	layer := NewTransformerEncoderLayer(rng, 8, 2, 16, 0)
	layer.SetTraining(true)
	x := tensor.New(2, 4, 8)
	rng.FillNormal(x, 0, 1)
	y := layer.ForwardSeq(autodiff.Constant(x), CausalMask(4))
	loss := autodiff.Mean(y)
	autodiff.Backward(loss)
	grads := 0
	for _, p := range layer.Params() {
		if p.Node.Grad != nil && tensor.L2Norm(p.Node.Grad) > 0 {
			grads++
		}
	}
	if grads < len(layer.Params())-2 {
		t.Fatalf("only %d/%d transformer params received gradient", grads, len(layer.Params()))
	}
}

func TestPositionalEncodingProperties(t *testing.T) {
	pe := PositionalEncoding(16, 8)
	if pe.Dim(0) != 16 || pe.Dim(1) != 8 {
		t.Fatalf("PE shape %v", pe.Shape())
	}
	// pos 0: sin(0)=0, cos(0)=1 alternating.
	if pe.At(0, 0) != 0 || pe.At(0, 1) != 1 {
		t.Fatalf("PE row 0 wrong: %v %v", pe.At(0, 0), pe.At(0, 1))
	}
	for _, v := range pe.Data {
		if v < -1 || v > 1 {
			t.Fatalf("PE value out of [-1,1]: %v", v)
		}
	}
}

// TestPositionalEncodingIsThePerElementFormula: the table equals the
// formula evaluated afresh for every (pos, i), bit for bit, at even and odd
// widths.
func TestPositionalEncodingIsThePerElementFormula(t *testing.T) {
	for _, c := range [][2]int{{4, 8}, {5, 7}, {64, 128}, {128, 256}} {
		maxT, d := c[0], c[1]
		pe := PositionalEncoding(maxT, d)
		for pos := 0; pos < maxT; pos++ {
			for i := 0; i < d; i++ {
				angle := float64(pos) / math.Pow(10000, float64(i-i%2)/float64(d))
				want := float32(math.Sin(angle))
				if i%2 == 1 {
					want = float32(math.Cos(angle))
				}
				if got := pe.At(pos, i); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("maxT %d, d %d: (%d, %d) is %v, the formula gives %v", maxT, d, pos, i, got, want)
				}
			}
		}
	}
}

func TestCBAMPreservesShapeAndBounds(t *testing.T) {
	rng := tensor.NewRNG(10)
	cb := NewCBAM(rng, 8)
	x := tensor.New(2, 8, 6, 6)
	rng.FillUniform(x, 0, 1) // positive inputs
	y := cb.Forward(autodiff.Constant(x))
	if !y.Val.SameShape(x) {
		t.Fatalf("CBAM changed shape: %v", y.Val.Shape())
	}
	// Attention weights are sigmoids in (0,1): output magnitude can't exceed
	// input magnitude for positive inputs.
	for i := range y.Val.Data {
		if y.Val.Data[i] < 0 || y.Val.Data[i] > x.Data[i] {
			t.Fatalf("CBAM output %v outside [0, x=%v]", y.Val.Data[i], x.Data[i])
		}
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := tensor.NewRNG(11)
	e := NewEmbedding(rng, 10, 4)
	out := e.Lookup([][]int{{3, 3, 7}})
	if out.Val.Dim(0) != 1 || out.Val.Dim(1) != 3 || out.Val.Dim(2) != 4 {
		t.Fatalf("Lookup shape %v", out.Val.Shape())
	}
	for i := 0; i < 4; i++ {
		if out.Val.Data[i] != out.Val.Data[4+i] {
			t.Fatal("same id should give identical embeddings")
		}
	}
	mean := e.LookupMean([][]int{{3, 7}})
	want := (e.W.Val.At(3, 0) + e.W.Val.At(7, 0)) / 2
	if math.Abs(float64(mean.Val.At(0, 0)-want)) > 1e-6 {
		t.Fatalf("LookupMean = %v, want %v", mean.Val.At(0, 0), want)
	}
}

func TestNumParams(t *testing.T) {
	rng := tensor.NewRNG(12)
	l := NewLinear(rng, 10, 5)
	if got := NumParams(l); got != 10*5+5 {
		t.Fatalf("NumParams = %d, want 55", got)
	}
}

func TestDropoutModuleTrainingToggle(t *testing.T) {
	rng := tensor.NewRNG(13)
	d := NewDropout(rng, 0.5)
	x := autodiff.Constant(tensor.Ones(100))
	d.SetTraining(false)
	if y := d.Forward(x); y != x {
		t.Fatal("eval dropout should be identity")
	}
	d.SetTraining(true)
	y := d.Forward(x)
	zeros := 0
	for _, v := range y.Val.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("training dropout dropped nothing")
	}
}

func TestCheckImageInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CheckImageInput should panic on wrong channels")
		}
	}()
	CheckImageInput(autodiff.Constant(tensor.New(1, 3, 4, 4)), 1)
}
