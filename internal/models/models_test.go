package models

import (
	"fmt"
	"math"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

func cifarCfg() CVConfig { return CVConfig{InC: 3, InH: 32, InW: 32, Classes: 10} }

func TestCVModelForwardShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.New(2, 3, 32, 32)
	rng.FillUniform(x, 0, 1)
	for _, name := range []string{"lenet", "resnet18", "vgg16", "densenet121", "mobilenetv2"} {
		t.Run(name, func(t *testing.T) {
			m, err := BuildCV(name, tensor.NewRNG(2), cifarCfg())
			if err != nil {
				t.Fatal(err)
			}
			logits, feats := m.ForwardFeatures(autodiff.Constant(x))
			if logits.Val.Dim(0) != 2 || logits.Val.Dim(1) != 10 {
				t.Fatalf("logits shape %v", logits.Val.Shape())
			}
			if len(feats) == 0 {
				t.Fatal("no tap features exposed")
			}
		})
	}
}

// BenchmarkBuildCV times building a CIFAR-10 model: resnet18 draws its
// 11.2 M initial weights with tensor's FillUniform.
func BenchmarkBuildCV(b *testing.B) {
	for _, name := range []string{"resnet18"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildCV(name, tensor.NewRNG(uint64(i)), cifarCfg()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTapChannelsMatchForwardFeatures referees each zoo model's stated tap
// widths against the activations its forward actually returns: the
// augmenter sizes decoy taps from TapChannels without running a forward.
func TestTapChannelsMatchForwardFeatures(t *testing.T) {
	for _, cfg := range []CVConfig{{InC: 3, InH: 32, InW: 32, Classes: 10}, {InC: 1, InH: 12, InW: 12, Classes: 4}} {
		for _, name := range CVModelNames() {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", name, cfg.InC, cfg.InH, cfg.InW), func(t *testing.T) {
				m, err := BuildCV(name, tensor.NewRNG(1), cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.SetTraining(false)
				logits, feats := m.ForwardFeatures(autodiff.Constant(tensor.New(1, cfg.InC, cfg.InH, cfg.InW)))
				defer autodiff.Release(logits)
				want := m.TapChannels()
				if len(feats) != len(want) {
					t.Fatalf("ForwardFeatures returned %d taps, TapChannels states %d", len(feats), len(want))
				}
				for i, f := range feats {
					if got := f.Val.Dim(1); got != want[i] {
						t.Errorf("tap %d has %d channels, TapChannels states %d", i, got, want[i])
					}
				}
			})
		}
	}
}

func TestBuildCVUnknown(t *testing.T) {
	if _, err := BuildCV("alexnet", tensor.NewRNG(1), cifarCfg()); err == nil {
		t.Fatal("unknown model should error")
	}
}

// TestParamCountsMatchPaper checks our implementations against the paper's
// Table 3/4 "0% (Original)" parameter counts. DenseNetLite is sized to the
// paper's ~1.0M figure; the rest are standard architectures and must land
// within a few percent.
func TestParamCountsMatchPaper(t *testing.T) {
	rng := tensor.NewRNG(3)
	tests := []struct {
		name  string
		got   int
		want  int
		tolPC float64 // acceptable relative deviation
	}{
		{"resnet18", nn.NumParams(NewResNet18(rng, cifarCfg())), 11_170_000, 0.02},
		{"vgg16", nn.NumParams(NewVGG16(rng, cifarCfg(), false)), 14_720_000, 0.02},
		{"densenet121-lite", nn.NumParams(NewDenseNetLite(rng, cifarCfg())), 1_000_000, 0.30},
		{"mobilenetv2", nn.NumParams(NewMobileNetV2(rng, cifarCfg())), 2_296_000, 0.03},
		{"textclassifier", nn.NumParams(NewTextClassifier(rng, 95812, 64, 4)), 6_130_000, 0.02},
		{"transformerlm", nn.NumParams(NewTransformerLM(rng, DefaultTransformerLMConfig(28782))), 12_030_000, 0.03},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dev := math.Abs(float64(tc.got)-float64(tc.want)) / float64(tc.want)
			if dev > tc.tolPC {
				t.Fatalf("%s params = %d, paper %d (dev %.1f%% > %.0f%%)", tc.name, tc.got, tc.want, dev*100, tc.tolPC*100)
			}
			t.Logf("%s: %d params (paper %d, dev %.2f%%)", tc.name, tc.got, tc.want, dev*100)
		})
	}
}

func TestVGG16CBAMHasMoreParams(t *testing.T) {
	cfg := CVConfig{InC: 3, InH: 64, InW: 64, Classes: 10}
	plain := nn.NumParams(NewVGG16(tensor.NewRNG(1), cfg, true))
	cbam := nn.NumParams(NewVGG16CBAM(tensor.NewRNG(1), cfg))
	if cbam <= plain {
		t.Fatalf("CBAM variant should add parameters: %d vs %d", cbam, plain)
	}
}

func TestVGG16HandlesMNISTGeometry(t *testing.T) {
	// 28×28 single-channel input: pools must degrade gracefully.
	m := NewVGG16(tensor.NewRNG(1), CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10}, false)
	x := tensor.New(1, 1, 28, 28)
	logits := m.Forward(autodiff.Constant(x))
	if logits.Val.Dim(1) != 10 {
		t.Fatalf("logits %v", logits.Val.Shape())
	}
}

func TestMNISTGeometryAllModels(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := tensor.New(1, 1, 28, 28)
	rng.FillUniform(x, 0, 1)
	cfg := CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10}
	for _, name := range []string{"lenet", "resnet18", "vgg16", "densenet121", "mobilenetv2"} {
		m, err := BuildCV(name, tensor.NewRNG(5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		logits := m.Forward(autodiff.Constant(x))
		if logits.Val.Dim(1) != 10 {
			t.Fatalf("%s logits %v", name, logits.Val.Shape())
		}
	}
}

func TestModelsDeterministicInit(t *testing.T) {
	a := NewResNet18(tensor.NewRNG(7), cifarCfg())
	b := NewResNet18(tensor.NewRNG(7), cifarCfg())
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param lists differ")
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name || !pa[i].Node.Val.Equal(pb[i].Node.Val) {
			t.Fatalf("param %s differs across same-seed builds", pa[i].Name)
		}
	}
}

func TestLeNetLearnsTinyTask(t *testing.T) {
	// End-to-end sanity: LeNet must fit 16 samples of a 2-class toy set.
	rng := tensor.NewRNG(8)
	m := NewLeNet5(rng, CVConfig{InC: 1, InH: 12, InW: 12, Classes: 2})
	x := tensor.New(16, 1, 12, 12)
	labels := make([]int, 16)
	for i := 0; i < 16; i++ {
		labels[i] = i % 2
		for j := 0; j < 144; j++ {
			v := rng.Float32() * 0.1
			if labels[i] == 1 && j%2 == 0 {
				v += 0.8
			}
			x.Data[i*144+j] = v
		}
	}
	opt := optim.NewSGD(m.Params(), 0.05, 0.9, 0)
	var first, last float32
	for it := 0; it < 60; it++ {
		nn.ZeroGrads(m)
		loss := autodiff.SoftmaxCrossEntropy(m.Forward(autodiff.Constant(x)), labels)
		autodiff.Backward(loss)
		opt.Step()
		if it == 0 {
			first = loss.Scalar()
		}
		last = loss.Scalar()
	}
	if last > first/4 {
		t.Fatalf("LeNet failed to learn: loss %v → %v", first, last)
	}
}

func TestTextClassifierLearns(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := NewTextClassifier(rng, 100, 16, 2)
	ids := [][]int{}
	labels := []int{}
	for i := 0; i < 20; i++ {
		k := i % 2
		seq := make([]int, 10)
		for j := range seq {
			seq[j] = k*50 + rng.IntN(50)
		}
		ids = append(ids, seq)
		labels = append(labels, k)
	}
	opt := optim.NewAdam(m.Params(), 0.05)
	var first, last float32
	for it := 0; it < 40; it++ {
		nn.ZeroGrads(m)
		loss := autodiff.SoftmaxCrossEntropy(m.ForwardIDs(ids), labels)
		autodiff.Backward(loss)
		opt.Step()
		if it == 0 {
			first = loss.Scalar()
		}
		last = loss.Scalar()
	}
	if last > first/4 {
		t.Fatalf("text classifier failed to learn: %v → %v", first, last)
	}
}

func TestTransformerLMForwardAndLearn(t *testing.T) {
	rng := tensor.NewRNG(10)
	cfg := TransformerLMConfig{Vocab: 50, D: 16, Heads: 2, FF: 32, Layers: 1, MaxT: 16, Dropout: 0}
	m := NewTransformerLM(rng, cfg)
	// Deterministic sequence: token i+1 follows token i (mod 50).
	mkBatch := func() ([][]int, []int) {
		in := make([][]int, 4)
		tgt := make([][]int, 4)
		for b := range in {
			in[b] = make([]int, 8)
			tgt[b] = make([]int, 8)
			start := b * 3
			for p := 0; p < 8; p++ {
				in[b][p] = (start + p) % 50
				tgt[b][p] = (start + p + 1) % 50
			}
		}
		return in, FlattenTargets(tgt)
	}
	in, flat := mkBatch()
	logits := m.ForwardIDs(in)
	if logits.Val.Dim(0) != 32 || logits.Val.Dim(1) != 50 {
		t.Fatalf("LM logits %v", logits.Val.Shape())
	}
	opt := optim.NewAdam(m.Params(), 0.01)
	var first, last float32
	for it := 0; it < 50; it++ {
		nn.ZeroGrads(m)
		loss := autodiff.SoftmaxCrossEntropy(m.ForwardIDs(in), flat)
		autodiff.Backward(loss)
		opt.Step()
		if it == 0 {
			first = loss.Scalar()
		}
		last = loss.Scalar()
	}
	if last > first/2 {
		t.Fatalf("transformer failed to learn: %v → %v", first, last)
	}
}

func TestFlattenTargets(t *testing.T) {
	got := FlattenTargets([][]int{{1, 2}, {3, 4}})
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FlattenTargets = %v", got)
		}
	}
	if FlattenTargets(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestParamNamesUnique(t *testing.T) {
	rng := tensor.NewRNG(11)
	ms := map[string]interface{ Params() []nn.Param }{
		"resnet18":    NewResNet18(rng, cifarCfg()),
		"vgg16":       NewVGG16(rng, cifarCfg(), false),
		"densenet":    NewDenseNetLite(rng, cifarCfg()),
		"mobilenetv2": NewMobileNetV2(rng, cifarCfg()),
		"transformer": NewTransformerLM(rng, TransformerLMConfig{Vocab: 50, D: 8, Heads: 2, FF: 8, Layers: 2, MaxT: 8}),
	}
	for name, m := range ms {
		seen := map[string]bool{}
		for _, p := range m.Params() {
			if seen[p.Name] {
				t.Fatalf("%s: duplicate param name %q", name, p.Name)
			}
			seen[p.Name] = true
		}
	}
}
