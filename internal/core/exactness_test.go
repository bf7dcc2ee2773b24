package core

import (
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// These are the paper's load-bearing property tests: training the
// augmented model on the augmented dataset must leave the original
// sub-network's weights BIT-IDENTICAL to training the original model on
// the original dataset (same seeds, same data order). §4.2 argues this
// follows from (i) skip layers reconstructing the original input exactly,
// (ii) decoy branches receiving only gradient-detached taps, and (iii)
// per-sub-network loss heads (Algorithm 1).

// tinyImageSet builds a small learnable dataset sized for CPU tests.
func tinyImageSet(n, c, hw, classes int, seed uint64) *data.ImageDataset {
	return data.GenerateImages(data.ImageConfig{
		Name: "tiny", N: n, C: c, H: hw, W: hw, Classes: classes, Seed: seed, Noise: 0.05,
	})
}

// trainOriginalCV runs the baseline: plain model, plain data.
func trainOriginalCV(t *testing.T, build func() models.CVModel, ds *data.ImageDataset, steps int, batch int) models.CVModel {
	t.Helper()
	m := build()
	m.SetTraining(true)
	opt := optim.NewSGD(m.Params(), 0.05, 0.9, 5e-4)
	batches := data.BatchIter(ds.N(), batch, nil)
	i := 0
	for step := 0; step < steps; step++ {
		x, labels := ds.Batch(batches[i%len(batches)])
		i++
		nn.ZeroGrads(m)
		loss := autodiff.SoftmaxCrossEntropy(m.Forward(autodiff.Constant(x)), labels)
		autodiff.Backward(loss)
		opt.Step()
	}
	return m
}

// trainAugmentedCV runs the Amalgam path: augment data + model, train the
// joint objective, return the augmented model.
func trainAugmentedCV(t *testing.T, build func() models.CVModel, ds *data.ImageDataset, opts ModelAugmentOptions, steps, batch int) (*AugmentedCVModel, *AugmentedImages) {
	t.Helper()
	aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: opts.Amount, Noise: DefaultImageNoise(), Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	am, err := AugmentCVModel(build(), aug.Key, ds.C(), ds.Classes, opts)
	if err != nil {
		t.Fatal(err)
	}
	am.SetTraining(true)
	opt := optim.NewSGD(am.Params(), 0.05, 0.9, 5e-4)
	batches := data.BatchIter(aug.Dataset.N(), batch, nil)
	i := 0
	for step := 0; step < steps; step++ {
		x, labels := aug.Dataset.Batch(batches[i%len(batches)])
		i++
		nn.ZeroGrads(am)
		total, _ := am.Loss(autodiff.Constant(x), labels)
		autodiff.Backward(total)
		opt.Step()
	}
	return am, aug
}

func assertSameWeights(t *testing.T, name string, a, b interface{ Params() []nn.Param }) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: param count %d vs %d", name, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("%s: param order differs: %q vs %q", name, pa[i].Name, pb[i].Name)
		}
		if !pa[i].Node.Val.Equal(pb[i].Node.Val) {
			t.Fatalf("%s: parameter %q differs (max |Δ| = %v) — exactness invariant violated",
				name, pa[i].Name, pa[i].Node.Val.MaxAbsDiff(pb[i].Node.Val))
		}
	}
}

func TestAugmentedTrainingExactnessLeNet(t *testing.T) {
	ds := tinyImageSet(24, 1, 12, 3, 11)
	build := func() models.CVModel {
		return models.NewLeNet5(tensor.NewRNG(77), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3})
	}
	ref := trainOriginalCV(t, build, ds, 8, 8)
	am, _ := trainAugmentedCV(t, build, ds, ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 13}, 8, 8)
	assertSameWeights(t, "lenet", ref, am.Orig)
}

func TestAugmentedTrainingExactnessWithBatchNorm(t *testing.T) {
	// ResNet-18 exercises batch norm (running statistics must also match)
	// and residual/projection shortcuts.
	ds := tinyImageSet(8, 3, 16, 2, 21)
	build := func() models.CVModel {
		return models.NewResNet18(tensor.NewRNG(99), models.CVConfig{InC: 3, InH: 16, InW: 16, Classes: 2})
	}
	ref := trainOriginalCV(t, build, ds, 3, 4)
	am, _ := trainAugmentedCV(t, build, ds, ModelAugmentOptions{Amount: 0.25, SubNets: 2, Seed: 31}, 3, 4)
	assertSameWeights(t, "resnet18", ref, am.Orig) // Params include running stats
}

func TestUndetachedTapsBreakExactness(t *testing.T) {
	// Ablation: without gradient detachment on the original→decoy taps the
	// invariant MUST break — demonstrating that detachment (not luck) is
	// what preserves original training.
	ds := tinyImageSet(24, 1, 12, 3, 11)
	build := func() models.CVModel {
		return models.NewLeNet5(tensor.NewRNG(77), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3})
	}
	ref := trainOriginalCV(t, build, ds, 8, 8)
	am, _ := trainAugmentedCV(t, build, ds, ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 13, UndetachedTaps: true}, 8, 8)
	// At least one original parameter must differ.
	refDict := nn.StateDict(ref)
	differs := false
	for _, p := range am.Orig.Params() {
		if !refDict[p.Name].Equal(p.Node.Val) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("undetached taps should perturb original training; ablation found no difference")
	}
}

func TestExtractionAndEvalParity(t *testing.T) {
	// End-to-end §5.4: validate augmented model on augmented testset ==
	// validate extracted model on original testset, bit-for-bit.
	ds := tinyImageSet(24, 1, 12, 3, 5)
	test := tinyImageSet(12, 1, 12, 3, 6)
	build := func() models.CVModel {
		return models.NewLeNet5(tensor.NewRNG(123), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3})
	}
	am, aug := trainAugmentedCV(t, build, ds, ModelAugmentOptions{Amount: 1.0, SubNets: 3, Seed: 17}, 6, 8)

	// Extract into a fresh instance of the user's model definition.
	fresh := build()
	if err := Extract(am, fresh); err != nil {
		t.Fatal(err)
	}
	if err := VerifyExtraction(am, fresh); err != nil {
		t.Fatal(err)
	}

	// Augment the test split with the same key; compare logits.
	augTest, err := AugmentImagesWithKey(test, aug.Key, DefaultImageNoise(), 77)
	if err != nil {
		t.Fatal(err)
	}
	am.SetTraining(false)
	fresh.SetTraining(false)
	xa, _ := augTest.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	xo, _ := test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	la := am.Forward(autodiff.Constant(xa))
	lo := fresh.Forward(autodiff.Constant(xo))
	if !la.Val.Equal(lo.Val) {
		t.Fatalf("augmented-testset logits differ from extracted-model logits (max |Δ| %v)", la.Val.MaxAbsDiff(lo.Val))
	}
}

func TestExtractErrorsWithoutOrigEntries(t *testing.T) {
	l := models.NewLeNet5(tensor.NewRNG(1), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 2})
	if err := Extract(l, l); err == nil {
		t.Fatal("extracting from a non-augmented model should error")
	}
}

func TestAugmentedParamBudget(t *testing.T) {
	// Table 3's scaling: augmented trainable params ≈ (1+α)·original.
	ds := tinyImageSet(4, 3, 16, 10, 1)
	for _, alpha := range []float64{0.25, 0.5, 0.75, 1.0} {
		aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: alpha, Noise: DefaultImageNoise(), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		orig := models.NewResNet18(tensor.NewRNG(5), models.CVConfig{InC: 3, InH: 16, InW: 16, Classes: 10})
		am, err := AugmentCVModel(orig, aug.Key, 3, 10, ModelAugmentOptions{Amount: alpha, SubNets: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(nn.NumParams(orig)) * (1 + alpha)
		got := float64(am.TotalParams())
		if dev := (got - want) / want; dev > 0.02 || dev < -0.02 {
			t.Fatalf("α=%v: augmented params %v, want ≈%v (dev %.2f%%)", alpha, got, want, dev*100)
		}
	}
}

func TestZeroAmountModelAugmentation(t *testing.T) {
	ds := tinyImageSet(4, 1, 12, 2, 1)
	aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: 0, Noise: DefaultImageNoise(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	orig := models.NewLeNet5(tensor.NewRNG(5), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 2})
	am, err := AugmentCVModel(orig, aug.Key, 1, 2, ModelAugmentOptions{Amount: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Decoys) != 0 {
		t.Fatal("zero augmentation should add no decoys")
	}
	if am.TotalParams() != nn.NumParams(orig) {
		t.Fatal("zero augmentation should add no parameters")
	}
}

func TestSkipGatherReconstructsOriginal(t *testing.T) {
	ds := tinyImageSet(3, 3, 8, 2, 9)
	aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: 0.75, Noise: DefaultImageNoise(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := NewSkipGather2dFromKey(aug.Key)
	x, _ := aug.Dataset.Batch([]int{0, 1, 2})
	rec := g.Forward(autodiff.Constant(x))
	want, _ := ds.Batch([]int{0, 1, 2})
	if !rec.Val.Equal(want) {
		t.Fatal("SkipGather2d must reconstruct the original batch exactly")
	}
}

func TestRandomSkipGatherDiffersFromKey(t *testing.T) {
	rng := tensor.NewRNG(10)
	key, _ := NewImageAugKey(rng, 8, 8, 0.5)
	d := NewRandomSkipGather2d(rng, key)
	if len(d.Idx) != 64 {
		t.Fatalf("decoy gather size %d", len(d.Idx))
	}
	same := true
	for i := range d.Idx {
		if d.Idx[i] != key.Keep[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("decoy gather should not equal the secret key")
	}
}

func TestMaskedSkipConvEquivalence(t *testing.T) {
	// Eq. 1's literal masked convolution must agree with the production
	// gather+conv composition (BenchmarkAblationSkipConvImpl times the two).
	rng := tensor.NewRNG(14)
	ds := tinyImageSet(2, 3, 8, 2, 3)
	aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: 0.5, Noise: DefaultImageNoise(), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	g := NewSkipGather2dFromKey(aug.Key)
	masked := NewMaskedSkipConv2d(g)

	w := tensor.New(4, 3, 3, 3)
	rng.FillNormal(w, 0, 0.5)
	x, _ := aug.Dataset.Batch([]int{0, 1})

	gathered := g.Forward(autodiff.Constant(x))
	viaGather := autodiff.Conv2d(gathered, autodiff.Constant(w), nil, 1, 1, tensor.ActNone)
	viaMask := masked.Forward(x, w, 1)
	if !viaGather.Val.AllClose(viaMask, 1e-5) {
		t.Fatalf("masked Eq.1 conv and gather+conv disagree by %v", viaGather.Val.MaxAbsDiff(viaMask))
	}
}

func TestDecoyLossesActuallyTrainDecoys(t *testing.T) {
	// Decoy parameters must receive gradients and move (they "equally
	// participate in gradient descent", §6.3) — otherwise a cloud attacker
	// could identify frozen parameters as decoys.
	ds := tinyImageSet(8, 1, 12, 2, 2)
	build := func() models.CVModel {
		return models.NewLeNet5(tensor.NewRNG(3), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 2})
	}
	am, aug := trainAugmentedCV(t, build, ds, ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 5}, 2, 8)
	// Rebuild the untrained augmented model from the same key and seed; any
	// parameter that differs from it has moved during training.
	fresh, err := AugmentCVModel(build(), aug.Key, 1, 2, ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	freshDict := nn.StateDict(fresh)
	for _, p := range am.Params() {
		if !p.Node.RequiresGrad() {
			continue
		}
		if src, ok := freshDict[p.Name]; ok && !src.Equal(p.Node.Val) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no parameters moved during augmented training")
	}
}
