package amalgam_test

// Ablation benchmarks for the repo's own design choices, plus the paper's
// §5.4 "miscellaneous" claim that extraction runs in constant
// time regardless of augmentation amount.

import (
	"fmt"
	"testing"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/tensor"
)

// BenchmarkAblationSkipConvImpl compares the two implementations of Eq. 1:
// the production gather+dense-conv composition vs the literal masked
// convolution. They are bit-equal (TestMaskedSkipConvEquivalence); this
// bench shows why the gather form is the default.
func BenchmarkAblationSkipConvImpl(b *testing.B) {
	ds := data.SyntheticCIFAR10(8, 1)
	aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: 0.5, Noise: core.DefaultImageNoise(), Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	g := core.NewSkipGather2dFromKey(aug.Key)
	masked := core.NewMaskedSkipConv2d(g)
	rng := tensor.NewRNG(3)
	w := tensor.New(16, 3, 3, 3)
	rng.FillNormal(w, 0, 0.3)
	x, _ := aug.Dataset.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})

	b.Run("gather+conv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gx := g.Forward(autodiff.Constant(x))
			_ = autodiff.Conv2d(gx, autodiff.Constant(w), nil, 1, 1, tensor.ActNone)
		}
	})
	b.Run("masked-eq1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = masked.Forward(x, w, 1)
		}
	})
}

// BenchmarkAblationNoiseTypes measures dataset-augmentation throughput per
// noise source (§4.1's three options).
func BenchmarkAblationNoiseTypes(b *testing.B) {
	ds := data.SyntheticCIFAR10(32, 1)
	pool := data.SyntheticImagenette(1, 9).Images.Data[:65536]
	specs := map[string]core.NoiseSpec{
		"uniform":  core.DefaultImageNoise(),
		"gaussian": {Type: core.NoiseGaussian, Mean: 0.5, Sigma: 0.25, Min: 0, Max: 1},
		"laplace":  {Type: core.NoiseLaplace, Mean: 0.5, Sigma: 0.25, Min: 0, Max: 1},
		"user":     {Type: core.NoiseUser, Pool: pool},
	}
	for name, spec := range specs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: 0.5, Noise: spec, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTaps measures the cost of the original→decoy taps
// (DisableTaps removes them). The correctness side of this ablation lives
// in TestUndetachedTapsBreakExactness.
func BenchmarkAblationTaps(b *testing.B) {
	ds := data.SyntheticMNIST(16, 1)
	aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: 0.5, Noise: core.DefaultImageNoise(), Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := models.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10}
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"with-taps", false}, {"no-taps", true}} {
		b.Run(variant.name, func(b *testing.B) {
			am, err := core.AugmentCVModel(models.NewLeNet5(tensor.NewRNG(7), cfg), aug.Key, 1, 10,
				core.ModelAugmentOptions{Amount: 0.5, SubNets: 3, Seed: 13, DisableTaps: variant.disable})
			if err != nil {
				b.Fatal(err)
			}
			x, labels := aug.Dataset.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range am.Params() {
					p.Node.ZeroGrad()
				}
				total, _ := am.Loss(autodiff.Constant(x), labels)
				autodiff.Backward(total)
			}
		})
	}
}

// BenchmarkExtractor verifies §5.4's claim: extraction time is independent
// of the augmentation amount (it only copies original-layer tensors). The
// lenet cases time the copy alone, into a model built once; the resnet18
// cases time what a user calls — Job.Extract: build the fresh 11.2 M-
// parameter model for load, copy, verify — which is where a weight draw the
// copy overwrites (60 of 77 ms) once hid behind the copy-only number.
func BenchmarkExtractor(b *testing.B) {
	ds := data.SyntheticMNIST(4, 1)
	cfg := models.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10}
	for _, amount := range []float64{0.25, 1.0} {
		b.Run(fmt.Sprintf("amount-%.0f%%", amount*100), func(b *testing.B) {
			aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: amount, Noise: core.DefaultImageNoise(), Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			am, err := core.AugmentCVModel(models.NewLeNet5(tensor.NewRNG(7), cfg), aug.Key, 1, 10,
				core.ModelAugmentOptions{Amount: amount, SubNets: 3, Seed: 13})
			if err != nil {
				b.Fatal(err)
			}
			fresh := models.NewLeNet5(tensor.NewRNG(8), cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.Extract(am, fresh); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("resnet18/amount-%.0f%%", amount*100), func(b *testing.B) {
			model, err := amalgam.BuildCV("resnet18", 7, amalgam.CVConfig{InC: 3, InH: 32, InW: 32, Classes: 10})
			if err != nil {
				b.Fatal(err)
			}
			job, err := amalgam.Obfuscate(model, data.SyntheticCIFAR10(4, 1), amalgam.Options{Amount: amount, SubNets: 3, Seed: 13})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := job.Extract("resnet18", 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
