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

// The obfuscation tax in seconds instead of the repo benchmark's twenty:
// one training step as cloudsim.TrainLoop runs it — forward, backward with
// the workload's optimiser updating each parameter inside it, release — of
// a plain model (amount 0: no decoys, identity key) against the same model
// augmented as the workload augments it. The augmented arm carries 1.5×
// the parameters, so the optimiser is part of the tax. aug ÷ plain of the two sub-benchmarks is the ratio `go run ./bench`
// gates, minus the epoch's evaluation pass. Run with -cpu 1,2: on one core
// the decoys queue behind the original whatever the code does, on two they
// run beside it.

var benchArms = []struct {
	name   string
	amount float64
}{{"plain", 0}, {"aug", 0.5}}

// BenchmarkAugmentedLMStep is lm_local's geometry: d128 / 4 heads / FF 512 /
// 2 layers over a 2 000-token vocabulary, 16 windows of 64, Amount 0.5 with
// two decoys.
func BenchmarkAugmentedLMStep(b *testing.B) {
	const vocab, window, batch = 2000, 64, 16
	cfg := models.TransformerLMConfig{Vocab: vocab, D: 128, Heads: 4, FF: 512, Layers: 2, MaxT: 64}
	stream := data.GenerateTokenStream(data.TextConfig{Name: "bench-lm", Tokens: window * batch, Vocab: vocab, Seed: 1})
	for _, arm := range benchArms {
		b.Run(arm.name, func(b *testing.B) {
			aug, err := AugmentTokenStream(stream, TextAugmentOptions{Amount: arm.amount, WindowLen: window, Noise: DefaultTextNoise(vocab), Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			am, err := AugmentTransformerLM(models.NewTransformerLM(tensor.NewRNG(2), cfg), aug.Key, ModelAugmentOptions{Amount: arm.amount, SubNets: 2, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			am.SetTraining(true)
			windows := aug.Stream.WindowSet(aug.Key.AugLen).Batch(data.BatchIter(batch, batch, nil)[0])
			benchStep(b, am, optim.OptimSpec{Kind: optim.KindAdam, LR: 1e-3}, func() *autodiff.Node {
				total, _ := am.LossWindows(windows)
				return total
			})
		})
	}
}

// BenchmarkAugmentedResNet18Step is cv_local's geometry: the zoo resnet18 on
// 3×32×32 at batch 16, Amount 0.5 with three decoys.
func BenchmarkAugmentedResNet18Step(b *testing.B) {
	const batch, classes = 16, 10
	ds := data.GenerateImages(data.ImageConfig{Name: "bench-cv", N: batch, C: 3, H: 32, W: 32, Classes: classes, Seed: 1})
	for _, arm := range benchArms {
		b.Run(arm.name, func(b *testing.B) {
			aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: arm.amount, Noise: DefaultImageNoise(), Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			orig := models.NewResNet18(tensor.NewRNG(2), models.CVConfig{InC: 3, InH: 32, InW: 32, Classes: classes})
			am, err := AugmentCVModel(orig, aug.Key, 3, classes, ModelAugmentOptions{Amount: arm.amount, SubNets: 3, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			am.SetTraining(true)
			x, labels := aug.Dataset.Batch(data.BatchIter(batch, batch, nil)[0])
			benchStep(b, am, optim.OptimSpec{Kind: optim.KindSGD, LR: 0.02, Momentum: 0.9}, func() *autodiff.Node {
				total, _ := am.Loss(autodiff.Constant(x), labels)
				return total
			})
		})
	}
}

// benchStep times loss → Optimizer.Backward → Release under spec (the
// workload's optimiser: SGD with momentum for CV, Adam for the LM), after
// one untimed step that warms the pool and allocates the optimiser's
// buffers and spare gradients.
func benchStep(b *testing.B, m interface{ Params() []nn.Param }, spec optim.OptimSpec, loss func() *autodiff.Node) {
	opt, err := optim.Build(spec, m.Params())
	if err != nil {
		b.Fatal(err)
	}
	step := func() {
		root := loss()
		opt.Backward(root)
		autodiff.Release(root)
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
