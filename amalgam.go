// Package amalgam is the public API of the Amalgam reproduction: a
// framework for obfuscated neural-network training on untrusted
// (cloud) infrastructure, after "Amalgam: A Framework for Obfuscated
// Neural Network Training on the Cloud" (Taki & Mastorakis,
// MIDDLEWARE '24).
//
// The workflow mirrors the paper's Fig. 1 and is modality-generic: a Job
// (images) or TextJob (token sequences) holds the obfuscated artifacts and
// the secret key, and any Trainer — LocalTrainer in-process, RemoteTrainer
// against a cloud service — runs it with streaming progress, context
// cancellation, and checkpoint/resume:
//
//	ds := amalgam.SyntheticCIFAR10(1024, 1)                  // or your own dataset
//	model, _ := amalgam.BuildCV("resnet18", 7, amalgam.CVConfig{InC: 3, InH: 32, InW: 32, Classes: 10})
//	job, _ := amalgam.Obfuscate(model, ds, amalgam.Options{Amount: 0.5, Seed: 42})
//	stats, _ := amalgam.Train(ctx, amalgam.LocalTrainer{}, job,
//	        amalgam.TrainConfig{Epochs: 5, BatchSize: 64, LR: 0.02},
//	        amalgam.WithProgress(func(s amalgam.EpochStats) { fmt.Println(s.Epoch, s.Loss) }),
//	        amalgam.WithCheckpoint("job.amc", 1))
//	trained, _ := job.Extract("resnet18", 7)                 // fresh original model, trained weights
//
// Text classification follows the same shape through ObfuscateText /
// ExtractText, and language modelling through BuildLMModel /
// ObfuscateTokens / ExtractLM (token streams batched in BPTT windows,
// per-epoch perplexity in EpochStats). Everything the cloud sees — the
// augmented model and the augmented dataset — hides the original
// architecture and data; the secret key never leaves the job. Training
// the augmented model updates the original sub-network EXACTLY as
// un-obfuscated training would (bit-identical weights; see
// internal/core's property tests).
package amalgam

import (
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/tensor"
)

// Re-exported core types. The aliases keep one import path for users while
// the implementation lives in internal packages.
type (
	// ImageDataset is a labelled image set ([N, C, H, W] float32 in [0,1]).
	ImageDataset = data.ImageDataset
	// CVConfig fixes a model's input geometry and class count.
	CVConfig = models.CVConfig
	// CVModel is an image classifier from the model zoo, or user-built by
	// implementing models.CVModel's two methods in agreement.
	CVModel = models.CVModel
	// NoiseSpec selects the augmentation noise distribution.
	NoiseSpec = core.NoiseSpec
	// ImageAugKey is the secret tying augmented data to the skip layers.
	ImageAugKey = core.ImageAugKey
)

// Noise constructors (paper §4.1).
var (
	// UniformNoise is the default: synthetic pixels uniform over [0,1].
	UniformNoise = core.DefaultImageNoise
)

// Synthetic dataset generators (offline stand-ins for the paper's
// datasets; see package internal/data).
var (
	SyntheticMNIST      = data.SyntheticMNIST
	SyntheticCIFAR10    = data.SyntheticCIFAR10
	SyntheticCIFAR100   = data.SyntheticCIFAR100
	SyntheticImagenette = data.SyntheticImagenette
)

// BuildCV constructs a zoo model ("lenet", "resnet18", "vgg16",
// "densenet121", "mobilenetv2", "vgg16cbam") with a deterministic seed.
func BuildCV(name string, seed uint64, cfg CVConfig) (CVModel, error) {
	return models.BuildCV(name, tensor.NewRNG(seed), cfg)
}

// Classifier is anything that maps image batches to class logits — zoo
// models and augmented models alike.
type Classifier interface {
	Forward(x *autodiff.Node) *autodiff.Node
	SetTraining(training bool)
}

// Predict runs the extracted (or any) model over a dataset, returning
// accuracy — a convenience for examples and smoke tests. The model is
// scored in eval mode and its prior train/eval mode is restored
// afterwards, so back-to-back Predict calls (and any direct Forward calls
// that follow) are bit-identical. An empty dataset scores 0; batch <= 0
// scores one sample at a time.
func Predict(m Classifier, ds *ImageDataset, batch int) float64 {
	return cloudsim.Accuracy(m, ds.N(), batch, func(idx []int) (*autodiff.Node, []int) {
		x, labels := ds.Batch(idx)
		return m.Forward(autodiff.Constant(x)), labels
	})
}

// PrivacyLoss returns ε = 1/(1+α) (Eq. 5).
func PrivacyLoss(alpha float64) float64 { return core.PrivacyLoss(alpha) }

// ComputePerformanceLoss returns ρ = α/(1+α) (Eq. 6).
func ComputePerformanceLoss(alpha float64) float64 { return core.ComputePerformanceLoss(alpha) }

// SearchSpace reports the per-sample brute-force search space (log10) for
// an original→augmented unit-length pair, as in Table 2.
func SearchSpace(origLen, augLen int) float64 { return core.LogSearchSpace(origLen, augLen) }
