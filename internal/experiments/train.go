// Package experiments is the harness that regenerates every table and
// figure of the paper's evaluation (§5–§6) on the synthetic substrate.
// Each experiment has one entry point that writes the same rows/series the
// paper reports; cmd/amalgam-bench -experiment <name> is the one door to
// them.
//
// Every training run is the shipped product: amalgam.Obfuscate /
// ObfuscateText / ObfuscateTokens at the row's amount, then amalgam.Train
// over the job with LocalTrainer — the loop, batch shuffle, optimiser and
// scoring a user gets, so the tables time and the figures check that
// program and no other. The un-obfuscated baseline is the same path at
// amount 0 (identity key, zero decoys): there is no separate plain
// trainer whose step or batch order could drift from the obfuscated one,
// which is what makes "the curves coincide" a statement about obfuscation
// alone. The one run that is not a job — Fig. 14's DISCO LeNet — drives
// cloudsim.TrainLoop, the loop under amalgam.Train, directly.
//
// Scale: the paper trains full datasets for many epochs on 2×RTX 3090; we
// default to reduced sample counts/epochs sized for CPUs. The *shape* of
// every result (who wins, monotonicity, curve coincidence) is preserved;
// absolute times are not. README "Benchmarks" tells these paper tables
// from the repo's perf gate (go run ./bench).
package experiments

import (
	"context"
	"fmt"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
)

// Scale sizes an experiment run.
type Scale struct {
	TrainN, TestN int
	Epochs        int
	BatchSize     int
	LR            float64
}

// QuickScale is the CI/bench default: seconds per configuration.
func QuickScale() Scale { return Scale{TrainN: 48, TestN: 24, Epochs: 3, BatchSize: 16, LR: 0.02} }

// FullScale approaches paper geometry (still CPU-bound; expect hours).
func FullScale() Scale { return Scale{TrainN: 2048, TestN: 512, Epochs: 10, BatchSize: 64, LR: 0.02} }

// sgd is the scale as momentum-SGD hyper-parameters.
func (sc Scale) sgd(lr, weightDecay float64) amalgam.TrainConfig {
	return amalgam.TrainConfig{Epochs: sc.Epochs, BatchSize: sc.BatchSize, LR: lr, Momentum: 0.9, WeightDecay: weightDecay}
}

// cvConfig is what every CV run trains under.
func (sc Scale) cvConfig() amalgam.TrainConfig { return sc.sgd(sc.LR, 5e-4) }

// EpochPoint is one point of a training/validation curve (Figs. 5–13).
type EpochPoint struct {
	Epoch     int
	TrainLoss float64
	TrainAcc  float64
	ValLoss   float64
	ValAcc    float64
}

// RunResult is a complete training run.
type RunResult struct {
	Label   string
	Points  []EpochPoint
	Seconds float64
	Params  int
}

// train runs one job through the product loop and records the
// ORIGINAL sub-network's curves (what the paper plots) from the streamed
// EpochStats. val, when non-nil, is the held-out split the loop scores;
// valLoss reads the one curve EpochStats does not carry off the live
// model — WithProgress runs synchronously between epochs, so it sees
// exactly the weights the epoch's other figures describe.
func train(label string, job amalgam.TrainableJob, params int, cfg amalgam.TrainConfig,
	val amalgam.EvalDataset, valLoss func() float64) (RunResult, error) {

	res := RunResult{Label: label, Params: params}
	opts := []amalgam.TrainOption{amalgam.WithProgress(func(s amalgam.EpochStats) {
		p := EpochPoint{Epoch: s.Epoch, TrainLoss: s.Loss, TrainAcc: s.Accuracy, ValAcc: s.EvalAccuracy}
		if valLoss != nil {
			p.ValLoss = valLoss()
		}
		res.Points = append(res.Points, p)
	})}
	if val != nil {
		opts = append(opts, amalgam.WithEvalSet(val))
	}
	start := time.Now()
	_, err := amalgam.Train(context.TODO(), amalgam.LocalTrainer{}, job, cfg, opts...)
	res.Seconds = time.Since(start).Seconds()
	return res, err
}

// meanLoss is the harness's one eval loop: the mean of loss over n
// samples walked in order, with m in eval mode and its prior mode
// restored afterwards (it runs between the epochs of a live training
// run). loss returns one batch's mean loss and the count it averages.
func meanLoss(m interface{ SetTraining(bool) }, n, batch int, loss func(idx []int) (*autodiff.Node, int)) float64 {
	prev := nn.TrainingMode(m)
	m.SetTraining(false)
	defer m.SetTraining(prev)
	var sum float64
	seen := 0
	for _, idx := range data.BatchIter(n, batch, nil) {
		l, count := loss(idx)
		sum += float64(l.Scalar()) * float64(count)
		seen += count
		autodiff.Release(l)
	}
	return sum / float64(seen)
}

// trainCV obfuscates model and ds under o and trains the job at sc. A
// non-nil val adds the validation curves, scored under the job's key.
func trainCV(label string, model models.CVModel, ds, val *data.ImageDataset, o amalgam.Options, sc Scale) (RunResult, error) {
	job, err := amalgam.Obfuscate(model, ds, o)
	if err != nil {
		return RunResult{}, err
	}
	cfg, params := sc.cvConfig(), job.Augmented.TotalParams()
	if val == nil {
		return train(label, job, params, cfg, nil, nil)
	}
	augVal, err := job.ObfuscateTestSet(val, o.Seed+1)
	if err != nil {
		return RunResult{}, err
	}
	am := job.Augmented
	return train(label, job, params, cfg, val, func() float64 {
		return meanLoss(am, augVal.N(), sc.BatchSize, func(idx []int) (*autodiff.Node, int) {
			x, labels := augVal.Batch(idx)
			return autodiff.SoftmaxCrossEntropy(am.Forward(autodiff.Constant(x)), labels), len(labels)
		})
	})
}

// trainText is trainCV for the AG News-style classifier.
func trainText(label string, model *models.TextClassifier, ds, val *data.TextDataset, o amalgam.Options, sc Scale) (RunResult, error) {
	job, err := amalgam.ObfuscateText(model, ds, o)
	if err != nil {
		return RunResult{}, err
	}
	cfg, params := sc.sgd(0.5, 0), job.Augmented.TotalParams()
	if val == nil {
		return train(label, job, params, cfg, nil, nil)
	}
	augVal, err := job.ObfuscateTestSet(val, o.Seed+1)
	if err != nil {
		return RunResult{}, err
	}
	am := job.Augmented
	return train(label, job, params, cfg, val, func() float64 {
		return meanLoss(am, augVal.N(), sc.BatchSize, func(idx []int) (*autodiff.Node, int) {
			ids, labels := augVal.Batch(idx)
			return autodiff.SoftmaxCrossEntropy(am.ForwardIDs(ids), labels), len(labels)
		})
	})
}

// trainLM is trainCV for the transformer LM over bptt-token windows; its
// losses are per original next-token target.
func trainLM(label string, model *models.TransformerLM, stream, val *data.TokenStream, bptt int, o amalgam.Options, sc Scale) (RunResult, error) {
	job, err := amalgam.ObfuscateTokens(model, stream, bptt, o)
	if err != nil {
		return RunResult{}, err
	}
	cfg, params := sc.sgd(sc.LR, 0), job.Augmented.TotalParams()
	if val == nil {
		return train(label, job, params, cfg, nil, nil)
	}
	augVal, err := job.ObfuscateTestStream(val, o.Seed+1)
	if err != nil {
		return RunResult{}, err
	}
	am, ws := job.Augmented, augVal.WindowSet(job.Key.AugLen)
	return train(label, job, params, cfg, val, func() float64 {
		return meanLoss(am, ws.N(), sc.BatchSize, func(idx []int) (*autodiff.Node, int) {
			wins := ws.Batch(idx)
			return am.ValidateLoss(wins), len(wins) * (bptt - 1)
		})
	})
}

// datasetByName builds the synthetic stand-in with quick-scale counts.
func datasetByName(name string, n int, seed uint64) (*data.ImageDataset, error) {
	switch name {
	case "mnist":
		return data.SyntheticMNIST(n, seed), nil
	case "cifar10":
		return data.SyntheticCIFAR10(n, seed), nil
	case "cifar100":
		return data.SyntheticCIFAR100(n, seed), nil
	case "imagenette":
		return data.SyntheticImagenette(n, seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}
