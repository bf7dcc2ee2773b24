package amalgam

import (
	"fmt"

	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// Text-modality re-exports: the paper's workflow applies to token
// sequences exactly as it does to images (§4.1's Fig. 3 layout), and the
// public API treats both as first-class jobs.
type (
	// TextDataset is a labelled set of fixed-length token sequences
	// (AG News-style classification).
	TextDataset = data.TextDataset
	// TextAugKey is the secret tying augmented sequences to the skip
	// embeddings: the within-window positions holding original tokens.
	TextAugKey = core.TextAugKey
	// TextClassifier is the paper's AG News model: a mean-pooled
	// embedding bag followed by one linear layer.
	TextClassifier = models.TextClassifier
)

// SyntheticAGNews generates the offline stand-in for the AG News corpus
// at the real corpus' vocabulary (95,812) and sample length.
var SyntheticAGNews = data.SyntheticAGNews

// ClassTextConfig parameterises GenerateClassifiedText for corpora smaller
// (or differently shaped) than the AG News stand-in.
type ClassTextConfig = data.ClassTextConfig

// GenerateClassifiedText builds a synthetic classification corpus with
// class-conditional token structure.
var GenerateClassifiedText = data.GenerateClassifiedText

// DefaultTextNoise is uniform noise over the vocabulary — the text
// counterpart of UniformNoise.
func DefaultTextNoise(vocab int) NoiseSpec { return core.DefaultTextNoise(vocab) }

// BuildTextClassifier constructs the AG News-style classifier with a
// deterministic seed.
func BuildTextClassifier(seed uint64, vocab, embedDim, classes int) *TextClassifier {
	return models.NewTextClassifier(tensor.NewRNG(seed), vocab, embedDim, classes)
}

// TextJob holds the obfuscated text artifacts and the secret key — the
// text concretion of TrainableJob. Ship AugmentedDataset and the augmented
// classifier to the cloud; keep the TextJob.
type TextJob struct {
	Augmented        *core.AugmentedTextClassifier
	AugmentedDataset *TextDataset
	Key              *TextAugKey

	opts Options
}

// ObfuscateText augments a classification dataset and wraps the classifier
// with decoy sub-networks bound to the same key — ObfuscateText is to text
// what Obfuscate is to images. Every sample of length L grows to
// L + L·Amount with synthetic tokens at the key's secret positions.
func ObfuscateText(model *TextClassifier, ds *TextDataset, opts Options) (*TextJob, error) {
	if model.Vocab != ds.Vocab {
		return nil, fmt.Errorf("amalgam: model vocabulary %d does not match dataset vocabulary %d", model.Vocab, ds.Vocab)
	}
	if model.Classes != ds.Classes {
		return nil, fmt.Errorf("amalgam: model has %d classes, dataset %d", model.Classes, ds.Classes)
	}
	aug, err := core.AugmentTextDataset(ds, core.TextAugmentOptions{Amount: opts.Amount, Noise: opts.noise(core.DefaultTextNoise(ds.Vocab)), Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("amalgam: dataset augmentation: %w", err)
	}
	am, err := core.AugmentTextClassifier(model, aug.Key, core.ModelAugmentOptions{
		Amount: opts.Amount, SubNets: opts.SubNets, Seed: opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("amalgam: model augmentation: %w", err)
	}
	opts.SubNets = len(am.Decoys) // record the resolved decoy count
	return &TextJob{
		Augmented:        am,
		AugmentedDataset: aug.Dataset,
		Key:              aug.Key,
		opts:             opts,
	}, nil
}

// ObfuscateTestSet augments an evaluation split with the job's key so the
// augmented classifier can be validated cloud-side (§5.4).
func (j *TextJob) ObfuscateTestSet(ds *TextDataset, seed uint64) (*TextDataset, error) {
	return core.AugmentTextDatasetWithKey(ds, j.Key, j.opts.noise(core.DefaultTextNoise(ds.Vocab)), seed)
}

// ops adapts the text job to the Trainer machinery.
func (j *TextJob) ops() *jobOps {
	am, ds := j.Augmented, j.AugmentedDataset
	o := &jobOps{
		model: am,
		req: &cloudsim.TrainRequest{
			Spec:      cloudsim.TextSpec(am, j.Key, j.opts.Amount, j.opts.Seed),
			Samples:   ds.Samples,
			Labels:    ds.Labels,
			InitState: nn.StateDict(am),
		},
	}
	o.attachEval = func(eds EvalDataset) error {
		tds, ok := eds.(*TextDataset)
		if !ok {
			return fmt.Errorf("amalgam: text job eval set must be *TextDataset, got %T", eds)
		}
		augEval, err := j.ObfuscateTestSet(tds, j.opts.Seed^evalSeedSalt)
		if err != nil {
			return err
		}
		o.req.EvalSamples, o.req.EvalLabels = augEval.Samples, augEval.Labels
		return nil
	}
	return o
}

// ExtractText builds a fresh classifier with the original architecture and
// copies the trained original weights into it (§4.3), verified
// bit-for-bit. The fresh classifier is built for load (see Job.Extract): it
// has no initial weights for seed to decide.
func (j *TextJob) ExtractText(seed uint64) (*TextClassifier, error) {
	orig := j.Augmented.Orig
	fresh := models.NewTextClassifier(tensor.NewRNG(seed).ForLoad(true), orig.Vocab, orig.EmbedDim, orig.Classes)
	if err := j.ExtractTextInto(fresh); err != nil {
		return nil, err
	}
	return fresh, nil
}

// ExtractTextInto copies the trained original weights into a user-provided
// fresh classifier and verifies the copy bit-for-bit.
func (j *TextJob) ExtractTextInto(fresh *TextClassifier) error {
	if err := core.Extract(j.Augmented, fresh); err != nil {
		return err
	}
	return core.VerifyExtraction(j.Augmented, fresh)
}

// TextPredictor is anything that maps token batches to class logits —
// plain classifiers and augmented classifiers alike.
type TextPredictor interface {
	ForwardIDs(ids [][]int) *autodiff.Node
	SetTraining(training bool)
}

// PredictText runs a text model over a dataset, returning accuracy — the
// text counterpart of Predict, with the same eval-mode and empty-dataset
// behaviour.
func PredictText(m TextPredictor, ds *TextDataset, batch int) float64 {
	return cloudsim.Accuracy(m, ds.N(), batch, func(idx []int) (*autodiff.Node, []int) {
		ids, labels := ds.Batch(idx)
		return m.ForwardIDs(ids), labels
	})
}
