package amalgam

import (
	"fmt"

	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// evalSeedSalt derives the noise seed for WithEvalSet obfuscation from the
// job seed, so held-out augmentation is reproducible but decorrelated from
// the training set's noise stream.
const evalSeedSalt = 0xe7a15e7

// TrainableJob is an obfuscated job a Trainer can run: the CV *Job and the
// text *TextJob. The interface is closed (its method is unexported)
// because trainers need modality-specific plumbing — batch construction,
// wire encoding, extraction names — that only the package's job types
// carry.
type TrainableJob interface {
	// ops exposes the modality-neutral hooks trainers drive: the training
	// engine over the live job artifacts, building a cloudsim request,
	// loading trained state back.
	ops() *jobOps
}

// jobOps adapts one job to the trainers. All closures capture the job, so
// an ops value is as stateful as the job itself and must not be shared
// across concurrent runs.
type jobOps struct {
	// kind is the job's wire spec kind ("augmented-cv", "augmented-text",
	// "augmented-lm"). Checkpoints record it, and WithResume refuses a
	// checkpoint whose recorded kind differs (ErrCheckpointKind) instead
	// of failing deep in the state-dict load.
	kind string
	// engine drives cloudsim.TrainLoop over the job's live augmented
	// model and dataset — the same loop the cloud service runs, which is
	// what keeps local and remote training bit-identical.
	engine      *cloudsim.Engine
	defaultSeed uint64 // default shuffle seed (Options.Seed)
	// makeEval obfuscates a held-out split with the job key, returning a
	// local scoring closure and a hook attaching the split to a remote
	// request.
	makeEval func(ds EvalDataset) (acc func(batch int) float64, attach func(*cloudsim.TrainRequest), err error)
	// request builds the remote-training request (spec, payload, and the
	// client-side initial state).
	request func() (*cloudsim.TrainRequest, error)
	// loadState loads a trained or checkpointed state dict back into the
	// augmented model.
	loadState func(map[string]*tensor.Tensor) error
}

// Job holds the obfuscated CV artifacts and the secret key. Ship
// AugmentedDataset and the augmented model to the cloud; keep the Job.
type Job struct {
	Augmented        *core.AugmentedCVModel
	AugmentedDataset *ImageDataset
	Key              *ImageAugKey

	origCfg CVConfig
	opts    Options
}

// CVJob is the modality-explicit name for Job, mirroring TextJob.
type CVJob = Job

// Obfuscate augments the dataset and wraps the model (paper §4.1–4.2).
// The model instance becomes the original sub-network of the augmented
// model; pre-trained weights on it are preserved (transfer learning §4.4).
func Obfuscate(model CVModel, ds *ImageDataset, opts Options) (*Job, error) {
	noise := core.DefaultImageNoise()
	if opts.Noise != nil {
		noise = *opts.Noise
	}
	aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: opts.Amount, Noise: noise, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("amalgam: dataset augmentation: %w", err)
	}
	am, err := core.AugmentCVModel(model, aug.Key, ds.C(), ds.Classes, core.ModelAugmentOptions{
		Amount: opts.Amount, SubNets: opts.SubNets, Seed: opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("amalgam: model augmentation: %w", err)
	}
	opts.SubNets = len(am.Decoys) // record the resolved decoy count
	return &Job{
		Augmented:        am,
		AugmentedDataset: aug.Dataset,
		Key:              aug.Key,
		origCfg:          CVConfig{InC: ds.C(), InH: ds.H(), InW: ds.W(), Classes: ds.Classes},
		opts:             opts,
	}, nil
}

// ObfuscateTestSet augments an evaluation split with the job's key so the
// augmented model can be validated cloud-side (§5.4).
func (j *Job) ObfuscateTestSet(ds *ImageDataset, seed uint64) (*ImageDataset, error) {
	noise := core.DefaultImageNoise()
	if j.opts.Noise != nil {
		noise = *j.opts.Noise
	}
	return core.AugmentImagesWithKey(ds, j.Key, noise, seed)
}

// ops adapts the CV job to the Trainer machinery.
func (j *Job) ops() *jobOps {
	am, ds := j.Augmented, j.AugmentedDataset
	return &jobOps{
		kind: "augmented-cv",
		engine: &cloudsim.Engine{
			Model:    am,
			N:        ds.N(),
			Step:     cloudsim.CVStep(am, am.Loss, ds),
			TrainAcc: func(batch int) float64 { return Predict(am, ds, batch) },
		},
		defaultSeed: j.opts.Seed,
		makeEval: func(eds EvalDataset) (func(int) float64, func(*cloudsim.TrainRequest), error) {
			ids, ok := eds.(*ImageDataset)
			if !ok {
				return nil, nil, fmt.Errorf("amalgam: CV job eval set must be *ImageDataset, got %T", eds)
			}
			augEval, err := j.ObfuscateTestSet(ids, j.opts.Seed^evalSeedSalt)
			if err != nil {
				return nil, nil, err
			}
			acc := func(batch int) float64 { return Predict(am, augEval, batch) }
			attach := func(req *cloudsim.TrainRequest) {
				req.EvalImages = augEval.Images
				req.EvalLabels = augEval.Labels
			}
			return acc, attach, nil
		},
		request: func() (*cloudsim.TrainRequest, error) {
			if j.opts.ModelName == "" {
				return nil, fmt.Errorf("amalgam: remote CV training requires Options.ModelName")
			}
			// The spec carries the RESOLVED decoy count (the random
			// SubNets draw happens outside the augmentation RNG stream),
			// so the server rebuild matches even unpinned jobs.
			spec := cloudsim.ModelSpec{
				Kind: "augmented-cv", Model: j.opts.ModelName,
				InC: j.origCfg.InC, OrigH: j.origCfg.InH, OrigW: j.origCfg.InW, Classes: j.origCfg.Classes,
				AugAmount: j.opts.Amount, SubNets: len(j.Augmented.Decoys), AugSeed: j.opts.Seed,
				KeyKeep: j.Key.Keep, AugH: j.Key.AugH, AugW: j.Key.AugW,
			}
			return &cloudsim.TrainRequest{
				Spec:      spec,
				Images:    ds.Images,
				Labels:    ds.Labels,
				InitState: nn.StateDict(am),
			}, nil
		},
		loadState: func(dict map[string]*tensor.Tensor) error {
			if err := nn.LoadStateDict(am, dict); err != nil {
				return fmt.Errorf("amalgam: loading trained weights: %w", err)
			}
			return nil
		},
	}
}

// Extract builds a fresh instance of the original architecture (from the
// zoo name used to build the model, with the given seed) and copies the
// trained original weights into it (§4.3). For models built outside the
// zoo, use ExtractInto.
func (j *Job) Extract(name string, seed uint64) (CVModel, error) {
	fresh, err := BuildCV(name, seed, j.origCfg)
	if err != nil {
		return nil, err
	}
	if err := j.ExtractInto(fresh); err != nil {
		return nil, err
	}
	return fresh, nil
}

// ExtractInto copies the trained original weights (including batch-norm
// running statistics) into a user-provided fresh model and verifies the
// copy bit-for-bit.
func (j *Job) ExtractInto(fresh CVModel) error {
	if err := core.Extract(j.Augmented, fresh); err != nil {
		return err
	}
	return core.VerifyExtraction(j.Augmented, fresh)
}
