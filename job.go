package amalgam

import (
	"fmt"

	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// evalSeedSalt derives the noise seed for WithEvalSet obfuscation from the
// job seed, so held-out augmentation is reproducible but decorrelated from
// the training set's noise stream.
const evalSeedSalt = 0xe7a15e7

// TrainableJob is an obfuscated job a Trainer can run: the CV *Job, the
// text *TextJob and the *LMJob. The interface is closed (its method is
// unexported) because trainers need the job's key-side plumbing — the
// request it becomes, the held-out split obfuscated with its key — that
// only the package's job types carry.
type TrainableJob interface {
	ops() *jobOps
}

// jobOps adapts one job to the trainers. It holds the job's live model
// and a request that views its live parameters, so an ops value is as
// stateful as the job itself and must not be shared across concurrent
// runs.
type jobOps struct {
	// model is the job's augmented model: LocalTrainer trains it in
	// place, RemoteTrainer's streamed epoch boundaries land in its tensors
	// (through req.InitState's views), checkpoint files load into it.
	model cloudsim.Trainable
	// req is the job as a training request: spec, augmented payload, and
	// the model's live parameters as the initial state (views, no copy).
	// LocalTrainer hands model and req to cloudsim.TrainLoop, RemoteTrainer
	// ships req — the same job by construction. req.Spec.Kind is the kind
	// checkpoints record; WithResume refuses a checkpoint of another kind
	// (ErrCheckpointKind) instead of failing deep in the state-dict load.
	req *cloudsim.TrainRequest
	// attachEval obfuscates a held-out split with the job key and
	// attaches it to req.
	attachEval func(ds EvalDataset) error
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

// Obfuscate augments the dataset and wraps the model (paper §4.1–4.2).
// The model instance becomes the original sub-network of the augmented
// model; pre-trained weights on it are preserved (transfer learning §4.4).
func Obfuscate(model CVModel, ds *ImageDataset, opts Options) (*Job, error) {
	aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: opts.Amount, Noise: opts.noise(core.DefaultImageNoise()), Seed: opts.Seed})
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
	return core.AugmentImagesWithKey(ds, j.Key, j.opts.noise(core.DefaultImageNoise()), seed)
}

// ops adapts the CV job to the Trainer machinery.
func (j *Job) ops() *jobOps {
	am, ds := j.Augmented, j.AugmentedDataset
	o := &jobOps{
		model: am,
		req: &cloudsim.TrainRequest{
			Spec:      cloudsim.CVSpec(j.opts.ModelName, j.origCfg.InC, am, j.Key, j.opts.Amount, j.opts.Seed),
			Images:    ds.Images,
			Labels:    ds.Labels,
			InitState: nn.StateDict(am),
		},
	}
	o.attachEval = func(eds EvalDataset) error {
		ids, ok := eds.(*ImageDataset)
		if !ok {
			return fmt.Errorf("amalgam: CV job eval set must be *ImageDataset, got %T", eds)
		}
		augEval, err := j.ObfuscateTestSet(ids, j.opts.Seed^evalSeedSalt)
		if err != nil {
			return err
		}
		o.req.EvalImages, o.req.EvalLabels = augEval.Images, augEval.Labels
		return nil
	}
	return o
}

// Extract builds a fresh instance of the original architecture (from the
// zoo name used to build the model) and copies the trained original weights
// into it (§4.3). The fresh model is built for load — what BuildCV(name,
// seed, …) builds, minus the initial weights the copy would overwrite — so
// seed decides only its dropout streams. For models built outside the zoo,
// use ExtractInto.
func (j *Job) Extract(name string, seed uint64) (CVModel, error) {
	fresh, err := models.BuildCV(name, tensor.NewRNG(seed).ForLoad(true), j.origCfg)
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
