package amalgam

import (
	"errors"
	"fmt"
	"time"

	"amalgam/internal/optim"
)

// ErrEmptyEvalSet rejects a WithEvalSet split with no samples at
// option-resolution time: an empty split can only ever score 0 and
// historically produced NaN accuracies deep inside the epoch loop, so
// the misconfiguration is surfaced up front where it happened.
var ErrEmptyEvalSet = errors.New("amalgam: eval set is empty")

// Options configures obfuscation (dataset + model augmentation) for both
// modalities: Obfuscate (images) and ObfuscateText (token sequences).
type Options struct {
	// Amount is the augmentation amount α for both the dataset and the
	// model (the paper uses matched amounts throughout its evaluation).
	Amount float64
	// SubNets is the number of decoy sub-networks (0 = random in [2,4],
	// drawn deterministically from Seed). The draw is resolved before
	// augmentation and recorded back into the job, so remote jobs need NOT
	// pin it: the wire spec always carries the resolved count and the
	// service rebuilds the identical graph.
	SubNets int
	// Noise overrides the default noise (uniform pixels for images,
	// uniform vocabulary tokens for text).
	Noise *NoiseSpec
	// Seed drives every random choice (key, noise, decoys) and, unless
	// WithShuffleSeed overrides it, the per-epoch batch shuffle.
	Seed uint64
	// ModelName is the zoo name of a CV model; required only for remote
	// training, which ships a rebuildable spec to the service. Text jobs
	// carry their geometry in the spec and don't need it.
	ModelName string
}

// noise is the augmentation noise: Noise when set, else the modality's
// default def.
func (o Options) noise(def NoiseSpec) NoiseSpec {
	if o.Noise != nil {
		return *o.Noise
	}
	return def
}

// OptimizerSpec selects and parameterises the optimiser a job trains
// under. Specs are plain serialisable values: the same spec rebuilds the
// same optimiser locally and on a remote service, which is what keeps
// local and remote runs bit-identical. Zero-valued Adam fields fall back
// to the standard defaults (β₁ 0.9, β₂ 0.999, ε 1e-8). Use the Adam and
// AdamW constructors for the common cases.
type OptimizerSpec = optim.OptimSpec

// LRScheduleSpec selects and parameterises a learning-rate schedule.
// Schedules are reconstructable from (spec, epoch) alone — resuming a run
// at epoch k re-derives the same LR the uninterrupted run used, with no
// schedule state in the checkpoint. Use the StepDecay and CosineDecay
// constructors for the common cases.
type LRScheduleSpec = optim.ScheduleSpec

// Adam returns a spec for the Adam optimiser with standard defaults
// (β₁ 0.9, β₂ 0.999, ε 1e-8) at the given learning rate.
func Adam(lr float64) *OptimizerSpec {
	return &OptimizerSpec{Kind: optim.KindAdam, LR: lr}
}

// AdamW returns an Adam spec with decoupled weight decay: the decay is
// applied directly to the weights each step, outside the adaptive moment
// update.
func AdamW(lr, weightDecay float64) *OptimizerSpec {
	return &OptimizerSpec{Kind: optim.KindAdam, LR: lr, WeightDecay: weightDecay}
}

// StepDecay returns a schedule spec that multiplies the LR by gamma every
// stepSize epochs.
func StepDecay(stepSize int, gamma float64) *LRScheduleSpec {
	return &LRScheduleSpec{Kind: optim.SchedStep, StepSize: stepSize, Gamma: gamma}
}

// CosineDecay returns a schedule spec that anneals the LR from its base
// value to minLR along a half cosine over period epochs, holding minLR
// afterwards.
func CosineDecay(period int, minLR float64) *LRScheduleSpec {
	return &LRScheduleSpec{Kind: optim.SchedCosine, Period: period, MinLR: minLR}
}

// TrainConfig holds a run's training hyper-parameters — the whole recipe:
// there is no other way to choose the optimiser or the schedule. With a
// nil Optimizer the job trains under SGD built from
// LR/Momentum/WeightDecay. A non-nil Optimizer spec takes over (its LR
// defaults to TrainConfig.LR when zero) and Momentum/WeightDecay are
// ignored in its favour. The specs travel with the job — a remote service
// rebuilds the identical optimiser from them — and the optimiser's full
// state (step counter and moment buffers) rides checkpoints, so resumed
// runs stay bit-identical to uninterrupted ones.
type TrainConfig struct {
	Epochs, BatchSize         int
	LR, Momentum, WeightDecay float64
	// Optimizer selects the optimiser; nil means SGD from the fields above.
	Optimizer *OptimizerSpec
	// LRSchedule decays the LR across epochs; nil means constant LR.
	LRSchedule *LRScheduleSpec
}

// EpochStats reports per-epoch original-sub-network loss and accuracy.
// Trainer streams deliver one element per completed epoch; a run that
// fails or is cancelled ends with a terminal element whose Err is non-nil
// (and whose other fields are zero).
type EpochStats struct {
	Epoch    int
	Loss     float64
	Accuracy float64
	// EvalAccuracy is the held-out accuracy when WithEvalSet is
	// configured; HasEval distinguishes "no eval set" from 0%. For LM
	// jobs both accuracies are next-token accuracies.
	EvalAccuracy float64
	HasEval      bool
	// Perplexity is exp(Loss), reported for LM jobs (whose Loss is the
	// mean per-token cross-entropy). Zero for other modalities.
	Perplexity float64
	// LR is the learning rate the epoch trained under. It is reported
	// only for runs with an optimiser or schedule spec configured; runs
	// on the flat SGD fields leave it zero (their LR is constant and
	// already known).
	LR float64
	// Err terminates a stream: context.Canceled / DeadlineExceeded for
	// cancelled runs, or the underlying failure. No further elements
	// follow an element with Err set.
	Err error
}

// EvalDataset is a held-out split accepted by WithEvalSet: an
// *ImageDataset for CV jobs, a *TextDataset for text jobs, or a
// *TokenStream for LM jobs. The job obfuscates it with its own key
// before scoring, so augmented-model accuracy is measured the way §5.4
// validates cloud-side.
type EvalDataset interface{ N() int }

// TrainOption customises a single Trainer.Run call.
type TrainOption func(*runOptions)

type runOptions struct {
	progress        func(EpochStats)
	checkpointPath  string
	checkpointEvery int
	resumePath      string
	evalSet         EvalDataset
	shuffleSeed     uint64
	shuffleSeedSet  bool
	retry           *RetryPolicy
}

// RetryPolicy configures RemoteTrainer's fault tolerance: how many times
// to retry after a transient failure, how long to back off between
// attempts, and how tightly to bound each attempt's network I/O.
type RetryPolicy struct {
	// MaxRetries is the number of retry attempts AFTER the first try.
	// 0 with WithRetry still enables per-epoch resume snapshots but never
	// retries.
	MaxRetries int
	// BaseDelay seeds the capped exponential backoff (default 100ms):
	// attempt k waits about BaseDelay·2^k, jittered, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 5s).
	MaxDelay time.Duration
	// DialTimeout bounds each attempt's TCP dial. 0 leaves it unbounded
	// (the run context still applies).
	DialTimeout time.Duration
	// FrameTimeout bounds each frame-level read/write. It MUST exceed the
	// slowest expected epoch — during training the server is silent
	// between progress frames. 0 disables per-frame deadlines.
	FrameTimeout time.Duration
	// Seed drives the backoff jitter deterministically (reproducible
	// retry schedules in tests). The zero seed is a valid seed.
	Seed uint64
}

// WithRetry makes RemoteTrainer survive transient faults: dial failures,
// dropped connections, I/O deadlines, and graceful server shutdown are
// retried with capped exponential backoff. A dropped connection
// re-attaches to the job, which ran on without it: nothing is uploaded or
// retrained again. A job the server lost (a restart, a shutdown handoff)
// is submitted again from the last epoch-boundary snapshot streamed over
// the wire, retraining only epochs whose snapshot never reached the
// client. Either way the weights are bit-identical to an unbroken run.
// Fatal errors — protocol version skew, corrupted frames, checkpoint kind
// mismatches, server-side job panics, the caller's own cancellation — are
// never retried. LocalTrainer ignores the option.
func WithRetry(p RetryPolicy) TrainOption {
	p = p.withDefaults()
	return func(o *runOptions) { o.retry = &p }
}

// withDefaults fills the delays a zero policy leaves unset, for
// RemoteTrainer and PredictClient alike: BaseDelay 100ms, MaxDelay 5s.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// WithProgress registers a callback invoked synchronously after every
// completed epoch, in addition to the stats delivered on the Run channel.
func WithProgress(fn func(EpochStats)) TrainOption {
	return func(o *runOptions) { o.progress = fn }
}

// WithCheckpoint writes a resumable training checkpoint (completed-epoch
// count, job kind, full augmented-model state dict, and the optimiser's
// momentum buffers) to path every everyN epochs and whenever the run
// ends — including cancellation, so an interrupted job always leaves a
// loadable checkpoint. Because momentum state is checkpointed alongside
// the weights, a resumed run with Momentum > 0 is bit-identical to an
// uninterrupted one. everyN < 1 means every epoch. For remote training
// the service streams the snapshots back over the wire.
func WithCheckpoint(path string, everyN int) TrainOption {
	if everyN < 1 {
		everyN = 1
	}
	return func(o *runOptions) {
		o.checkpointPath = path
		o.checkpointEvery = everyN
	}
}

// WithResume continues a run from a checkpoint written by WithCheckpoint:
// the state dict is loaded into the job's augmented model and training
// restarts at the recorded epoch. Checkpoints are always epoch-aligned
// (cancellation stops at an epoch boundary), so no batch is ever trained
// twice. A missing file is not an error — the run simply starts fresh —
// so the same option list works for the first run and every retry.
func WithResume(path string) TrainOption {
	return func(o *runOptions) { o.resumePath = path }
}

// WithEvalSet scores a held-out split after every epoch. The split is
// obfuscated with the job's key (ObfuscateTestSet) before scoring and, for
// remote runs, shipped alongside the training data so the service reports
// EvalAccuracy per epoch. A split with no samples fails the run up front
// with ErrEmptyEvalSet.
func WithEvalSet(ds EvalDataset) TrainOption {
	return func(o *runOptions) { o.evalSet = ds }
}

// WithShuffleSeed overrides the batch-shuffle seed (default: the job's
// Options.Seed). The same seed yields the same batch order locally and
// remotely — the property behind the bit-identical round-trip tests.
func WithShuffleSeed(seed uint64) TrainOption {
	return func(o *runOptions) {
		o.shuffleSeed = seed
		o.shuffleSeedSet = true
	}
}

// resolveRunOptions validates cfg and folds the options, defaulting the
// shuffle seed from the job.
func resolveRunOptions(cfg TrainConfig, defaultSeed uint64, opts []TrainOption) (*runOptions, error) {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("amalgam: epochs and batch size must be positive")
	}
	o := &runOptions{}
	for _, fn := range opts {
		fn(o)
	}
	if !o.shuffleSeedSet {
		o.shuffleSeed = defaultSeed
	}
	if o.evalSet != nil && o.evalSet.N() == 0 {
		return nil, fmt.Errorf("amalgam: WithEvalSet split has no samples: %w", ErrEmptyEvalSet)
	}
	return o, nil
}
