package amalgam

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"amalgam/internal/cloudsim"
	"amalgam/internal/nn"
	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// ErrCheckpointKind marks a checkpoint written by a job of a different
// modality than the one it is being loaded into (e.g. a CV checkpoint
// resumed into a text job). Checkpoints record their job's spec kind, so
// the mismatch is detected up front with errors.Is instead of surfacing
// as a confusing state-dict shape failure deep in the load.
var ErrCheckpointKind = errors.New("amalgam: checkpoint job kind mismatch")

// ErrRetriesExhausted terminates a WithRetry run whose every attempt hit
// a transient fault: the policy's budget ran out before a connection
// survived to completion. The last transport error is wrapped alongside,
// so errors.Is works against both.
var ErrRetriesExhausted = errors.New("amalgam: retries exhausted")

// Trainer runs an obfuscated job to completion. Run returns immediately
// with a stream of per-epoch statistics; the channel is buffered for the
// whole run (trainers never block on a slow consumer) and is closed when
// training ends. A failed or cancelled run ends the stream with a terminal
// element whose Err field is set. Implementations honour ctx cancellation
// by stopping at the next epoch boundary — the in-flight epoch completes,
// so the state (and any WithCheckpoint file) never contains a partially
// applied epoch and resuming re-trains no batch twice.
//
// LocalTrainer trains in-process; RemoteTrainer ships the job to a
// cloudsim service and streams progress back over the wire. Both drive
// cloudsim.TrainLoop over the same request, so they
// produce bit-identical weights for the same configuration.
type Trainer interface {
	Run(ctx context.Context, job TrainableJob, cfg TrainConfig, opts ...TrainOption) (<-chan EpochStats, error)
}

// Train drives a Trainer to completion and collects the streamed stats —
// the blocking convenience over Trainer.Run. On failure or cancellation it
// returns the epochs that did complete alongside the terminal error.
func Train(ctx context.Context, t Trainer, job TrainableJob, cfg TrainConfig, opts ...TrainOption) ([]EpochStats, error) {
	ch, err := t.Run(ctx, job, cfg, opts...)
	if err != nil {
		return nil, err
	}
	var stats []EpochStats
	for st := range ch {
		if st.Err != nil {
			return stats, st.Err
		}
		stats = append(stats, st)
	}
	return stats, nil
}

// LocalTrainer runs obfuscated training in-process (Algorithm 1): the
// joint loss over all sub-networks, gradients detached at the
// original→decoy taps.
type LocalTrainer struct{}

// Run implements Trainer.
func (LocalTrainer) Run(ctx context.Context, job TrainableJob, cfg TrainConfig, opts ...TrainOption) (<-chan EpochStats, error) {
	o := job.ops()
	ro, err := prepareRun(cfg, o, opts)
	if err != nil {
		return nil, err
	}
	kind := o.req.Spec.Kind

	ch := make(chan EpochStats, cfg.Epochs-o.req.Hyper.StartEpoch+1)
	emit := func(st EpochStats) { ch <- st }
	go func() {
		defer close(ch)
		var checkpoint func(*serialize.TrainCheckpoint) error
		if ro.checkpointPath != "" {
			checkpoint = func(ck *serialize.TrainCheckpoint) error {
				return serialize.SaveTrainCheckpoint(ro.checkpointPath, ck)
			}
		}
		// The live model over the very request RemoteTrainer would ship.
		resp, err := cloudsim.TrainLoop(ctx, o.model, o.req, ro.emitTo(emit), checkpoint)
		finishRun(ctx, emit, ro, kind, resp, err)
	}()
	return ch, nil
}

// RemoteTrainer ships the augmented artifacts to a cloudsim training
// service (see cmd/amalgam-train -serve) and streams per-epoch progress
// back — the full Fig. 1 loop. The service only ever receives augmented
// data and the augmented graph spec; the key stays local. Each epoch
// boundary the service streams back lands in the job's model — every
// checkpoint frame (WithRetry, WithCheckpoint) and the final state —
// decoded straight into its tensors, so the client holds one copy of the
// model. A frame that does not fit the model fails the run and changes
// nothing. So a run that fails after epoch k leaves the model at boundary
// k, as a failed LocalTrainer run does. Cancelling the ctx sends a cancel
// frame; the service stops at the next epoch boundary and returns the
// weights so far, which land in the model and in the checkpoint path
// (when configured) before the stream terminates with ctx.Err().
//
// A run submits its job and follows it over the same connection. With
// WithRetry, transient transport faults (dropped connections, dial
// failures, I/O deadlines) are retried with capped exponential backoff by
// re-attaching to that job from the last epoch seen: a blip uploads
// nothing again and retrains nothing. Only a job the service has lost (a
// restart, an eviction, a shutdown handoff) is submitted again, from the
// last epoch-boundary snapshot — the model itself; see RetryPolicy. A run
// that gives up without the result cancels its job, best effort.
type RemoteTrainer struct {
	// Addr is the service's TCP address, e.g. "127.0.0.1:7009".
	Addr string
	// Tenant names the fair-share scheduling bucket this trainer's jobs
	// are billed to on a multi-tenant service (see Submit). Empty uses
	// the service's default bucket.
	Tenant string
}

// Run implements Trainer.
func (t RemoteTrainer) Run(ctx context.Context, job TrainableJob, cfg TrainConfig, opts ...TrainOption) (<-chan EpochStats, error) {
	o, ro, err := t.prepare(job, cfg, opts)
	if err != nil {
		return nil, err
	}
	if ro.retry != nil {
		// Per-epoch wire snapshots are the point a lost job is submitted
		// again from; disk writes keep the user's WithCheckpoint cadence.
		o.req.Hyper.CheckpointEvery = 1
	}
	ch := make(chan EpochStats, cfg.Epochs-o.req.Hyper.StartEpoch+1)
	go func() {
		defer close(ch)
		t.drive(ctx, o.req, "", ro, func(st EpochStats) { ch <- st })
	}()
	return ch, nil
}

// prepare readies job's request for this service — what Run and Submit
// ship: prepareRun's request, streamed, billed to the trainer's tenant.
func (t RemoteTrainer) prepare(job TrainableJob, cfg TrainConfig, opts []TrainOption) (*jobOps, *runOptions, error) {
	o := job.ops()
	ro, err := prepareRun(cfg, o, opts)
	if err != nil {
		return nil, nil, err
	}
	if o.req.Images != nil && o.req.Spec.Model == "" {
		// Token kinds carry their whole architecture in the spec; an image
		// model is rebuilt from its zoo name.
		return nil, nil, fmt.Errorf("amalgam: remote CV training requires Options.ModelName")
	}
	o.req.Hyper.Stream = true
	o.req.Spec.Tenant = t.Tenant
	return o, ro, nil
}

// giveUpCancelTimeout bounds the best-effort cancel of a job a run gave up on.
const giveUpCancelTimeout = 5 * time.Second

// drive follows one job to its result under the run's RetryPolicy, then
// ends the run's stream (finishRun). Without an id (Run), an attempt
// submits req and follows the admitted job on the same connection; once
// the ack has named the job, an attempt re-attaches by that ID. A job the
// server no longer knows (ErrUnknownJob) or handed back while shutting
// down (ErrServerShutdown) is submitted again from the latest snapshot
// streamed; a run that gives up without the job's result cancels it, best
// effort. With an id (Attach), every attempt attaches. Every epoch
// boundary lands in the tensors of req.InitState — the job's model — and
// req.InitOptState (see StreamHandlers.Into). A resubmission replays
// epochs already reported; each epoch's stats are emitted exactly once.
// Snapshots are held as the resubmission point and saved at the
// WithCheckpoint cadence — best effort; finishRun writes the final state
// with error checking.
func (t RemoteTrainer) drive(ctx context.Context, req *cloudsim.TrainRequest, id JobID, ro *runOptions, emit func(EpochStats)) {
	owned := id == "" // this run submits the job, and resubmits a lost one
	lastEpoch, progress := req.Hyper.StartEpoch, ro.emitTo(emit)
	var snap *serialize.TrainCheckpoint // views of the job's model
	h := cloudsim.StreamHandlers{
		Into:     &serialize.TrainCheckpoint{State: req.InitState, OptState: req.InitOptState},
		Admitted: func(got string) { id = JobID(got) },
		Progress: func(m cloudsim.EpochMetric) {
			if m.Epoch > lastEpoch {
				lastEpoch = m.Epoch
				_ = progress(m)
			}
		},
	}
	if ro.retry != nil || ro.checkpointPath != "" {
		h.Checkpoint = func(ck *serialize.TrainCheckpoint) {
			snap = ck
			if ro.checkpointPath != "" && ro.checkpointEvery > 0 && ck.Epoch%ro.checkpointEvery == 0 {
				_ = serialize.SaveTrainCheckpoint(ro.checkpointPath, ck)
			}
		}
	}
	var resp *cloudsim.TrainResponse
	err := ro.retrying(ctx, func(net cloudsim.NetConfig) (err error) {
		if id != "" {
			resp, err = cloudsim.AttachContext(ctx, t.Addr, cloudsim.AttachRequest{JobID: string(id), FromEpoch: lastEpoch}, h, net)
		}
		if id == "" || owned && errors.Is(err, cloudsim.ErrUnknownJob) {
			if snap != nil {
				req.ResumeFrom(snap)
			}
			id = ""
			resp, err = cloudsim.TrainContextNet(ctx, t.Addr, req, h, net)
		}
		if owned && errors.Is(err, cloudsim.ErrServerShutdown) {
			id = "" // the job ended on the draining server
		}
		return err
	})
	if err != nil && owned && id != "" {
		net := cloudsim.NetConfig{DialTimeout: giveUpCancelTimeout, FrameTimeout: giveUpCancelTimeout}
		_, _ = cloudsim.CancelJobContext(context.WithoutCancel(ctx), t.Addr, string(id), net)
	}
	finishRun(ctx, emit, ro, req.Spec.Kind, resp, err)
}

// retrying runs one wire exchange under the run's RetryPolicy: once, over
// an unbounded connection, without WithRetry.
func (ro *runOptions) retrying(ctx context.Context, attempt func(net cloudsim.NetConfig) error) error {
	if ro.retry == nil {
		return attempt(cloudsim.NetConfig{})
	}
	pol := *ro.retry
	net := cloudsim.NetConfig{DialTimeout: pol.DialTimeout, FrameTimeout: pol.FrameTimeout}
	return retryTransient(ctx, &pol, tensor.NewRNG(pol.Seed), func() error { return attempt(net) })
}

// retryTransient is THE retry loop: it re-runs attempt while it fails
// with a transient fault, sleeping pol's jittered backoff in between,
// until it succeeds, fails fatally (returned as is — the caller's own
// cancellation included), or has failed MaxRetries+1 times, which is
// ErrRetriesExhausted wrapping the last transport error.
func retryTransient(ctx context.Context, pol *RetryPolicy, jitter *tensor.RNG, attempt func() error) error {
	for n := 0; ; n++ {
		err := attempt()
		if err == nil || !cloudsim.IsTransient(err) {
			return err
		}
		if n >= pol.MaxRetries {
			return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, n+1, err)
		}
		if err := sleepBackoff(ctx, pol, n, jitter); err != nil {
			return err
		}
	}
}

// sleepBackoff waits out attempt's capped exponential backoff with
// deterministic seeded jitter (half to full delay), honouring ctx.
func sleepBackoff(ctx context.Context, pol *RetryPolicy, attempt int, jitter *tensor.RNG) error {
	delay := pol.BaseDelay << uint(attempt)
	if delay > pol.MaxDelay || delay <= 0 {
		delay = pol.MaxDelay
	}
	delay = delay/2 + time.Duration(jitter.Float64()*float64(delay/2))
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// prepareRun folds the options, validates the config and completes the
// job's request with everything a run adds to it: the hyper-parameters,
// the WithResume point, the obfuscated eval split.
func prepareRun(cfg TrainConfig, o *jobOps, opts []TrainOption) (*runOptions, error) {
	// The shuffle seed defaults to Options.Seed, which the spec records.
	ro, err := resolveRunOptions(cfg, o.req.Spec.AugSeed, opts)
	if err != nil {
		return nil, err
	}
	// Shuffling is always on, seeded per epoch (data.ShuffleRNG) so local,
	// remote, and resumed runs visit batches in the same order.
	o.req.Hyper = cloudsim.Hyper{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize,
		LR: cfg.LR, Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay,
		Optimizer: cfg.Optimizer, Schedule: cfg.LRSchedule,
		Shuffle: true, ShuffleSeed: ro.shuffleSeed,
		CheckpointEvery: ro.checkpointEvery,
	}
	if err := loadResume(ro, o); err != nil {
		return nil, err
	}
	if start := o.req.Hyper.StartEpoch; start >= cfg.Epochs {
		return nil, fmt.Errorf("amalgam: checkpoint already covers %d of %d epochs", start, cfg.Epochs)
	}
	if ro.evalSet != nil {
		if err := o.attachEval(ro.evalSet); err != nil {
			return nil, err
		}
	}
	return ro, nil
}

// emitTo adapts a wire/loop metric into an EpochStats emitter and the
// WithProgress callback.
func (ro *runOptions) emitTo(emit func(EpochStats)) func(cloudsim.EpochMetric) error {
	return func(m cloudsim.EpochMetric) error {
		st := EpochStats{
			Epoch: m.Epoch, Loss: m.Loss, Accuracy: m.Accuracy,
			EvalAccuracy: m.EvalAccuracy, HasEval: m.HasEval,
			Perplexity: m.Perplexity, LR: m.LR,
		}
		emit(st)
		if ro.progress != nil {
			ro.progress(st)
		}
		return nil
	}
}

// finishRun ends a run's stream: with its failure as the last element,
// or after writing the final checkpoint, with the context's error when
// the run was cancelled.
func finishRun(ctx context.Context, emit func(EpochStats), ro *runOptions, kind string, resp *cloudsim.TrainResponse, err error) {
	if err != nil {
		emit(EpochStats{Err: err})
		return
	}
	if ro.checkpointPath != "" {
		err := serialize.SaveTrainCheckpoint(ro.checkpointPath, resp.Checkpoint(kind))
		if err != nil {
			emit(EpochStats{Err: err})
			return
		}
	}
	if resp.Cancelled {
		err := ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		emit(EpochStats{Err: err})
	}
}

// loadResume applies WithResume: loads the checkpoint (if present) into
// the job model and points the job's request at it — epoch, optimiser
// state (kind, step counter, moment buffers) and dropout-stream cursors;
// trainers seed the run with them, so a resumed run is bit-identical to an
// uninterrupted one, not merely convergent. A checkpoint recording a
// different job kind is rejected with ErrCheckpointKind before any state
// is touched.
func loadResume(ro *runOptions, o *jobOps) error {
	if ro.resumePath == "" {
		return nil
	}
	ck, err := o.loadCheckpoint(ro.resumePath)
	if os.IsNotExist(err) {
		return nil // first run: nothing to resume
	}
	if err != nil {
		return fmt.Errorf("amalgam: resume from %s: %w", ro.resumePath, err)
	}
	// The weights are in the model now, which the request's initial state
	// views: the file's copy of them need not outlive this call.
	ck.State = o.req.InitState
	o.req.ResumeFrom(ck)
	return nil
}

// loadCheckpoint reads a checkpoint file, verifies its recorded kind
// against the job's, and loads its state dict into the job's model.
func (o *jobOps) loadCheckpoint(path string) (*serialize.TrainCheckpoint, error) {
	ck, err := serialize.LoadTrainCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if kind := o.req.Spec.Kind; ck.Kind != kind {
		return nil, fmt.Errorf("checkpoint holds a %q job, this job is %q: %w", ck.Kind, kind, ErrCheckpointKind)
	}
	return ck, nn.LoadStateDict(o.model, ck.State)
}

// LoadCheckpoint loads a WithCheckpoint file back into a job's augmented
// model outside a training run — e.g. to Extract/ExtractText/ExtractLM
// from an interrupted job without training further. It returns the
// number of completed epochs the checkpoint records. Loading a
// checkpoint written by a job of another modality fails with
// ErrCheckpointKind.
func LoadCheckpoint(job TrainableJob, path string) (epoch int, err error) {
	ck, err := job.ops().loadCheckpoint(path)
	if err != nil {
		return 0, fmt.Errorf("amalgam: load checkpoint %s: %w", path, err)
	}
	return ck.Epoch, nil
}
