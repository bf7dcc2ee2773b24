package amalgam

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"amalgam/internal/cloudsim"
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
// cloudsim.TrainLoop over the same per-modality step closures, so they
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
	ro, start, err := prepareRun(cfg, o, opts)
	if err != nil {
		return nil, err
	}
	eng := o.engine
	eng.InitOptState = ro.resumeOptState
	eng.InitRNG = ro.resumeRNG
	if ro.evalSet != nil {
		acc, _, err := o.makeEval(ro.evalSet)
		if err != nil {
			return nil, err
		}
		eng.EvalAcc = func(batch int) (float64, bool) { return acc(batch), true }
	}
	hyper := hyperFor(cfg, ro, start)

	ch := make(chan EpochStats, cfg.Epochs-start+1)
	go func() {
		defer close(ch)
		var checkpoint func(*cloudsim.Snapshot) error
		if ro.checkpointPath != "" {
			checkpoint = func(snap *cloudsim.Snapshot) error {
				return serialize.SaveTrainCheckpoint(ro.checkpointPath, &serialize.TrainCheckpoint{
					Epoch: snap.Epoch, Kind: o.kind,
					State: snap.State, OptState: snap.OptState, RNG: snap.RNG,
				})
			}
		}
		resp, err := cloudsim.TrainLoop(ctx, eng, hyper, ro.emitProgress(ch), checkpoint)
		if err != nil {
			ch <- EpochStats{Err: err}
			return
		}
		finishRun(ctx, ch, ro, o.kind, resp)
	}()
	return ch, nil
}

// RemoteTrainer ships the augmented artifacts to a cloudsim training
// service (see cmd/amalgam-train -serve) and streams per-epoch progress
// back — the full Fig. 1 loop. The service only ever receives augmented
// data and the augmented graph spec; the key stays local. Cancelling the
// ctx sends a cancel frame; the service stops at the next epoch boundary
// and returns the weights so far, which land in the checkpoint path (when
// configured) before the stream terminates with ctx.Err().
//
// With WithRetry, transient transport faults (dropped connections, dial
// failures, I/O deadlines, graceful server shutdown) are retried with
// capped exponential backoff, resuming from the last epoch-boundary
// snapshot — see RetryPolicy.
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
	o := job.ops()
	// Resume before request(): the shipped InitState must reflect the
	// checkpointed weights.
	ro, start, err := prepareRun(cfg, o, opts)
	if err != nil {
		return nil, err
	}
	req, err := o.request()
	if err != nil {
		return nil, err
	}
	req.InitOptState = ro.resumeOptState
	req.InitRNG = ro.resumeRNG
	if ro.evalSet != nil {
		_, attach, err := o.makeEval(ro.evalSet)
		if err != nil {
			return nil, err
		}
		attach(req)
	}
	req.Hyper = hyperFor(cfg, ro, start)
	req.Hyper.Stream = true
	req.Spec.Tenant = t.Tenant

	ch := make(chan EpochStats, cfg.Epochs-start+1)
	go func() {
		defer close(ch)
		resp, err := t.runRemote(ctx, req, ro, cfg, start, ch)
		if err != nil {
			ch <- EpochStats{Err: err}
			return
		}
		if err := o.loadState(resp.State); err != nil {
			ch <- EpochStats{Err: err}
			return
		}
		finishRun(ctx, ch, ro, o.kind, resp)
	}()
	return ch, nil
}

// runRemote drives one job over the wire, retrying transient faults under
// the run's RetryPolicy. Each attempt resumes from the latest
// epoch-boundary snapshot the client has seen (streamed msgCheckpoint
// frames held in memory, seeded from the WithResume file on the first
// attempt), so no batch is ever trained twice and the final weights are
// bit-identical to an unbroken run.
func (t RemoteTrainer) runRemote(ctx context.Context, req *cloudsim.TrainRequest, ro *runOptions,
	cfg TrainConfig, start int, ch chan<- EpochStats) (*cloudsim.TrainResponse, error) {

	progress := ro.emitProgress(ch)
	if ro.retry == nil {
		h := cloudsim.StreamHandlers{
			Progress: func(m cloudsim.EpochMetric) { _ = progress(m) },
		}
		if ro.checkpointPath != "" {
			h.Checkpoint = func(ck *serialize.TrainCheckpoint) {
				// Mid-job snapshots are best-effort; the final state is
				// written with error checking by finishRun.
				_ = serialize.SaveTrainCheckpoint(ro.checkpointPath, ck)
			}
		}
		return cloudsim.TrainContext(ctx, t.Addr, req, h)
	}

	pol := *ro.retry
	// Per-epoch wire snapshots feed the in-memory resume point; disk
	// writes keep the user's WithCheckpoint cadence.
	req.Hyper.CheckpointEvery = 1
	var snap *serialize.TrainCheckpoint
	// A retried attempt replays epochs the server already reported;
	// emit each epoch's stats exactly once.
	lastEmitted := start
	h := cloudsim.StreamHandlers{
		Progress: func(m cloudsim.EpochMetric) {
			if m.Epoch > lastEmitted {
				lastEmitted = m.Epoch
				_ = progress(m)
			}
		},
		Checkpoint: func(ck *serialize.TrainCheckpoint) {
			snap = ck
			if ro.checkpointPath != "" && ro.checkpointEvery > 0 && ck.Epoch%ro.checkpointEvery == 0 {
				_ = serialize.SaveTrainCheckpoint(ro.checkpointPath, ck)
			}
		},
	}
	netCfg := cloudsim.NetConfig{DialTimeout: pol.DialTimeout, FrameTimeout: pol.FrameTimeout}
	jitter := tensor.NewRNG(pol.Seed)
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := cloudsim.TrainContextNet(ctx, t.Addr, req, h, netCfg)
		if err == nil {
			return resp, nil
		}
		if !cloudsim.IsTransient(err) {
			return nil, err
		}
		lastErr = err
		if attempt >= pol.MaxRetries {
			return nil, fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempt+1, lastErr)
		}
		if err := sleepBackoff(ctx, &pol, attempt, jitter); err != nil {
			return nil, err
		}
		if snap != nil {
			if snap.Epoch >= cfg.Epochs {
				// The server finished every epoch but the connection died
				// before the final state frame arrived: the snapshot IS the
				// final state — complete locally instead of resuming with an
				// out-of-range start epoch.
				return &cloudsim.TrainResponse{
					State: snap.State, OptState: snap.OptState, RNG: snap.RNG,
					CompletedEpochs: snap.Epoch,
				}, nil
			}
			req.Hyper.StartEpoch = snap.Epoch
			req.InitState = snap.State
			req.InitOptState = snap.OptState
			req.InitRNG = snap.RNG
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

// prepareRun folds the options, validates the config, and applies
// WithResume, returning the epoch to restart from.
func prepareRun(cfg TrainConfig, o *jobOps, opts []TrainOption) (*runOptions, int, error) {
	ro, err := resolveRunOptions(cfg, o.defaultSeed, opts)
	if err != nil {
		return nil, 0, err
	}
	start, err := loadResume(ro, o)
	if err != nil {
		return nil, 0, err
	}
	if start >= cfg.Epochs {
		return nil, 0, fmt.Errorf("amalgam: checkpoint already covers %d of %d epochs", start, cfg.Epochs)
	}
	return ro, start, nil
}

// hyperFor maps the public config onto the wire/loop hyper-parameters.
// Shuffling is always on, seeded per epoch (data.ShuffleRNG) so local,
// remote, and resumed runs visit batches in the same order.
func hyperFor(cfg TrainConfig, ro *runOptions, start int) cloudsim.Hyper {
	h := cloudsim.Hyper{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize,
		LR: cfg.LR, Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay,
		Shuffle: true, ShuffleSeed: ro.shuffleSeed,
		StartEpoch: start, CheckpointEvery: ro.checkpointEvery,
	}
	h.Optimizer = cfg.Optimizer
	if ro.optimizer != nil {
		h.Optimizer = ro.optimizer
	}
	h.Schedule = cfg.LRSchedule
	if ro.schedule != nil {
		h.Schedule = ro.schedule
	}
	return h
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

// emitProgress is emitTo over a stats channel.
func (ro *runOptions) emitProgress(ch chan<- EpochStats) func(cloudsim.EpochMetric) error {
	return ro.emitTo(func(st EpochStats) { ch <- st })
}

// finishRun writes the final checkpoint and terminates a cancelled stream
// with the context's error.
func finishRun(ctx context.Context, ch chan<- EpochStats, ro *runOptions, kind string, resp *cloudsim.TrainResponse) {
	finishRunEmit(ctx, func(st EpochStats) { ch <- st }, ro, kind, resp)
}

func finishRunEmit(ctx context.Context, emit func(EpochStats), ro *runOptions, kind string, resp *cloudsim.TrainResponse) {
	if ro.checkpointPath != "" {
		err := serialize.SaveTrainCheckpoint(ro.checkpointPath, &serialize.TrainCheckpoint{
			Epoch: resp.CompletedEpochs, Kind: kind,
			State: resp.State, OptState: resp.OptState, RNG: resp.RNG,
		})
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
// the job model, stages the optimiser state for the run, and returns the
// epoch to restart from. A checkpoint recording a different job kind is
// rejected with ErrCheckpointKind before any state is touched.
func loadResume(ro *runOptions, o *jobOps) (int, error) {
	if ro.resumePath == "" {
		return 0, nil
	}
	ck, err := serialize.LoadTrainCheckpoint(ro.resumePath)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil // first run: nothing to resume
		}
		return 0, fmt.Errorf("amalgam: resume from %s: %w", ro.resumePath, err)
	}
	if err := checkpointMatchesJob(ck, o); err != nil {
		return 0, fmt.Errorf("amalgam: resume from %s: %w", ro.resumePath, err)
	}
	if err := o.loadState(ck.State); err != nil {
		return 0, fmt.Errorf("amalgam: resume from %s: %w", ro.resumePath, err)
	}
	ro.resumeOptState = ck.OptState
	ro.resumeRNG = ck.RNG
	return ck.Epoch, nil
}

// checkpointMatchesJob verifies a checkpoint's recorded kind against the
// job it is being loaded into.
func checkpointMatchesJob(ck *serialize.TrainCheckpoint, o *jobOps) error {
	if ck.Kind != o.kind {
		return fmt.Errorf("checkpoint holds a %q job, this job is %q: %w", ck.Kind, o.kind, ErrCheckpointKind)
	}
	return nil
}

// LoadCheckpoint loads a WithCheckpoint file back into a job's augmented
// model outside a training run — e.g. to Extract/ExtractText/ExtractLM
// from an interrupted job without training further. It returns the
// number of completed epochs the checkpoint records. Loading a
// checkpoint written by a job of another modality fails with
// ErrCheckpointKind.
func LoadCheckpoint(job TrainableJob, path string) (epoch int, err error) {
	o := job.ops()
	ck, err := serialize.LoadTrainCheckpoint(path)
	if err != nil {
		return 0, fmt.Errorf("amalgam: load checkpoint %s: %w", path, err)
	}
	if err := checkpointMatchesJob(ck, o); err != nil {
		return 0, fmt.Errorf("amalgam: load checkpoint %s: %w", path, err)
	}
	if err := o.loadState(ck.State); err != nil {
		return 0, fmt.Errorf("amalgam: load checkpoint %s: %w", path, err)
	}
	return ck.Epoch, nil
}
