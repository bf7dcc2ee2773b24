package amalgam

import (
	"context"
	"sync"

	"amalgam/internal/cloudsim"
)

// JobID durably identifies a job scheduled on a remote service. IDs stay
// valid for the server's lifetime — across client disconnects, reconnects,
// and process restarts on the client side — so a submitter can exit and a
// different process can Poll or Attach later.
type JobID string

// JobInfo is a point-in-time observation of one scheduled job, as
// returned by Poll and Cancel.
type JobInfo struct {
	ID     JobID
	Tenant string
	// State is "queued", "running", "done", "cancelled", or "failed".
	State string
	// CompletedEpochs counts fully finished epochs so far — live while
	// the job runs, final afterwards.
	CompletedEpochs int
	// QueuePos is the job's 1-based position within its tenant's queue
	// while queued; 0 once dispatched.
	QueuePos int
	// Err holds the failure message of a failed job.
	Err string
}

// Done reports whether the job has reached a terminal state.
func (i JobInfo) Done() bool {
	return i.State == "done" || i.State == "cancelled" || i.State == "failed"
}

// Submit ships a job to the service's scheduler and returns its durable
// JobID without waiting for training: the connection ends at the ack, the
// job queues under the trainer's Tenant, and a bounded executor pool runs
// it to completion whether or not any client is watching. Retrieve output
// with Poll (status) and Attach (stats stream + final weights).
//
// Admission control can reject a Submit with cloudsim.ErrQueueFull (the
// service's global queue is at capacity) or cloudsim.ErrTenantQuota (this
// tenant already holds its share of slots); both are transient, so
// WithRetry re-submits them with backoff. WithCheckpoint and WithEvalSet
// configure the job server-side (checkpoint cadence, per-epoch eval);
// WithResume seeds the shipped initial state from a local checkpoint.
// WithProgress is an Attach-time concern and is ignored here.
func (t RemoteTrainer) Submit(ctx context.Context, job TrainableJob, cfg TrainConfig, opts ...TrainOption) (JobID, error) {
	o, ro, err := t.prepare(job, cfg, opts)
	if err != nil {
		return "", err
	}
	var id string
	err = ro.retrying(ctx, func(net cloudsim.NetConfig) (err error) {
		id, err = cloudsim.SubmitContext(ctx, t.Addr, o.req, net)
		return err
	})
	return JobID(id), err
}

// Poll fetches a scheduled job's status over a short-lived connection. An
// ID the service never issued fails with cloudsim.ErrUnknownJob.
func (t RemoteTrainer) Poll(ctx context.Context, id JobID) (JobInfo, error) {
	st, err := cloudsim.PollContext(ctx, t.Addr, string(id), cloudsim.NetConfig{})
	if err != nil {
		return JobInfo{}, err
	}
	return jobInfoOf(st), nil
}

// Cancel asks the scheduler to stop a job: a running job halts at its
// next epoch boundary (its epoch-aligned partial result stays
// attachable), a queued job terminates cancelled without training.
// Cancelling a finished job is a no-op. The returned JobInfo is the
// post-cancel observation — the job may still read "running" while it
// drains to the boundary.
func (t RemoteTrainer) Cancel(ctx context.Context, id JobID) (JobInfo, error) {
	st, err := cloudsim.CancelJobContext(ctx, t.Addr, string(id), cloudsim.NetConfig{})
	if err != nil {
		return JobInfo{}, err
	}
	return jobInfoOf(st), nil
}

func jobInfoOf(st cloudsim.JobStatus) JobInfo {
	return JobInfo{
		ID: JobID(st.JobID), Tenant: st.Tenant, State: st.State,
		CompletedEpochs: st.CompletedEpochs, QueuePos: st.QueuePos, Err: st.Err,
	}
}

// Attach subscribes to a job previously scheduled with Submit and streams
// its stats exactly like Run: buffered epochs replay first (each epoch's
// stats are delivered exactly once, even across retried attaches), live
// epochs follow, and each epoch boundary the stream carries — the
// checkpoints and the final state — lands in job's model, so Extract
// works afterwards just as it does after Run. job must be the same job (or
// an identical rebuild) that was submitted; the service streams only what
// that job's spec produced, and a boundary that does not fit the model
// fails the stream without touching it.
//
// Cancelling ctx cancels the JOB, mirroring Run. Dropping the connection
// without cancelling (e.g. the process dies) merely detaches: the job
// keeps training server-side and a later Attach picks up where this one
// left off. With WithRetry, a connection fault mid-stream re-attaches
// with backoff, resuming from the last epoch already delivered.
// WithCheckpoint saves streamed snapshots locally at its cadence, bounded
// below by the cadence the job was submitted with.
func (t RemoteTrainer) Attach(ctx context.Context, job TrainableJob, id JobID, opts ...TrainOption) (<-chan EpochStats, error) {
	o := job.ops()
	ro := &runOptions{}
	for _, fn := range opts {
		fn(ro)
	}
	push, closePump, out := statsPump()
	go func() {
		defer closePump()
		// FromEpoch carries the last epoch already delivered, so a
		// re-attach's replay starts exactly after it.
		stream, h := ro.follow(push, o.req)
		var resp *cloudsim.TrainResponse
		err := ro.retrying(ctx, func(net cloudsim.NetConfig) (err error) {
			resp, err = cloudsim.AttachContext(ctx, t.Addr,
				cloudsim.AttachRequest{JobID: string(id), FromEpoch: stream.lastEpoch}, h, net)
			return err
		})
		finishRun(ctx, push, ro, o.req.Spec.Kind, resp, err)
	}()
	return out, nil
}

// statsPump bridges a producer that must never block (the wire read loop)
// to a consumer channel of unknown demand: pushes land in an unbounded
// buffer drained by a forwarding goroutine. Run sizes its channel from
// cfg.Epochs; Attach doesn't know the job's epoch count, hence the pump.
func statsPump() (push func(EpochStats), closePump func(), out <-chan EpochStats) {
	ch := make(chan EpochStats)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var buf []EpochStats
	closed := false
	go func() {
		for {
			mu.Lock()
			for len(buf) == 0 && !closed {
				cond.Wait()
			}
			if len(buf) == 0 {
				mu.Unlock()
				close(ch)
				return
			}
			st := buf[0]
			buf = buf[1:]
			mu.Unlock()
			ch <- st
		}
	}()
	push = func(st EpochStats) {
		mu.Lock()
		buf = append(buf, st)
		mu.Unlock()
		cond.Signal()
	}
	closePump = func() {
		mu.Lock()
		closed = true
		mu.Unlock()
		cond.Signal()
	}
	return push, closePump, ch
}
