package cloudsim

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"amalgam/internal/serialize"
)

// JobState is a node of the job state machine:
//
//	queued → running → {done, cancelled, failed}
//
// A job enters "queued" at admission, "running" when an executor picks it
// up, and exactly one terminal state afterwards. Cancelling a queued job
// still routes it through an executor with a pre-cancelled context, so
// every job — cancelled or not — terminates with an epoch-aligned result
// the owner can attach to.
type JobState int

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobCancelled
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobCancelled:
		return "cancelled"
	case JobFailed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// attachSink receives a job's live output. At most one sink is registered
// per job (latest attach wins); both hooks are called with the job lock
// held, in epoch order. A hook returning an error detaches the sink — the
// job keeps running, its output still buffers for the next attach. Either
// hook may be nil. checkpoint receives bytes every sink and the job's parked
// slot share; a sink that keeps them past the call takes its own hold.
type attachSink struct {
	progress   func(EpochMetric) error
	checkpoint func(c *ckptBuf) error
}

// schedJob is one registry entry. The scheduler's mutex guards queue
// membership; the job's own mutex guards its mutable record (state,
// buffered output, sink, result) so a slow attached client blocks only
// its own job's delivery, never the whole scheduler.
// A job holds its state once: admission builds the model the executor
// trains, with the client's initial state loaded into it and dropped from
// req; the terminal transition keeps the response and lets go of the rest.
type schedJob struct {
	id     string
	tenant string
	req    *TrainRequest // the job's own copy; payload and init state dropped when terminal
	view   ProviderView
	model  Trainable     // built at admission, trained by the executor, nil once terminal
	spare  chan *ckptBuf // checkpoint buffers handed back for the next cut; the executor's

	mu        sync.Mutex
	state     JobState
	cancelFn  context.CancelFunc // set while running
	preCancel bool               // cancel arrived before dispatch
	lastEpoch int                // latest completed epoch seen in progress
	stats     []EpochMetric      // buffered per-epoch output for attach
	ckpt      *ckptBuf           // latest parked epoch-boundary checkpoint; nil once terminal (resp is newer)
	resp      *TrainResponse
	err       error
	sink      *attachSink
	done      chan struct{} // closed on terminal transition
}

// ckptBuf is one cut checkpoint: an encoded msgCheckpoint payload — the
// bytes WithCheckpoint writes to disk — and the count of who may still
// read it: the job's parked slot, every connWriter it is queued on. The
// bytes are immutable until the last holder lets go, which hands the
// buffer back to the job for its next cut (two alternate for a client that
// keeps up; a stalled or superseded writer pins a third). Buffers die with
// their job: it forgets its spares, a later release lands where nobody reads.
type ckptBuf struct {
	payload []byte
	epoch   int
	holders atomic.Int32
	spare   chan<- *ckptBuf
}

// ckptReturned, when set (tests), sees every buffer as its last holder lets go.
var ckptReturned func(*ckptBuf)

// release lets go of one hold; a nil c holds nothing.
func (c *ckptBuf) release() {
	if c == nil || c.holders.Add(-1) > 0 {
		return
	}
	if ckptReturned != nil {
		ckptReturned(c)
	}
	select {
	case c.spare <- c:
	default:
	}
}

// cutCheckpoint encodes an epoch-boundary checkpoint into a buffer of the
// job's — a returned one when there is one — held once, for the parked
// slot. It must run inside the checkpoint callback, on the executor: ck
// aliases live tensors.
func (j *schedJob) cutCheckpoint(ck *serialize.TrainCheckpoint) (*ckptBuf, error) {
	size := serialize.TrainCheckpointSize(ck)
	var c *ckptBuf
	select {
	case c = <-j.spare:
	default:
		c = &ckptBuf{spare: j.spare}
	}
	if cap(c.payload) < size {
		c.payload = make([]byte, 0, size)
	}
	buf := bytes.NewBuffer(c.payload[:0])
	if err := serialize.WriteTrainCheckpoint(buf, ck); err != nil {
		return nil, err
	}
	c.payload, c.epoch = buf.Bytes(), ck.Epoch
	c.holders.Add(1)
	return c, nil
}

// deliverProgress buffers one epoch's metric and forwards it to the
// attached sink, detaching a sink whose delivery fails (dead client — the
// job itself keeps running).
func (j *schedJob) deliverProgress(m EpochMetric) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats = append(j.stats, m)
	j.lastEpoch = m.Epoch
	if j.sink != nil && j.sink.progress != nil {
		// Calling the sink under j.mu is deliberate: it serialises replay
		// (attach) against live delivery so an epoch is never delivered
		// twice. A connection's sink enqueues on a bounded queue whose
		// writer is deadline-bounded, which bounds the stall.
		if err := j.sink.progress(m); err != nil { //amalgam:allow lockcheck delivery-under-lock is the exactly-once design; the sink enqueues on a bounded queue whose writer is deadline-bounded
			j.sink = nil
		}
	}
}

// deliverCheckpoint parks the epoch-boundary checkpoint (the disconnect
// survival state a later attach resumes from) and forwards it likewise.
func (j *schedJob) deliverCheckpoint(c *ckptBuf) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ckpt.release()
	j.ckpt = c
	if j.sink != nil && j.sink.checkpoint != nil {
		// Same exactly-once rationale as deliverProgress.
		if err := j.sink.checkpoint(c); err != nil { //amalgam:allow lockcheck delivery-under-lock is the exactly-once design; the sink enqueues on a bounded queue whose writer is deadline-bounded
			j.sink = nil
		}
	}
}

// attach replays buffered output newer than fromEpoch into sink and, if
// the job is still live, registers the sink for live delivery (replacing
// any previous one — latest attach wins). The replay and the registration
// happen under one critical section, so an epoch is delivered exactly
// once: either from the buffer or live, never both, never neither.
func (j *schedJob) attach(fromEpoch int, sink *attachSink) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if sink.progress != nil {
		for _, m := range j.stats {
			if m.Epoch > fromEpoch {
				// Replay must stay inside the critical section: that is
				// the exactly-once guarantee documented above.
				if err := sink.progress(m); err != nil { //amalgam:allow lockcheck replay-under-lock is the exactly-once design; the sink enqueues on a bounded queue whose writer is deadline-bounded
					return err
				}
			}
		}
	}
	if sink.checkpoint != nil && j.ckpt != nil && j.ckpt.epoch > fromEpoch {
		if err := sink.checkpoint(j.ckpt); err != nil { //amalgam:allow lockcheck replay-under-lock is the exactly-once design; the sink enqueues on a bounded queue whose writer is deadline-bounded
			return err
		}
	}
	if j.state == JobQueued || j.state == JobRunning {
		j.sink = sink
	}
	return nil
}

// detach removes sink if it is still the registered one.
func (j *schedJob) detach(sink *attachSink) {
	j.mu.Lock()
	if j.sink == sink {
		j.sink = nil
	}
	j.mu.Unlock()
}

// result returns the terminal outcome; call only after done is closed.
func (j *schedJob) result() (*TrainResponse, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resp, j.err
}

// tenantQueue is one tenant's FIFO backlog.
type tenantQueue struct {
	pending []*schedJob
	inRing  bool
}

// Scheduler owns the job registry and the executor pool: admission
// control in Submit, per-tenant fair-share dispatch in next, and the
// disconnect-surviving job records the attach path reads. It is the
// server's training backend, but has no transport of its own — tests
// drive it directly.
type Scheduler struct {
	cfg ServerConfig // Executors, QueueDepth and TenantQuota, defaults applied

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*schedJob // queued, running and the retainedJobs most recently finished
	order     []string             // their submission order, for Views
	tenants   map[string]*tenantQueue
	ring      []string // tenants with a backlog, round-robin order
	queued    int      // jobs admitted but not yet dispatched
	seq       uint64
	finishing bool // no more work is coming: executors exit when idle
	cancelAll bool // shutdown: every job (present and future) pre-cancelled

	dispatched []string // dispatch order of the jobs in the registry (test observability: fairness)
	completed  []string // terminal order, oldest first: eviction order (and test observability: starvation)

	past    map[string]JobStatus // how the pastJobs most recently finished jobs ended
	pastIDs []string             // their IDs, oldest first

	wg      sync.WaitGroup
	started bool
}

// newScheduler builds a scheduler under cfg, whose defaults it applies;
// start launches the executors. Split so tests can enqueue a full backlog
// first and observe a deterministic fair-share dispatch order.
func newScheduler(cfg ServerConfig) *Scheduler {
	sch := &Scheduler{
		cfg:     cfg.withDefaults(),
		jobs:    make(map[string]*schedJob),
		past:    make(map[string]JobStatus),
		tenants: make(map[string]*tenantQueue),
	}
	sch.cond = sync.NewCond(&sch.mu)
	return sch
}

// start launches the executor pool. Its jobs compute on the kernel pool like
// any other caller's: the pool, not the scheduler, bounds the cores.
func (sch *Scheduler) start() {
	sch.mu.Lock()
	if sch.started {
		sch.mu.Unlock()
		return
	}
	sch.started = true
	sch.mu.Unlock()

	sch.wg.Add(sch.cfg.Executors)
	for i := 0; i < sch.cfg.Executors; i++ {
		go sch.executor()
	}
}

// Submit admits one job: model built and initial state loaded (the job's
// one build: the provider view reads the shipped graph off it, the executor
// trains it), provider view captured (the upload has been observed
// regardless of scheduling), quota and depth checked, job registered and
// enqueued on its tenant's queue. sink, when non-nil, is registered before
// the job can be dispatched, so a same-connection attach (the msgDone
// conversation) sees every epoch live — no replay window. Rejections are
// typed: ErrBadRequest (the spec does not build, the initial state does
// not fit, a hyper-parameter is out of range), ErrUnknownOptimizer,
// ErrTenantQuota, ErrQueueFull. req is left as it came.
func (sch *Scheduler) Submit(req *TrainRequest, sink *attachSink) (*schedJob, error) {
	if _, err := req.Hyper.recipe(); err != nil {
		return nil, err
	}
	// Outside the lock: building the augmented graph may panic on
	// malformed geometry — the connection handler's recover must see it
	// with no scheduler lock held.
	model, err := buildLoaded(req)
	if err != nil {
		return nil, err
	}
	view := CaptureProviderView(req, model)
	own := *req
	own.InitState = nil
	req = &own

	tenant := req.Spec.Tenant
	sch.mu.Lock()
	defer sch.mu.Unlock()
	tq := sch.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{}
		sch.tenants[tenant] = tq
	}
	if len(tq.pending) >= sch.cfg.TenantQuota {
		return nil, fmt.Errorf("cloudsim: tenant %q has %d queued jobs (quota %d): %w",
			tenant, len(tq.pending), sch.cfg.TenantQuota, ErrTenantQuota)
	}
	if sch.queued >= sch.cfg.QueueDepth {
		return nil, fmt.Errorf("cloudsim: admission queue full at %d jobs: %w", sch.queued, ErrQueueFull)
	}
	sch.seq++
	job := &schedJob{
		id:        fmt.Sprintf("job-%06d", sch.seq),
		tenant:    tenant,
		req:       req,
		view:      view,
		model:     model,
		state:     JobQueued,
		lastEpoch: req.Hyper.StartEpoch,
		preCancel: sch.cancelAll,
		sink:      sink,
		done:      make(chan struct{}),
	}
	sch.jobs[job.id] = job
	sch.order = append(sch.order, job.id)
	tq.pending = append(tq.pending, job)
	sch.queued++
	if !tq.inRing {
		tq.inRing = true
		sch.ring = append(sch.ring, tenant)
	}
	sch.cond.Signal()
	return job, nil
}

// next blocks until a job is dispatchable and pops it fairly: the ring
// rotates over tenants with a backlog, one job per turn, so a tenant
// submitting 100 jobs and a tenant submitting 1 reach the executors
// interleaved, not serialised. Returns nil when the scheduler is
// finishing and the backlog is empty.
func (sch *Scheduler) next() *schedJob {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	for {
		if len(sch.ring) > 0 {
			tenant := sch.ring[0]
			sch.ring = sch.ring[1:]
			tq := sch.tenants[tenant]
			job := tq.pending[0]
			tq.pending = tq.pending[1:]
			sch.queued--
			if len(tq.pending) > 0 {
				sch.ring = append(sch.ring, tenant)
			} else {
				tq.inRing = false
			}
			sch.dispatched = append(sch.dispatched, job.id)
			return job
		}
		if sch.finishing {
			return nil
		}
		sch.cond.Wait()
	}
}

func (sch *Scheduler) executor() {
	defer sch.wg.Done()
	for {
		job := sch.next()
		if job == nil {
			return
		}
		sch.runJob(job)
	}
}

// runJob drives one job through the training loop and into a terminal
// state. A pre-cancelled job (cancelled while queued, or admitted during
// shutdown) still runs the loop with an already-cancelled context: it
// performs no training steps and terminates immediately with an
// epoch-aligned cancelled result, so attach always finds a result.
func (sch *Scheduler) runJob(job *schedJob) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job.mu.Lock()
	job.state = JobRunning
	job.cancelFn = cancel
	if job.preCancel {
		cancel()
	}
	job.mu.Unlock()

	progress := func(m EpochMetric) error {
		job.deliverProgress(m)
		return nil
	}
	var checkpoint func(*serialize.TrainCheckpoint) error
	if job.req.Hyper.CheckpointEvery > 0 {
		job.spare = make(chan *ckptBuf, 2) // of three buffers one is always parked
		checkpoint = func(ck *serialize.TrainCheckpoint) error {
			// Cut here, on the executor, while the checkpoint's tensors
			// still are the epoch boundary; only bytes leave the callback.
			c, err := job.cutCheckpoint(ck)
			if err != nil {
				return err
			}
			job.deliverCheckpoint(c)
			return nil
		}
	}
	resp, err := func() (r *TrainResponse, e error) {
		// A job that panics (bad spec geometry slipping past validation, a
		// kernel bug) fails that one job; the executor survives to run the
		// next.
		defer func() {
			if p := recover(); p != nil {
				e = fmt.Errorf("cloudsim: job crashed: %v: %w", p, ErrJobPanic)
			}
		}()
		return TrainLoop(ctx, job.model, job.req, progress, checkpoint)
	}()

	// Terminal: the response is all anyone can still ask this job for (it
	// is newer than the parked checkpoint: an attach now replays none);
	// model and gradients, payload, checkpoint buffers go.
	job.model, job.spare = nil, nil
	r := job.req // Spec and Hyper stay: handlers read them, unlocked
	r.Images, r.Labels, r.Samples = nil, nil, nil
	r.EvalImages, r.EvalLabels, r.EvalSamples = nil, nil, nil
	r.InitOptState, r.InitRNG = nil, nil
	job.mu.Lock()
	job.ckpt.release()
	job.ckpt = nil
	job.resp, job.err = resp, err
	job.cancelFn = nil
	switch {
	case err != nil:
		job.state = JobFailed
	case resp.Cancelled:
		job.state = JobCancelled
	default:
		job.state = JobDone
	}
	close(job.done)
	job.mu.Unlock()

	// The ledger records how the job ended (pastJobs of them: a status
	// each, for poll); the registry keeps the retainedJobs most recently
	// finished whole and forgets the oldest-finished beyond that — never a
	// queued or running job, which is not in completed.
	st, _ := job.status()
	sch.mu.Lock()
	defer sch.mu.Unlock()
	sch.past[job.id] = st
	if sch.pastIDs = append(sch.pastIDs, job.id); len(sch.pastIDs) > pastJobs {
		delete(sch.past, sch.pastIDs[0])
		sch.pastIDs = sch.pastIDs[1:]
	}
	sch.completed = append(sch.completed, job.id)
	for len(sch.completed) > retainedJobs {
		id := sch.completed[0]
		is := func(o string) bool { return o == id }
		delete(sch.jobs, id)
		sch.completed, sch.order, sch.dispatched = sch.completed[1:], slices.DeleteFunc(sch.order, is), slices.DeleteFunc(sch.dispatched, is)
	}
}

// Job looks up a registry entry by ID.
func (sch *Scheduler) Job(id string) (*schedJob, error) {
	sch.mu.Lock()
	job := sch.jobs[id]
	sch.mu.Unlock()
	if job == nil {
		return nil, fmt.Errorf("cloudsim: job %q: %w", id, ErrUnknownJob)
	}
	return job, nil
}

// cancel stops the job at its next epoch boundary. A queued job is
// pre-cancelled (it still passes through an executor to produce its
// terminal record); a terminal job is left alone. Idempotent.
func (j *schedJob) cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobQueued:
		j.preCancel = true
	case JobRunning:
		if j.cancelFn != nil {
			j.cancelFn()
		}
	}
}

// Cancel requests the job named id stop (see schedJob.cancel).
func (sch *Scheduler) Cancel(id string) error {
	job, err := sch.Job(id)
	if err != nil {
		return err
	}
	job.cancel()
	return nil
}

// CancelAll pre-cancels every present and future job — the graceful
// shutdown sweep. Running jobs stop at their next epoch boundary; queued
// and late-arriving jobs terminate immediately with a cancelled result.
func (sch *Scheduler) CancelAll() {
	sch.mu.Lock()
	sch.cancelAll = true
	jobs := make([]*schedJob, 0, len(sch.jobs))
	for _, job := range sch.jobs {
		jobs = append(jobs, job)
	}
	sch.mu.Unlock()
	for _, job := range jobs {
		job.cancel()
	}
}

// Finish tells the executors no further work is coming: each exits once
// the backlog is empty. Idempotent.
func (sch *Scheduler) Finish() {
	sch.mu.Lock()
	sch.finishing = true
	sch.mu.Unlock()
	sch.cond.Broadcast()
}

// WaitIdle blocks until every executor has exited (call Finish first).
func (sch *Scheduler) WaitIdle() {
	sch.wg.Wait()
}

// status is the job's part of a point-in-time observation (QueuePos is the
// scheduler's to add while the job is queued).
func (j *schedJob) status() (st JobStatus, queued bool) {
	st = JobStatus{JobID: j.id, Tenant: j.tenant}
	j.mu.Lock()
	defer j.mu.Unlock()
	st.State = j.state.String()
	st.CompletedEpochs = j.lastEpoch
	if j.resp != nil {
		st.CompletedEpochs = j.resp.CompletedEpochs
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st, j.state == JobQueued
}

// Status reports a point-in-time observation of one job. A job the
// registry has forgotten still answers with how it ended while the ledger
// remembers it.
func (sch *Scheduler) Status(id string) (JobStatus, error) {
	job, err := sch.Job(id)
	if err != nil {
		sch.mu.Lock()
		st, ok := sch.past[id]
		sch.mu.Unlock()
		if ok {
			return st, nil
		}
		return JobStatus{}, err
	}
	st, queued := job.status()
	if queued {
		sch.mu.Lock()
		if tq := sch.tenants[job.tenant]; tq != nil {
			for i, p := range tq.pending {
				if p == job {
					st.QueuePos = i + 1
					break
				}
			}
		}
		sch.mu.Unlock()
	}
	return st, nil
}

// Views returns the provider-side observations in submission order, each
// stamped with its job's ID and state at call time. Queued jobs are
// included (their upload has been observed) with State "queued".
func (sch *Scheduler) Views() []ProviderView {
	sch.mu.Lock()
	jobs := make([]*schedJob, 0, len(sch.order))
	for _, id := range sch.order {
		jobs = append(jobs, sch.jobs[id])
	}
	sch.mu.Unlock()
	out := make([]ProviderView, len(jobs))
	for i, job := range jobs {
		job.mu.Lock()
		v := job.view
		v.JobID = job.id
		v.State = job.state.String()
		job.mu.Unlock()
		out[i] = v
	}
	return out
}
