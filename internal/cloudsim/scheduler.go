package cloudsim

import (
	"bytes"
	"context"
	"crypto/rand"
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

func (s JobState) terminal() bool { return s != JobQueued && s != JobRunning }

// schedJob is one registry entry. The scheduler's mutex guards queue
// membership; the job's own mutex guards its mutable record (state,
// output, cursors, result) and cond, over that mutex, signals every change
// to it. Nothing waits on a connection with the job lock held: a slow
// attached client delays only its own job, and only at a checkpoint.
// A job holds its state once: admission builds the model the executor
// trains, with the client's initial state loaded into it and dropped from
// req; dispatch hands the resume optimiser state and dropout cursors to
// the loop that loads them (loopRequest); the terminal transition keeps
// the response and lets go of the rest.
type schedJob struct {
	id     string
	tenant string
	req    *TrainRequest // the job's own copy: no init state once dispatched, no payload once terminal
	view   ProviderView
	model  Trainable     // built at admission, trained by the executor, nil once terminal
	spare  chan *ckptBuf // checkpoint buffers handed back for the next cut; the executor's

	mu        sync.Mutex
	cond      *sync.Cond // over mu
	state     JobState
	cancelFn  context.CancelFunc // set while running
	preCancel bool               // cancel arrived before dispatch
	lastEpoch int                // latest completed epoch seen in progress
	stats     []EpochMetric      // every epoch's metric, in order: the log cursors read
	ckpt      *ckptBuf           // latest parked epoch-boundary checkpoint; nil once terminal (resp is newer)
	live      *cursor            // the latest attached cursor, while it streams
	resp      *TrainResponse
	err       error
	done      chan struct{} // closed after the terminal transition

	held int64 // resp's encoded size, set at the terminal transition; guarded by the scheduler's mu
}

// cursor is one attached connection's position in its job's output: the
// connection's handler pulls what lies past it (next) and writes it, and
// nothing is pushed to it. Its fields are guarded by the job's mutex.
type cursor struct {
	stats    int  // index in the job's stats of the next progress entry to send
	ckpt     int  // epoch of the newest checkpoint sent or passed over
	progress bool // progress entries are sent (checkpoints always are)
	stopped  bool // streams no more: superseded, or a write failed
	gone     bool // the connection's read side died
}

func newCursor(progress bool) *cursor { return &cursor{ckpt: -1, progress: progress} }

// batch is the output a cursor takes at once: progress entries, with the
// checkpoint — when there is one, held for the taker — after the first
// pre of them, the epochs it follows.
type batch struct {
	stats []EpochMetric
	pre   int
	ckpt  *ckptBuf
}

// ckptBuf is one cut checkpoint: an encoded msgCheckpoint payload — the
// bytes WithCheckpoint writes to disk — and the count of who may still
// read it: the job's parked slot, every connection writing it. The bytes
// are immutable while anyone but the parked slot holds them. A client
// that keeps up has sent the parked checkpoint before the next boundary,
// so that boundary is cut into the same buffer, in place (reclaimParked):
// one buffer for the whole job. Only a connection still holding the old
// bytes — slow, superseded or dying — sends the cut to a spare the last
// holder handed back, or a fresh one (a stalled or superseded connection
// pins a third). Buffers die with their job: it forgets its spares, a
// later release lands where nobody reads.
type ckptBuf struct {
	payload []byte
	epoch   int
	holders atomic.Int32
	spare   chan<- *ckptBuf
}

// ckptReturned, when set (tests), sees every buffer as its last holder lets
// go, and before a parked buffer is cut again in place.
var ckptReturned func(*ckptBuf)

// boundaryReached, when set (tests), runs on the executor at every epoch
// boundary, before its checkpoint is cut.
var boundaryReached func(*schedJob)

// release lets go of one hold; a nil c holds nothing.
func (c *ckptBuf) release() {
	if c.drop() {
		c.recycle()
	}
}

// drop lets go of one hold and reports whether it was the last; a nil c
// holds nothing.
func (c *ckptBuf) drop() bool { return c != nil && c.holders.Add(-1) == 0 }

// recycle hands a buffer nobody holds back to its job for a later cut.
func (c *ckptBuf) recycle() {
	if ckptReturned != nil {
		ckptReturned(c)
	}
	select {
	case c.spare <- c:
	default:
	}
}

// cutCheckpoint encodes an epoch-boundary checkpoint into a buffer of the
// job's — the parked one when nobody may still read it, else a returned
// one when there is one — held once, for the parked slot. It must run
// inside the checkpoint callback, on the executor: ck aliases live
// tensors.
func (j *schedJob) cutCheckpoint(ck *serialize.TrainCheckpoint) (*ckptBuf, error) {
	if boundaryReached != nil {
		boundaryReached(j)
	}
	size := serialize.TrainCheckpointSize(ck)
	c := j.reclaimParked()
	if c != nil {
		if ckptReturned != nil {
			ckptReturned(c)
		}
	} else {
		select {
		case c = <-j.spare:
		default:
			c = &ckptBuf{spare: j.spare}
		}
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

// deliverProgress appends one epoch's metric to the job's output. It never
// waits: the whole log stays buffered for whoever reads it.
func (j *schedJob) deliverProgress(m EpochMetric) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats = append(j.stats, m)
	j.lastEpoch = m.Epoch
	j.cond.Broadcast()
}

// reclaimParked unparks the parked checkpoint's buffer for the next cut
// when nobody may still read it: the live cursor, if any, has sent it (or
// passed over it), and the parked slot is its only holder. Holds are taken
// and given up by cursors under j.mu, so neither can change before the
// slot is emptied. The slot stays empty until the cut is parked: an
// attach in between gets that boundary then.
func (j *schedJob) reclaimParked() *ckptBuf {
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.ckpt
	if c == nil || c.holders.Load() != 1 || j.live != nil && j.live.ckpt < c.epoch {
		return nil
	}
	j.ckpt = nil
	c.holders.Store(0)
	return c
}

// deliverCheckpoint parks the epoch-boundary checkpoint (the disconnect
// survival state a later attach resumes from) in place of the previous
// one, once the live cursor has sent that.
func (j *schedJob) deliverCheckpoint(c *ckptBuf) {
	j.mu.Lock()
	j.awaitLive()
	old := j.ckpt
	j.ckpt = c
	j.cond.Broadcast()
	j.mu.Unlock()
	old.release()
}

// awaitLive waits, with j.mu held, until the live cursor — if any — has
// sent the parked checkpoint: every checkpoint reaches the live client,
// and the executor runs at most one epoch ahead of a slow one.
func (j *schedJob) awaitLive() {
	for j.live != nil && j.ckpt != nil && j.live.ckpt < j.ckpt.epoch {
		j.cond.Wait()
	}
}

// attach positions cur past fromEpoch — buffered epochs after it and a
// parked checkpoint after it are what cur sends first — and makes it the
// job's live cursor if the job is still live (latest attach wins: the one
// it replaces stops streaming).
func (j *schedJob) attach(fromEpoch int, cur *cursor) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur.stats = len(j.stats)
	for i, m := range j.stats {
		if m.Epoch > fromEpoch {
			cur.stats = i
			break
		}
	}
	if j.ckpt != nil {
		cur.ckpt = min(j.ckpt.epoch, fromEpoch)
	}
	if !j.state.terminal() {
		if j.live != nil {
			j.live.stopped = true
		}
		j.live = cur
	}
	j.cond.Broadcast()
}

// next waits until cur has output to send and takes it, advancing cur past
// it. ok is false once the stream is over: the job is terminal with
// nothing left for cur, or cur's connection is gone. A stopped cursor
// takes nothing and waits for either.
func (j *schedJob) next(cur *cursor) (b batch, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if !cur.stopped {
			if c := j.ckpt; c != nil && c.epoch > cur.ckpt {
				c.holders.Add(1)
				b.ckpt = c
			}
			if cur.progress {
				b.stats = j.stats[cur.stats:]
				cur.stats = len(j.stats)
				for b.ckpt != nil && b.pre < len(b.stats) && b.stats[b.pre].Epoch <= b.ckpt.epoch {
					b.pre++
				}
			}
			if b.ckpt != nil || len(b.stats) > 0 {
				return b, true
			}
		}
		if j.state.terminal() || cur.gone {
			return b, false
		}
		j.cond.Wait()
	}
}

// sent reports that cur's taker has written b, or failed to (err): a
// failed cursor stops and is no longer live. It lets go of b's checkpoint
// together with moving cur past it, so the executor never sees one without
// the other (reclaimParked).
func (j *schedJob) sent(cur *cursor, b batch, err error) {
	j.mu.Lock()
	switch {
	case err != nil:
		cur.stopped = true
		if j.live == cur {
			j.live = nil
		}
	case b.ckpt != nil:
		cur.ckpt = b.ckpt.epoch
	}
	last := b.ckpt.drop()
	j.cond.Broadcast()
	j.mu.Unlock()
	if last {
		b.ckpt.recycle()
	}
}

// hangUp marks cur's connection gone, and reports whether the job had
// already finished.
func (j *schedJob) hangUp(cur *cursor) (finished bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur.gone = true
	if j.live == cur {
		j.live = nil
	}
	j.cond.Broadcast()
	return j.state.terminal()
}

// result returns the terminal outcome: nil, nil while the job is live.
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
	finishing bool     // no more work is coming: executors exit when idle
	cancelAll bool     // shutdown: every job (present and future) pre-cancelled

	dispatched []string // dispatch order of the jobs in the registry (test observability: fairness)
	completed  []string // terminal order, oldest first: eviction order (and test observability: starvation)
	held       int64    // bytes the completed jobs' results hold
	heldBudget int64    // retainedResultBytes; tests lower it

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
		cfg:        cfg.withDefaults(),
		jobs:       make(map[string]*schedJob),
		past:       make(map[string]JobStatus),
		tenants:    make(map[string]*tenantQueue),
		heldBudget: retainedResultBytes,
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
// enqueued on its tenant's queue under an ID drawn from crypto/rand, which
// no client can guess and no restarted server issues again. cur, when
// non-nil, is the job's live cursor from before it can be dispatched, so
// the submitting connection's stream has no replay window. Rejections are
// typed: ErrBadRequest (the spec does not build, the initial state does
// not fit, a hyper-parameter is out of range), ErrUnknownOptimizer,
// ErrTenantQuota, ErrQueueFull. req is left as it came.
func (sch *Scheduler) Submit(req *TrainRequest, cur *cursor) (*schedJob, error) {
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
	job := &schedJob{
		id:        "job-" + rand.Text(),
		tenant:    tenant,
		req:       req,
		view:      view,
		model:     model,
		state:     JobQueued,
		lastEpoch: req.Hyper.StartEpoch,
		preCancel: sch.cancelAll,
		live:      cur,
		done:      make(chan struct{}),
	}
	job.cond = sync.NewCond(&job.mu)
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

// loopRequest is the request the executor's TrainLoop runs: the job's,
// with the resume point's optimiser state and dropout cursors moved out of
// the job into it. TrainLoop loads them as it starts and keeps no
// reference, so a resumed job holds its optimiser state once — in the
// optimiser — and not a second time for its whole run.
func (job *schedJob) loopRequest() *TrainRequest {
	req := *job.req
	job.req.InitOptState, job.req.InitRNG = nil, nil
	return &req
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
	preCancel := job.preCancel
	job.mu.Unlock()
	if preCancel {
		cancel()
	}

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
		return TrainLoop(ctx, job.model, job.loopRequest(), progress, checkpoint)
	}()

	// Terminal: the response is all anyone can still ask this job for (it
	// is newer than the parked checkpoint: an attach now replays none);
	// model and gradients, payload, checkpoint buffers go.
	job.model, job.spare = nil, nil
	r := job.req // Spec and Hyper stay: handlers read them, unlocked
	r.Images, r.Labels, r.Samples = nil, nil, nil
	r.EvalImages, r.EvalLabels, r.EvalSamples = nil, nil, nil
	job.mu.Lock()
	job.awaitLive() // the last checkpoint reaches the live client before the result
	parked := job.ckpt
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
	job.cond.Broadcast()
	job.mu.Unlock()
	parked.release()
	close(job.done)

	// The ledger records how the job ended (pastJobs of them: a status
	// each, for poll); the registry keeps the most recently finished whole,
	// retainedJobs of them holding at most retainedResultBytes, and forgets
	// the oldest-finished beyond that — never the newest, nor a queued or
	// running job, which is not in completed.
	st, _ := job.status()
	var held int64 // the result's size as the terminal checkpoint: weights, optimiser state, RNG cursors
	if resp != nil {
		held = int64(serialize.TrainCheckpointSize(resp.Checkpoint(job.req.Spec.Kind)))
	}
	sch.mu.Lock()
	defer sch.mu.Unlock()
	sch.past[job.id] = st
	if sch.pastIDs = append(sch.pastIDs, job.id); len(sch.pastIDs) > pastJobs {
		delete(sch.past, sch.pastIDs[0])
		sch.pastIDs = sch.pastIDs[1:]
	}
	sch.completed = append(sch.completed, job.id)
	job.held = held
	sch.held += held
	for len(sch.completed) > retainedJobs || (sch.held > sch.heldBudget && len(sch.completed) > 1) {
		id := sch.completed[0]
		is := func(o string) bool { return o == id }
		sch.held -= sch.jobs[id].held
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
	j.preCancel = j.preCancel || j.state == JobQueued
	stop := j.cancelFn // nil unless running
	j.mu.Unlock()
	if stop != nil {
		stop()
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
