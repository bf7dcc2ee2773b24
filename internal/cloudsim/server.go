package cloudsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"amalgam/internal/serialize"
	"amalgam/internal/serve"
)

// ServerConfig tunes the hardened server.
type ServerConfig struct {
	// MaxConns bounds concurrently served connections. Further clients
	// queue in the kernel accept backlog (backpressure) instead of being
	// accepted and starved. 0 means the default (256).
	MaxConns int
	// FrameTimeout bounds each request-phase frame read and each response
	// write. It does NOT apply to the server's training-phase cancel
	// watcher, where a silent client is normal. 0 means the default
	// (2 minutes); negative disables deadlines entirely.
	FrameTimeout time.Duration
	// Executors is the number of concurrent training executors. They share
	// the process's one kernel pool, which runs every chunk and sub-network
	// branch on a parked worker or on its caller, so N concurrent jobs
	// compute on at most N + NumCPU goroutines instead of oversubscribing the
	// machine N-fold. 0 means the default (4).
	Executors int
	// QueueDepth bounds jobs admitted but not yet dispatched, across all
	// tenants. Submissions beyond it are rejected with ErrQueueFull — a
	// typed, retryable backpressure signal — instead of queueing without
	// bound. 0 means the default (256).
	QueueDepth int
	// TenantQuota bounds one tenant's queued jobs, so a single tenant
	// cannot occupy the whole admission queue. Submissions beyond it are
	// rejected with ErrTenantQuota. 0 means QueueDepth: no per-tenant
	// bound beyond the global one.
	TenantQuota int
	// Infer is the prediction backend: msgInfer frames are answered
	// against models registered on it. Nil (the default) refuses infer
	// frames with ErrBadRequest — a pure training server.
	Infer *serve.Server
}

// withDefaults resolves the zero values. Apply it once: a negative
// FrameTimeout resolves to 0, which a second pass would read as unset.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.FrameTimeout == 0 {
		c.FrameTimeout = 2 * time.Minute
	}
	if c.FrameTimeout < 0 {
		c.FrameTimeout = 0
	}
	if c.Executors <= 0 {
		c.Executors = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = c.QueueDepth
	}
	return c
}

// Server is the simulated cloud training service: an accept loop feeding
// connection handlers, in front of a multi-tenant Scheduler that owns the
// job registry and the executor pool. A msgDone request is served as
// submit+attach on its own connection; a msgSubmit request gets a job ID
// to poll and attach over later connections.
type Server struct {
	listener net.Listener
	cfg      ServerConfig
	sched    *Scheduler
	wg       sync.WaitGroup
	sem      chan struct{}

	shutdownOnce sync.Once
	shuttingDown chan struct{}
	finishOnce   sync.Once

	mu        sync.Mutex
	acceptErr error
}

// NewServer starts serving on l with default hardening (see ServerConfig).
// Close the listener (or call Shutdown) to stop; Wait returns when all
// in-flight jobs finish.
func NewServer(l net.Listener) *Server {
	return NewServerConfig(l, ServerConfig{})
}

// NewServerConfig starts serving on l with explicit limits.
func NewServerConfig(l net.Listener, cfg ServerConfig) *Server {
	sched := newScheduler(cfg)
	s := &Server{
		listener:     l,
		cfg:          sched.cfg, // cfg with its defaults applied
		sched:        sched,
		sem:          make(chan struct{}, sched.cfg.MaxConns),
		shuttingDown: make(chan struct{}),
	}
	s.sched.start()
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := time.Millisecond
	for {
		// Backpressure: take a concurrency slot BEFORE accepting, so at
		// MaxConns in-flight jobs new clients wait in the kernel backlog
		// rather than holding an accepted-but-starved connection.
		select {
		case s.sem <- struct{}{}:
		case <-s.shuttingDown:
			return
		}
		conn, err := s.listener.Accept()
		if err != nil {
			<-s.sem
			if errors.Is(err, net.ErrClosed) {
				return // clean stop: Shutdown or the owner closed the listener
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				// Transient accept fault (e.g. fd pressure): back off and
				// keep serving instead of silently dying.
				select {
				case <-time.After(backoff):
				case <-s.shuttingDown:
					return
				}
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			// Terminal listener failure: surface it via Wait.
			s.mu.Lock()
			s.acceptErr = err
			s.mu.Unlock()
			return
		}
		backoff = time.Millisecond
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() { <-s.sem }()
	defer conn.Close()
	dc := newDeadlineConn(conn, s.cfg.FrameTimeout, s.cfg.FrameTimeout)
	if err := s.handleRecover(dc); err != nil && !errors.Is(err, io.EOF) {
		// Best effort: report the failure to the client.
		_ = writeErrorFrame(dc, err)
		if !dc.streaming {
			s.drainRefused(dc)
		}
	}
}

// drainRefused lets a refusal arrive as the refusal. A request rejected on
// an early frame leaves the client still uploading; closing now would
// have the kernel answer its unread bytes with a reset, which the client
// reports as a transient fault and retries. So the server half-closes and
// reads the rest of the upload away — at most one FrameTimeout, one
// maxFrame of bytes — until the client has read the refusal and hung up.
func (s *Server) drainRefused(conn *deadlineConn) {
	if hc, ok := conn.Conn.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite()
	}
	if s.cfg.FrameTimeout > 0 {
		conn.setHardReadDeadline(time.Now().Add(s.cfg.FrameTimeout))
	}
	_, _ = io.CopyN(io.Discard, conn, int64(maxFrame))
}

// handleRecover isolates a panicking connection: the crash becomes a wire
// error frame (fatal — the same deterministic job would crash again)
// instead of a torn connection taking the whole server down.
func (s *Server) handleRecover(conn *deadlineConn) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cloudsim: recovered: %v: %w", r, ErrJobPanic)
		}
	}()
	return s.handle(conn)
}

// Wait blocks until the accept loop and all handlers exit, then drains
// the executor pool, returning the terminal accept error, if any (nil
// after a clean close or Shutdown). With the listener closed no new
// submissions can arrive, so the backlog the executors drain is final.
func (s *Server) Wait() error {
	s.wg.Wait()
	s.finishOnce.Do(s.sched.Finish)
	s.sched.WaitIdle()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acceptErr
}

// Shutdown gracefully stops the server: no new connections are accepted,
// and every job — running, queued, or parked — is signalled to stop at
// its next epoch boundary. Connected clients receive an epoch-aligned
// checkpoint plus a retryable "server shutting down" error so they can
// resume elsewhere. Shutdown returns once all handlers and executors
// drain or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		close(s.shuttingDown)
		_ = s.listener.Close()
		s.sched.CancelAll()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.finishOnce.Do(s.sched.Finish)
		s.sched.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) isShuttingDown() bool {
	select {
	case <-s.shuttingDown:
		return true
	default:
		return false
	}
}

// Views returns the provider-side observations captured so far, in
// submission order — including queued jobs (present-but-pending, State
// "queued": the provider has observed the upload even before training
// starts).
func (s *Server) Views() []ProviderView {
	return s.sched.Views()
}

// handle serves one connection's conversation (see the frame table in
// frames.go): request frames accumulate into a TrainRequest until a
// terminator says what to do with it; control and infer frames are
// answered in place.
func (s *Server) handle(conn *deadlineConn) error {
	req := &TrainRequest{}
	var tokensFlat, evalTokensFlat []int
	haveTokens, haveEvalTokens := false, false
	for {
		kind, payload, err := conn.readFrame()
		if err != nil {
			return err
		}
		switch kind {
		case msgSpec:
			spec, err := decodeSpecFrame(payload)
			if err != nil {
				return fmt.Errorf("cloudsim: bad spec: %w", err)
			}
			req.Spec = spec
		case msgHyper:
			if err := json.Unmarshal(payload, &req.Hyper); err != nil {
				return fmt.Errorf("cloudsim: bad hyper: %w", err)
			}
		case msgLabels:
			labels, err := serialize.ReadIntSlice(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad labels: %w", err)
			}
			req.Labels = labels
		case msgImages:
			t, err := serialize.ReadTensor(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad images: %w", err)
			}
			req.Images = t
		case msgTokens:
			flat, err := serialize.ReadIntSlice(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad tokens: %w", err)
			}
			tokensFlat, haveTokens = flat, true
		case msgEvalImages:
			t, err := serialize.ReadTensor(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad eval images: %w", err)
			}
			req.EvalImages = t
		case msgEvalLabels:
			labels, err := serialize.ReadIntSlice(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad eval labels: %w", err)
			}
			req.EvalLabels = labels
		case msgEvalTokens:
			flat, err := serialize.ReadIntSlice(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad eval tokens: %w", err)
			}
			evalTokensFlat, haveEvalTokens = flat, true
		case msgInit:
			dict, err := serialize.ReadStateDict(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad init state: %w", err)
			}
			req.InitState = dict
		case msgOptState:
			st, err := serialize.ReadOptState(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad optimiser state: %w", err)
			}
			req.InitOptState = st
		case msgRNGState:
			dict, err := serialize.ReadBytesDict(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cloudsim: bad RNG state: %w", err)
			}
			req.InitRNG = dict
		case msgCancel:
			if len(payload) > 0 {
				// Cancel-by-ID control frame: the payload names a scheduled
				// job on a fresh connection.
				if err := s.jobStatus(conn, payload, true); err != nil {
					return err
				}
				continue
			}
			// Cancelled before the job even started: nothing to train.
			// The generic wire code is deliberate: the client asked for
			// this cancellation and will not retry it, so no sentinel
			// class applies.
			return fmt.Errorf("cloudsim: job cancelled before submission") //amalgam:allow errtaxcheck client-initiated cancel; intentionally generic, never retried
		case msgPoll:
			// Status query — valid any time, repeatable on one connection.
			if err := s.jobStatus(conn, payload, false); err != nil {
				return err
			}
			continue
		case msgInfer:
			// Prediction request — repeatable, so one connection amortises
			// its dial across many predictions.
			if err := s.infer(conn, payload); err != nil {
				return err
			}
			continue
		case msgAttach:
			var areq AttachRequest
			if err := json.Unmarshal(payload, &areq); err != nil {
				return fmt.Errorf("cloudsim: bad attach request: %w", err)
			}
			return s.attach(conn, areq)
		case msgSubmit, msgDone:
			if haveTokens {
				if req.Samples, err = reshapeSamples(tokensFlat, req.Spec.AugLen); err != nil {
					return err
				}
			}
			if haveEvalTokens {
				if req.EvalSamples, err = reshapeSamples(evalTokensFlat, req.Spec.AugLen); err != nil {
					return err
				}
			}
			if kind == msgSubmit {
				return s.submitAsync(conn, req)
			}
			return s.runAndRespond(conn, req)
		default:
			return fmt.Errorf("cloudsim: unexpected message type %d: %w", kind, ErrUnknownFrame)
		}
	}
}

// sinkQueueDepth is how many frames wait behind the one a connWriter is
// writing: with it, one epoch's frames (progress + checkpoint) are in
// flight, so the executor trains epoch N+1 while epoch N's frames drain
// and stalls at the end of N+1 if they have not. A constant: the wire
// keeps one epoch of slack, whoever the client.
const sinkQueueDepth = 1

// retainedJobs is how many terminal jobs the scheduler keeps in its
// registry, newest first: enough for any client to come back for a result
// it was disconnected from, while a server that lives for millions of jobs
// holds a bounded number of results. Older ones are forgotten
// oldest-finished first: attach and cancel answer ErrUnknownJob, as for an
// ID that never existed. pastJobs is how many finished jobs keep answering
// poll with how they ended (a JobStatus each, no result): asking stays
// cheap long after the weights are gone. Constants: they bound the
// server's memory, whoever the client.
const (
	retainedJobs = 1024
	pastJobs     = 1 << 16
)

// connWriter is a connection's writer for the live part of a job stream:
// one goroutine draining a bounded FIFO of frames to the connection, so
// the executor that produced them is back to training while they are on
// the socket. Exactly one goroutine sends on a connWriter at a time (the
// one holding the job lock); close it once no send can be in flight — the
// job is terminal, or its sink is detached.
type connWriter struct {
	conn   *deadlineConn
	queue  chan queuedFrame
	stop   chan struct{} // closed by close: drain what is queued, then exit
	failed chan struct{} // closed on the first write error; err is set by then
	exited chan struct{} // closed when the goroutine has returned
	err    error
	once   sync.Once
}

// queuedFrame is a frame waiting on a connWriter; a checkpoint frame's
// payload lives in held, which the writer holds from enqueue until the
// frame is written or dropped.
type queuedFrame struct {
	frame
	held *ckptBuf
}

func newConnWriter(conn *deadlineConn) *connWriter {
	w := &connWriter{
		conn:   conn,
		queue:  make(chan queuedFrame, sinkQueueDepth),
		stop:   make(chan struct{}),
		failed: make(chan struct{}),
		exited: make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *connWriter) run() {
	defer close(w.exited)
	for {
		var f queuedFrame
		select {
		case f = <-w.queue:
		case <-w.stop:
			select {
			case f = <-w.queue: // still queued at close: flush it
			default:
				return
			}
		}
		// After a failed write the writer stays, until close, to let go of
		// whatever still reaches the queue: no frame is stranded holding
		// its checkpoint buffer.
		if w.err == nil {
			if w.err = writeFrame(w.conn, f.kind, f.payload); w.err != nil {
				close(w.failed)
			}
		}
		f.held.release()
	}
}

// enqueue hands one frame, and the hold on its buffer, to the writer,
// blocking while the queue is full — the backpressure a slow client exerts
// on its own job. It fails once a write has: on that error, which is what
// detaches a dead client's sink.
func (w *connWriter) enqueue(f queuedFrame) error {
	select {
	case <-w.failed:
	default:
		select {
		case w.queue <- f:
			return nil
		case <-w.failed:
		}
	}
	f.held.release()
	return w.err
}

// close flushes the queued frames and stops the goroutine, returning the
// write error that ended it early, if any. After close the connection
// has no writer but the caller. Idempotent.
func (w *connWriter) close() error {
	w.once.Do(func() { close(w.stop) })
	<-w.exited
	return w.err
}

// sink is the attachSink delivering a job's live output through w.
func (w *connWriter) sink(req *TrainRequest, progress bool) *attachSink {
	sink := &attachSink{}
	if progress {
		sink.progress = func(m EpochMetric) error {
			js, err := json.Marshal(m)
			if err != nil {
				return err
			}
			return w.enqueue(queuedFrame{frame: frame{msgProgress, js}})
		}
	}
	if req.Hyper.CheckpointEvery > 0 {
		sink.checkpoint = func(c *ckptBuf) error {
			c.holders.Add(1)
			return w.enqueue(queuedFrame{frame{msgCheckpoint, c.payload}, c})
		}
	}
	return sink
}

// writeOutcome sends a finished job's terminal frames: the shutdown
// handoff when the server is draining, or the normal
// result/opt-state/RNG/state sequence — each encoded from the response's
// tensors straight onto the connection. clientStopped marks a cancel that
// came from this client rather than from a shutdown.
func (s *Server) writeOutcome(conn *deadlineConn, kind string, clientStopped bool, resp *TrainResponse) error {
	out := newFrameStream(conn)
	if resp.Cancelled && !clientStopped && s.isShuttingDown() {
		// Graceful-shutdown handoff: an epoch-aligned checkpoint (weights
		// + optimiser state + RNG cursors) followed by the retryable
		// shutdown error, so the client resumes on another server without
		// losing an epoch.
		handoff := resp.Checkpoint(kind)
		out.from(msgCheckpoint, serialize.TrainCheckpointSize(handoff), func(w io.Writer) error {
			return serialize.WriteTrainCheckpoint(w, handoff)
		})
		if err := out.flush(); err != nil {
			return err
		}
		return fmt.Errorf("cloudsim: job stopped at epoch %d: %w", resp.CompletedEpochs, ErrServerShutdown)
	}
	out.json(msgResult, resultMeta{
		Metrics: resp.Metrics, Seconds: resp.Seconds,
		Cancelled: resp.Cancelled, CompletedEpochs: resp.CompletedEpochs,
	})
	// Final optimiser state and dropout-stream cursors ride their own
	// frames, BEFORE msgState: the client's read loop ends on msgState.
	out.resumeState(resp.OptState, resp.RNG)
	out.stateDict(msgState, resp.State)
	return out.flush()
}

// awaitOutcome parks the handler until job finishes, then flushes the
// live frames still queued on w and writes the terminal ones itself.
// Meanwhile it watches the connection: a msgCancel stops the job at its
// next epoch boundary, and a dead connection ends the wait with io.EOF —
// what that means for the job is the caller's policy.
func (s *Server) awaitOutcome(conn *deadlineConn, job *schedJob, w *connWriter) error {
	// The training phase has no frame cadence the server can bound: a
	// silent client is normal. Request-phase deadlines come off, and so
	// does the request's frame buffer: the largest upload frame would
	// otherwise stay pinned for the whole job, to read cancel frames.
	conn.setReadTimeout(0)
	conn.frames.buf = nil
	conn.streaming = true

	connDead := make(chan struct{})
	var clientStopped atomic.Bool
	go func() {
		for {
			kind, _, err := conn.readFrame()
			if err != nil {
				close(connDead)
				return
			}
			if kind == msgCancel {
				clientStopped.Store(true)
				_ = s.sched.Cancel(job.id)
			}
		}
	}()

	// A finished job wins over a dead connection: its result is written
	// (and fails on its own) rather than reported as a detach.
	select {
	case <-job.done:
	default:
		select {
		case <-job.done:
		case <-connDead:
			// Nothing more can be sent; closing now fails a frame w may be
			// stuck in, instead of leaving it to the write deadline.
			_ = conn.Close()
			return io.EOF
		}
	}
	// The job is terminal, so nothing more will be enqueued: what is
	// queued goes out first, then this goroutine is the only writer.
	if err := w.close(); err != nil {
		return err
	}
	resp, jerr := job.result()
	if jerr != nil {
		return jerr
	}
	return s.writeOutcome(conn, job.req.Spec.Kind, clientStopped.Load(), resp)
}

// runAndRespond serves a msgDone request: submit with this connection
// registered as the job's sink from admission, then attach on the same
// connection. The pinned frame cadence (one progress frame per epoch, one
// checkpoint frame per CheckpointEvery epochs but the run's last) holds
// exactly because of that — there is no replay window to coalesce in.
func (s *Server) runAndRespond(conn *deadlineConn, req *TrainRequest) (err error) {
	// A provider-view capture that panics on malformed geometry must
	// become a classified wire error, not a torn connection.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cloudsim: job crashed: %v: %w", r, ErrJobPanic)
		}
	}()
	w := newConnWriter(conn)
	defer w.close()
	sink := w.sink(req, req.Hyper.Stream)
	job, err := s.sched.Submit(req, sink)
	if err != nil {
		return err
	}
	defer job.detach(sink) // before w closes: no delivery may be in flight then
	err = s.awaitOutcome(conn, job, w)
	if errors.Is(err, io.EOF) {
		// A vanished blocking client stops its job instead of burning
		// cloud time on a result nobody will read; disconnect survival is
		// the submit path's contract, where the client asked for a job ID.
		_ = s.sched.Cancel(job.id)
	}
	return err
}

// submitAsync admits the job and answers with its ID; the connection is
// then done. The job runs with no sink parked until someone attaches.
func (s *Server) submitAsync(conn *deadlineConn, req *TrainRequest) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cloudsim: job crashed: %v: %w", r, ErrJobPanic)
		}
	}()
	job, err := s.sched.Submit(req, nil)
	if err != nil {
		return err
	}
	js, err := json.Marshal(submitAck{JobID: job.id})
	if err != nil {
		return err
	}
	return writeFrame(conn, msgSubmitAck, js)
}

// jobStatus answers a control frame naming a scheduled job — a msgPoll, or
// a cancel-by-ID msgCancel, which cancels the job first — with the job's
// status (after the cancel: the post-cancel observation).
func (s *Server) jobStatus(conn *deadlineConn, payload []byte, cancel bool) error {
	var ref jobRef
	if err := json.Unmarshal(payload, &ref); err != nil {
		return fmt.Errorf("cloudsim: bad job reference: %w", err)
	}
	if cancel {
		if err := s.sched.Cancel(ref.JobID); err != nil {
			return err
		}
	}
	st, err := s.sched.Status(ref.JobID)
	if err != nil {
		return err
	}
	js, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return writeFrame(conn, msgJobStatus, js)
}

// attach streams a scheduled job's output to this connection: buffered
// epochs past FromEpoch replay first (exactly once — the replay and the
// live-sink registration are one atomic step), then live frames, then the
// terminal result. The client disconnecting DETACHES the stream without
// cancelling the job — disconnect survival is the point of the submit
// path — and its output keeps buffering for the next attach; an explicit
// msgCancel on this connection cancels the job.
func (s *Server) attach(conn *deadlineConn, areq AttachRequest) error {
	job, err := s.sched.Job(areq.JobID)
	if err != nil {
		return err
	}
	w := newConnWriter(conn)
	defer w.close()
	sink := w.sink(job.req, true)
	if err := job.attach(areq.FromEpoch, sink); err != nil {
		return err
	}
	defer job.detach(sink) // before w closes: no delivery may be in flight then
	return s.awaitOutcome(conn, job, w)
}
