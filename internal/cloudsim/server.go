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
// job registry and the executor pool. A submitted job gets an ID to
// attach to — on the submitting connection, or on later ones — and is
// never its connection's: a hang-up only detaches the stream.
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
// answered in place. A frame whose payload does not decode is refused as
// ErrBadRequest.
func (s *Server) handle(conn *deadlineConn) error {
	req := &TrainRequest{}
	var tokensFlat, evalTokensFlat []int
	haveTokens, haveEvalTokens := false, false
	var start *serialize.TrainCheckpoint // msgInit: the state training starts from
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
				return badFrame("hyper", err)
			}
		case msgLabels:
			labels, err := serialize.ReadIntSlice(bytes.NewReader(payload))
			if err != nil {
				return badFrame("labels", err)
			}
			req.Labels = labels
		case msgImages:
			t, err := serialize.ReadTensor(bytes.NewReader(payload))
			if err != nil {
				return badFrame("images", err)
			}
			req.Images = t
		case msgTokens:
			flat, err := serialize.ReadIntSlice(bytes.NewReader(payload))
			if err != nil {
				return badFrame("tokens", err)
			}
			tokensFlat, haveTokens = flat, true
		case msgEvalImages:
			t, err := serialize.ReadTensor(bytes.NewReader(payload))
			if err != nil {
				return badFrame("eval images", err)
			}
			req.EvalImages = t
		case msgEvalLabels:
			labels, err := serialize.ReadIntSlice(bytes.NewReader(payload))
			if err != nil {
				return badFrame("eval labels", err)
			}
			req.EvalLabels = labels
		case msgEvalTokens:
			flat, err := serialize.ReadIntSlice(bytes.NewReader(payload))
			if err != nil {
				return badFrame("eval tokens", err)
			}
			evalTokensFlat, haveEvalTokens = flat, true
		case msgInit:
			if start, err = serialize.ReadTrainCheckpoint(bytes.NewReader(payload)); err != nil {
				return badFrame("init checkpoint", err)
			}
		case msgPoll, msgCancel:
			// Status query or cancel-by-ID, naming a scheduled job — valid
			// any time, repeatable on one connection.
			if err := s.jobStatus(conn, payload, kind == msgCancel); err != nil {
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
				return badFrame("attach request", err)
			}
			return s.attach(conn, areq)
		case msgSubmit:
			if start != nil {
				if start.Kind != req.Spec.Kind {
					return fmt.Errorf("cloudsim: init checkpoint of a %q job for a %q spec: %w", start.Kind, req.Spec.Kind, ErrBadRequest)
				}
				req.ResumeFrom(start)
			}
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
			return s.submit(conn, req)
		default:
			return fmt.Errorf("cloudsim: unexpected message type %d: %w", kind, ErrUnknownFrame)
		}
	}
}

// badFrame refuses a request or control frame whose payload does not
// decode. The decoder's error is kept as text only: a payload cut short
// is the peer's malformed frame, not a transport fault to retry.
func badFrame(what string, err error) error {
	return fmt.Errorf("cloudsim: bad %s: %v: %w", what, err, ErrBadRequest)
}

// retainedJobs is how many terminal jobs the scheduler keeps in its
// registry, newest first: enough for any client to come back for a result
// it was disconnected from, while a server that lives for millions of jobs
// holds a bounded number of results. retainedResultBytes bounds the bytes
// those results hold (weights plus optimiser state: one resnet18 with
// momentum is ≈89 MB), except that the newest finished job is always kept.
// Older ones are forgotten oldest-finished first: attach and cancel answer
// ErrUnknownJob, as for an ID that never existed. pastJobs is how many
// finished jobs keep answering poll with how they ended (a JobStatus each,
// no result): asking stays cheap long after the weights are gone.
// Constants: they bound the server's memory, whoever the client.
const (
	retainedJobs        = 1024
	retainedResultBytes = 256 << 20
	pastJobs            = 1 << 16
)

// writeOutcome sends a finished job's terminal frames: the shutdown
// handoff when the server is draining, or msgResult then msgState. Either
// way the epoch boundary the job ended on is one checkpoint, encoded from
// the response's tensors straight onto the connection. clientStopped marks
// a cancel that came from this client rather than from a shutdown.
func (s *Server) writeOutcome(conn *deadlineConn, kind string, clientStopped bool, resp *TrainResponse) error {
	out := newFrameStream(conn)
	final := resp.Checkpoint(kind)
	if resp.Cancelled && !clientStopped && s.isShuttingDown() {
		// Graceful-shutdown handoff: the epoch-aligned checkpoint followed
		// by the retryable shutdown error, so the client resumes on another
		// server without losing an epoch.
		out.checkpoint(msgCheckpoint, final)
		if err := out.flush(); err != nil {
			return err
		}
		return fmt.Errorf("cloudsim: job stopped at epoch %d: %w", resp.CompletedEpochs, ErrServerShutdown)
	}
	out.json(msgResult, resultMeta{Metrics: resp.Metrics, Cancelled: resp.Cancelled})
	out.checkpoint(msgState, final)
	return out.flush()
}

// stream writes a job's output to conn as cur reaches it, then the
// terminal frames. Every batch cur takes is written here, on the
// connection's own goroutine, with no job lock held: progress frames up to
// the batch's checkpoint, the checkpoint, then the rest. Meanwhile a
// watcher reads the connection: a msgCancel stops the job at its next
// epoch boundary, and a dead connection ends the stream with io.EOF,
// detaching cur: the job runs on for a later attach. A finished job wins
// over a dead connection: its result is written (and fails on its own). A
// stream whose write failed, or whose cursor a later attach superseded,
// sends nothing more but the terminal frames, if it can.
func (s *Server) stream(conn *deadlineConn, job *schedJob, cur *cursor) error {
	// The training phase has no frame cadence the server can bound: a
	// silent client is normal. Request-phase deadlines come off, and so
	// does the request's frame buffer: the largest upload frame would
	// otherwise stay pinned for the whole job, to read cancel frames.
	conn.setReadTimeout(0)
	conn.frames.buf = nil
	conn.streaming = true

	var clientStopped atomic.Bool
	go func() {
		for {
			kind, _, err := conn.readFrame()
			if err != nil {
				if !job.hangUp(cur) {
					// Nothing more can be sent; closing now fails a frame
					// the stream may be stuck in, instead of leaving it to
					// the write deadline.
					_ = conn.Close()
				}
				return
			}
			if kind == msgCancel {
				clientStopped.Store(true)
				_ = s.sched.Cancel(job.id)
			}
		}
	}()

	var werr error // a failed cursor takes no further batch
	for {
		b, ok := job.next(cur)
		if !ok {
			break
		}
		werr = writeBatch(conn, b)
		job.sent(cur, b, werr)
	}
	resp, jerr := job.result()
	switch {
	case resp == nil && jerr == nil:
		return io.EOF // the connection died before the job finished
	case werr != nil:
		return werr
	case jerr != nil:
		return jerr
	}
	return s.writeOutcome(conn, job.req.Spec.Kind, clientStopped.Load(), resp)
}

// writeBatch writes one batch of a job stream: the progress frames up to
// its checkpoint, the checkpoint, then the rest.
func writeBatch(w io.Writer, b batch) error {
	if err := writeProgress(w, b.stats[:b.pre]); err != nil {
		return err
	}
	if b.ckpt != nil {
		if err := writeFrame(w, msgCheckpoint, b.ckpt.payload); err != nil {
			return err
		}
	}
	return writeProgress(w, b.stats[b.pre:])
}

func writeProgress(w io.Writer, ms []EpochMetric) error {
	for _, m := range ms {
		js, err := json.Marshal(m)
		if err != nil {
			return err
		}
		if err := writeFrame(w, msgProgress, js); err != nil {
			return err
		}
	}
	return nil
}

// submit admits the job with a cursor live from admission and answers
// with its ID. The connection may then attach to that job and is streamed
// through the same cursor, so the pinned frame cadence (one progress frame
// per epoch when Hyper.Stream, one checkpoint frame per CheckpointEvery
// epochs but the run's last) holds exactly: there is no replay window to
// coalesce in. Any other end of the conversation only detaches the
// cursor; the job runs whether or not anyone is connected.
func (s *Server) submit(conn *deadlineConn, req *TrainRequest) (err error) {
	// A provider-view capture that panics on malformed geometry must
	// become a classified wire error, not a torn connection.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cloudsim: job crashed: %v: %w", r, ErrJobPanic)
		}
	}()
	cur := newCursor(req.Hyper.Stream)
	job, err := s.sched.Submit(req, cur)
	if err != nil {
		return err
	}
	js, err := json.Marshal(jobRef{JobID: job.id})
	if err == nil {
		err = writeFrame(conn, msgSubmitAck, js)
	}
	var kind byte
	var payload []byte
	if err == nil {
		kind, payload, err = conn.readFrame()
	}
	var areq AttachRequest
	if err == nil && (kind != msgAttach || json.Unmarshal(payload, &areq) != nil || areq.JobID != job.id) {
		err = fmt.Errorf("cloudsim: a submit is followed only by an attach to its job %q: %w", job.id, ErrBadRequest)
	}
	if err != nil {
		job.hangUp(cur)
		return err
	}
	return s.stream(conn, job, cur)
}

// jobStatus answers a control frame naming a scheduled job — a msgPoll, or
// a cancel-by-ID msgCancel, which cancels the job first — with the job's
// status (after the cancel: the post-cancel observation).
func (s *Server) jobStatus(conn *deadlineConn, payload []byte, cancel bool) error {
	var ref jobRef
	if err := json.Unmarshal(payload, &ref); err != nil {
		return badFrame("job reference", err)
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

// attach streams a scheduled job's output to this connection from a
// cursor at FromEpoch: buffered epochs past it first, then live ones, then
// the terminal result — each exactly once, being one read position over
// one log. The latest attach wins: an earlier one still connected stops
// streaming and gets only the terminal frames. The client disconnecting
// DETACHES the stream without cancelling the job — disconnect survival is
// the point of the submit path — and its output keeps buffering for the
// next attach; an explicit msgCancel on this connection cancels the job.
func (s *Server) attach(conn *deadlineConn, areq AttachRequest) error {
	job, err := s.sched.Job(areq.JobID)
	if err != nil {
		return err
	}
	cur := newCursor(true)
	job.attach(areq.FromEpoch, cur)
	return s.stream(conn, job, cur)
}
