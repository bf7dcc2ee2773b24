package cloudsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"amalgam/internal/serialize"
)

// StreamHandlers receives server-pushed frames during TrainContext or
// AttachContext. Both hooks are optional and are called from the reading
// goroutine in arrival order.
type StreamHandlers struct {
	// Progress receives one EpochMetric per completed epoch when
	// Hyper.Stream is set (always on an attach stream).
	Progress func(EpochMetric)
	// Checkpoint receives mid-job snapshots (weights, job kind, momentum
	// state, RNG cursors) when Hyper.CheckpointEvery > 0 — ready to hand
	// to serialize.SaveTrainCheckpoint unchanged. The epoch a run ends on
	// has no checkpoint frame (the response is that snapshot):
	// TrainContext hands the hook the response in its place. With Into
	// set, ck is Into: it aliases the destination's tensors and holds this
	// boundary only until the next frame lands.
	Checkpoint func(ck *serialize.TrainCheckpoint)
	// Into, when set, is where every epoch boundary the stream carries
	// lands — each checkpoint and the final state: the weights in
	// Into.State's own tensors (a job's model, say), the optimiser
	// buffers in Into.OptState's, a set allocated on the first checkpoint
	// and reused after that. A frame is checked whole before a byte of it
	// is written, so one that does not fit fails the stream and leaves
	// Into at the last boundary that did. The response's State, OptState
	// and RNG are then Into's. Into also sizes the stream's frame buffer:
	// a boundary no larger than what Into will hold is read into one
	// buffer of its exact size (frameReserve).
	Into *serialize.TrainCheckpoint

	// optBuffers is how many optimiser buffers per weight the stream's
	// boundaries carry, where the caller knows the job's recipe
	// (TrainContextNet); 0 leaves the reserve at what Into holds now.
	optBuffers int
}

// boundarySlack covers what a reserve does not count: the job kind, the
// optimiser's scalars and Adam's buffer-name prefixes, the RNG cursors.
const boundarySlack = 64 << 10

// frameReserve is the largest epoch boundary h.Into will hold: its weights
// and its optimiser buffers — before the first boundary allocates them,
// optBuffers per weight — plus boundarySlack. It only bounds what a frame
// header is trusted with (frameReader.reserve): a frame that claims more
// still grows as its bytes arrive.
func (h StreamHandlers) frameReserve() int {
	n := serialize.TrainCheckpointSize(h.Into)
	if h.Into.OptState.NumBuffers() == 0 {
		n += h.optBuffers * serialize.StateDictSize(h.Into.State)
	}
	return n + boundarySlack
}

// boundary decodes an epoch-boundary frame: into h.Into when set, into
// fresh tensors otherwise.
func (h StreamHandlers) boundary(payload []byte) (*serialize.TrainCheckpoint, error) {
	if h.Into == nil {
		return serialize.ReadTrainCheckpoint(bytes.NewReader(payload))
	}
	return h.Into, serialize.ReadTrainCheckpointInto(payload, h.Into)
}

// NetConfig tunes the client transport.
type NetConfig struct {
	// DialTimeout bounds the TCP dial. 0 means unbounded (the ctx still
	// applies).
	DialTimeout time.Duration
	// FrameTimeout bounds each frame-level read/write. It must exceed the
	// slowest expected epoch: during training the server is silent
	// between progress frames, so a too-tight bound kills healthy jobs.
	// 0 disables per-frame deadlines.
	FrameTimeout time.Duration
}

// cancelDrainTimeout bounds how long a cancelled client waits for the
// server to flush its final (partial) result and state.
var cancelDrainTimeout = 30 * time.Second

// Train submits a job to a remote service and waits for the result — the
// user-side upload/train/download loop of Fig. 1.
func Train(addr string, req *TrainRequest) (*TrainResponse, error) {
	return TrainContext(context.Background(), addr, req, StreamHandlers{})
}

// TrainContext submits a job and streams server-pushed progress and
// checkpoint frames into h while waiting for the result. Cancelling ctx
// sends msgCancel; the server stops at the next epoch boundary and returns
// the epoch-aligned partial state, which TrainContext still delivers (with
// resp.Cancelled set) so the caller can checkpoint it — callers decide
// whether a cancelled job is an error.
func TrainContext(ctx context.Context, addr string, req *TrainRequest, h StreamHandlers) (*TrainResponse, error) {
	return TrainContextNet(ctx, addr, req, h, NetConfig{})
}

// dialFrames opens the framed transport to a service.
func dialFrames(ctx context.Context, addr string, net_ NetConfig) (*deadlineConn, error) {
	d := net.Dialer{Timeout: net_.DialTimeout}
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cloudsim: dial: %w", err)
	}
	return newDeadlineConn(raw, net_.FrameTimeout, net_.FrameTimeout), nil
}

// frame is one frame held in memory: kind and payload.
type frame struct {
	kind    byte
	payload []byte
}

// writeRequest puts a full request on the wire, ending with terminator
// (msgDone: train on this connection; msgSubmit: enqueue for later). Data
// and state frames are encoded from their tensors straight onto the
// connection: the server reads one while the client encodes the next. A
// request with an initial state ships it as the checkpoint it starts from
// — start epoch, weights, optimiser state, dropout cursors — in one
// msgInit frame.
func writeRequest(w io.Writer, req *TrainRequest, terminator byte) error {
	specPayload, err := encodeSpecFrame(req.Spec)
	if err != nil {
		return err
	}
	s := newFrameStream(w)
	s.bytes(msgSpec, specPayload)
	s.json(msgHyper, req.Hyper)
	s.ints(msgLabels, req.Labels)
	if req.Images != nil {
		s.tensor(msgImages, req.Images)
	}
	if len(req.Samples) > 0 {
		s.ints(msgTokens, flattenSamples(req.Samples))
	}
	if req.EvalImages != nil {
		s.tensor(msgEvalImages, req.EvalImages)
		s.ints(msgEvalLabels, req.EvalLabels)
	}
	if len(req.EvalSamples) > 0 {
		s.ints(msgEvalTokens, flattenSamples(req.EvalSamples))
		// LM eval splits are unlabelled windows; only classification jobs
		// have eval labels to ship.
		if len(req.EvalLabels) > 0 {
			s.ints(msgEvalLabels, req.EvalLabels)
		}
	}
	if req.InitState != nil {
		s.checkpoint(msgInit, &serialize.TrainCheckpoint{
			Epoch: req.Hyper.StartEpoch, Kind: req.Spec.Kind,
			State: req.InitState, OptState: req.InitOptState, RNG: req.InitRNG,
		})
	}
	s.bytes(terminator, nil)
	return s.flush()
}

// sendRequest uploads req. A server that refuses an early frame answers
// and may stop reading, failing the rest of the upload with a reset that
// says nothing of why: on a transport error the refusal, when one is there
// to be read, is what sendRequest reports — fatal, not retried.
func sendRequest(conn *deadlineConn, req *TrainRequest, terminator byte) error {
	werr := writeRequest(conn, req, terminator)
	if werr == nil || !IsTransient(werr) || errors.Is(werr, os.ErrDeadlineExceeded) {
		return werr
	}
	conn.setHardReadDeadline(time.Now().Add(cancelDrainTimeout))
	if kind, payload, err := conn.readFrame(); err == nil && kind == msgError {
		return decodeErrorFrame(payload)
	}
	return werr
}

// decodeErrorFrame maps a msgError payload (errCode byte + message) back
// to an error wrapping the code's sentinel.
func decodeErrorFrame(payload []byte) error {
	code, msg := errCodeGeneric, payload
	if len(payload) > 0 {
		code, msg = payload[0], payload[1:]
	}
	if sentinel := sentinelFor(code); sentinel != nil {
		return fmt.Errorf("cloudsim: server: %s: %w", msg, sentinel)
	}
	return fmt.Errorf("cloudsim: server: %s", msg) //amalgam:allow errtaxcheck errCodeGeneric frames carry no sentinel to map onto
}

// readJobStream consumes a server's job stream — progress, checkpoint,
// result, final state — until the terminating msgState (or msgError)
// frame. The request is fully on the wire by now and this goroutine only
// reads, so the cancel watcher it starts is the connection's sole writer:
// cancelling ctx sends msgCancel and bounds how long a wedged server may
// take to flush the partial result. With a destination, the frame buffer
// is reserved for its boundaries up front: the first one is read into a
// buffer of its exact size, not grown to it through doublings.
func readJobStream(ctx context.Context, conn *deadlineConn, h StreamHandlers) (*TrainResponse, error) {
	if h.Into != nil {
		conn.frames.reserve = h.frameReserve()
	}
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			_ = writeFrame(conn, msgCancel, nil)
			conn.setHardReadDeadline(time.Now().Add(cancelDrainTimeout))
		case <-watcherDone:
		}
	}()

	resp := &TrainResponse{}
	for {
		kind, payload, err := conn.readFrame()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		switch kind {
		case msgProgress:
			var m EpochMetric
			if err := json.Unmarshal(payload, &m); err != nil {
				return nil, err
			}
			if h.Progress != nil {
				h.Progress(m)
			}
		case msgCheckpoint:
			if h.Checkpoint == nil && h.Into == nil {
				// Nobody keeps it: checked, never materialised.
				if err := serialize.CheckTrainCheckpoint(payload); err != nil {
					return nil, fmt.Errorf("cloudsim: bad checkpoint frame: %w", err)
				}
				continue
			}
			ck, err := h.boundary(payload)
			if err != nil {
				return nil, fmt.Errorf("cloudsim: bad checkpoint frame: %w", err)
			}
			if h.Checkpoint != nil {
				h.Checkpoint(ck)
			}
		case msgResult:
			var meta resultMeta
			if err := json.Unmarshal(payload, &meta); err != nil {
				return nil, err
			}
			resp.Metrics = meta.Metrics
			resp.Cancelled = meta.Cancelled
		case msgState:
			final, err := h.boundary(payload)
			if err != nil {
				return nil, fmt.Errorf("cloudsim: bad final state frame: %w", err)
			}
			resp.State, resp.OptState, resp.RNG = final.State, final.OptState, final.RNG
			resp.CompletedEpochs = final.Epoch
			return resp, nil
		case msgError:
			return nil, decodeErrorFrame(payload)
		default:
			return nil, fmt.Errorf("cloudsim: unexpected response type %d: %w", kind, ErrUnknownFrame)
		}
	}
}

// TrainContextNet is TrainContext with explicit transport bounds (dial
// and per-frame deadlines) — the building block of RemoteTrainer's retry
// path, where a hung connection must fail fast enough to be retried.
func TrainContextNet(ctx context.Context, addr string, req *TrainRequest, h StreamHandlers, net_ NetConfig) (*TrainResponse, error) {
	conn, err := dialFrames(ctx, addr, net_)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := sendRequest(conn, req, msgDone); err != nil {
		return nil, err
	}
	h.optBuffers = req.Hyper.optBuffers()
	resp, err := readJobStream(ctx, conn, h)
	if every := req.Hyper.CheckpointEvery; err == nil && h.Checkpoint != nil &&
		every > 0 && resp.CompletedEpochs == req.Hyper.Epochs && req.Hyper.Epochs%every == 0 {
		// The run ended on the checkpoint cadence and the server ships that
		// boundary once, as the response: the hook gets it from there.
		h.Checkpoint(resp.Checkpoint(req.Spec.Kind))
	}
	return resp, err
}

// SubmitContext submits a job and returns its durable job ID without
// waiting for training: the scheduler queues the job under its
// spec's tenant and the connection ends at the ack. Retrieve output later
// with PollContext/AttachContext on fresh connections. Admission rejects
// are typed and transient (ErrQueueFull, ErrTenantQuota) — backpressure
// worth retrying, unlike protocol failures.
func SubmitContext(ctx context.Context, addr string, req *TrainRequest, net_ NetConfig) (string, error) {
	conn, err := dialFrames(ctx, addr, net_)
	if err != nil {
		return "", err
	}
	defer conn.Close()

	if err := sendRequest(conn, req, msgSubmit); err != nil {
		return "", err
	}
	kind, payload, err := conn.readFrame()
	if err != nil {
		return "", err
	}
	switch kind {
	case msgSubmitAck:
		var ack submitAck
		if err := json.Unmarshal(payload, &ack); err != nil {
			return "", fmt.Errorf("cloudsim: bad submit ack: %w", err)
		}
		if ack.JobID == "" {
			return "", fmt.Errorf("cloudsim: submit ack carries no job ID: %w", ErrUnknownFrame)
		}
		return ack.JobID, nil
	case msgError:
		return "", decodeErrorFrame(payload)
	default:
		return "", fmt.Errorf("cloudsim: unexpected response type %d: %w", kind, ErrUnknownFrame)
	}
}

// PollContext asks a service for one job's status.
func PollContext(ctx context.Context, addr, jobID string, net_ NetConfig) (JobStatus, error) {
	return pollFrame(ctx, addr, jobID, msgPoll, net_)
}

// CancelJobContext cancels a scheduled job by ID: a running job stops at
// its next epoch boundary (its epoch-aligned result stays attachable), a
// queued job terminates cancelled without training. The returned status
// is the post-cancel observation.
func CancelJobContext(ctx context.Context, addr, jobID string, net_ NetConfig) (JobStatus, error) {
	return pollFrame(ctx, addr, jobID, msgCancel, net_)
}

func pollFrame(ctx context.Context, addr, jobID string, kind byte, net_ NetConfig) (JobStatus, error) {
	conn, err := dialFrames(ctx, addr, net_)
	if err != nil {
		return JobStatus{}, err
	}
	defer conn.Close()
	js, err := json.Marshal(jobRef{JobID: jobID})
	if err != nil {
		return JobStatus{}, err
	}
	if err := writeFrame(conn, kind, js); err != nil {
		return JobStatus{}, err
	}
	k, payload, err := conn.readFrame()
	if err != nil {
		return JobStatus{}, err
	}
	switch k {
	case msgJobStatus:
		var st JobStatus
		if err := json.Unmarshal(payload, &st); err != nil {
			return JobStatus{}, fmt.Errorf("cloudsim: bad job status: %w", err)
		}
		return st, nil
	case msgError:
		return JobStatus{}, decodeErrorFrame(payload)
	default:
		return JobStatus{}, fmt.Errorf("cloudsim: unexpected response type %d: %w", k, ErrUnknownFrame)
	}
}

// AttachContext attaches to a scheduled job and waits for its result,
// streaming buffered-then-live progress and checkpoint frames into h.
// Buffered epochs at or before areq.FromEpoch are skipped — pass the last
// epoch already seen so a retried attach re-delivers nothing. Cancelling
// ctx sends msgCancel, which cancels the JOB (matching TrainContext);
// dropping the connection without it merely detaches, leaving the job
// running for a later attach.
func AttachContext(ctx context.Context, addr string, areq AttachRequest, h StreamHandlers, net_ NetConfig) (*TrainResponse, error) {
	conn, err := dialFrames(ctx, addr, net_)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	js, err := json.Marshal(areq)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, msgAttach, js); err != nil {
		return nil, err
	}
	return readJobStream(ctx, conn, h)
}
