package cloudsim

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// Wire protocol v5. Every message is a frame: a 1-byte kind, a uint32
// little-endian payload length, and the payload. A connection carries one
// conversation, chosen by its first frame:
//
//	submit   spec, hyper, data…, [msgInit] then msgSubmit: answered by
//	         msgSubmitAck carrying the job's ID. The job runs whether or
//	         not anyone is connected. The same connection may then send
//	         msgAttach for that job: the job stream below, from the
//	         cursor made live at admission, so nothing is replayed.
//	attach   msgAttach: buffered-then-live job stream of a submitted job.
//	         msgCancel cancels the job; disconnecting merely detaches.
//	control  msgPoll, or msgCancel with a job ID: answered by
//	         msgJobStatus, repeatable.
//	infer    msgInfer, answered by msgInferResult, repeatable.
//
// A job stream is: msgProgress per epoch (on the submitting connection
// when Hyper.Stream; always on a later attach), msgCheckpoint every Hyper.CheckpointEvery epochs EXCEPT the
// run's last (the terminal frames that follow are that snapshot), then
// msgResult and msgState. A server draining for shutdown ends the stream
// instead with an epoch-aligned msgCheckpoint and a retryable
// ErrServerShutdown error frame. Any failure is a msgError frame: one
// errCode byte, then the message.
//
// An epoch boundary — epoch number, weights, optimiser state, dropout
// cursors — crosses the wire one way, as serialize.WriteTrainCheckpoint
// (AMC3) bytes: the request's starting state (msgInit), every mid-job
// snapshot (msgCheckpoint) and the job's final state (msgState, or
// msgCheckpoint in the shutdown handoff) are one encoding, the one a
// checkpoint file holds.
//
// A checkpoint is cut ONCE, on the executor, inside TrainLoop's
// checkpoint callback at the epoch boundary: the live weights, optimiser
// buffers and RNG cursors are encoded there into one exactly-sized
// msgCheckpoint payload in a buffer the job owns (ckptBuf), and from then
// on only those bytes travel — parked on the job for a later attach,
// written by every attached connection that reaches them — never re-encoded, never
// aliasing a tensor the next epoch is already changing, immutable while a
// connection may still write them (a boundary the live client has already
// been sent is cut into the same buffer). Every other large frame (the
// request's data and starting state, the terminal state frame) is not
// staged at all: writeFrameFrom encodes it from its tensors straight onto
// the buffered connection. A job's output is a log — every epoch's
// progress and the parked checkpoint — and an attached connection is a
// cursor over it: the connection's own handler takes what lies past its
// cursor and writes it with no job lock held, so a stalled client stalls
// no poll, cancel or view. The executor only appends; it waits for the
// live cursor in one place, before it parks a checkpoint in place of one
// that cursor has not yet sent: the next epoch trains while the last
// one's frames drain, and a client slower than that holds its job one
// epoch ahead of it. Progress never holds the executor.
const (
	msgSpec        byte = 1  // client→server: protocolVersion byte + ModelSpec JSON
	msgHyper       byte = 2  // client→server: Hyper JSON
	msgLabels      byte = 3  // client→server: serialize int slice
	msgImages      byte = 4  // client→server: serialize tensor [N, C, H, W]
	msgInit        byte = 5  // client→server: serialize.WriteTrainCheckpoint bytes, the state training starts from
	msgResult      byte = 7  // server→client: resultMeta JSON
	msgState       byte = 8  // server→client: serialize.WriteTrainCheckpoint bytes, the final state; ends the job stream
	msgError       byte = 9  // server→client: errCode byte + message
	msgProgress    byte = 10 // server→client: per-epoch EpochMetric JSON
	msgCancel      byte = 11 // client→server: stop the job (empty: this connection's; jobRef JSON: by ID)
	msgCheckpoint  byte = 12 // server→client: serialize.WriteTrainCheckpoint bytes, a mid-job snapshot
	msgTokens      byte = 13 // client→server: flattened token samples
	msgEvalImages  byte = 14
	msgEvalLabels  byte = 15
	msgEvalTokens  byte = 16
	msgSubmit      byte = 19 // client→server: end of request, admit and ack
	msgSubmitAck   byte = 20 // server→client: jobRef JSON naming the admitted job
	msgPoll        byte = 21 // client→server: jobRef JSON, answered by msgJobStatus
	msgJobStatus   byte = 22 // server→client: JobStatus JSON
	msgAttach      byte = 23 // client→server: AttachRequest JSON, answered by a job stream
	msgInfer       byte = 24 // client→server: inferHeader JSON + body, answered by msgInferResult
	msgInferResult byte = 25 // server→client: inferResult JSON
)

// protocolVersion is the one version this binary speaks, carried as the
// first byte of every spec frame; any other value is ErrProtocolVersion.
const protocolVersion byte = 5

// maxFrame bounds a single frame's payload. It is a variable only so the
// protocol tests can lower it without allocating gigabyte payloads; both
// sides of a connection must agree on it.
var maxFrame = 1 << 30

// frameAllocChunk bounds how much a frameReader allocates on the strength
// of a header alone: payloads over it (and over anything the reader has
// held before) grow incrementally as bytes actually arrive, so a forged
// header cannot reserve a gigabyte before sending a single byte.
const frameAllocChunk = 1 << 20

// writeFrame emits one frame, failing fast on payloads the peer would
// reject. Without this check an oversized state dict had its length
// silently truncated to uint32 (or accepted here and refused by readFrame),
// corrupting the stream mid-job; now the sender gets a clear error and
// writes nothing.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	if err := writeFrameHeader(w, kind, len(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func writeFrameHeader(w io.Writer, kind byte, size int) error {
	if size > maxFrame {
		return fmt.Errorf("cloudsim: frame type %d payload of %d bytes exceeds the %d-byte frame limit: %w",
			kind, size, maxFrame, ErrFrameTooLarge)
	}
	hdr := [5]byte{kind}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(size))
	_, err := w.Write(hdr[:])
	return err
}

// frameEOF classifies an end-of-stream hit while a frame's header had
// promised more bytes: that is a truncated frame (ErrUnexpectedEOF), not
// a clean end-of-stream.
func frameEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// frameReader reads one connection's frames into a buffer it keeps: the
// payload next returns is valid only until the following call, which is
// all any handler needs (each decodes or copies before it reads on), and
// a stream of same-sized checkpoint frames costs one buffer, not one
// each. A header alone is trusted up to frameAllocChunk or reserve,
// whichever is larger: a frame within that is read into one buffer of its
// exact size. Capacity beyond it is only ever earned by bytes that
// arrived.
type frameReader struct {
	r   io.Reader
	hdr [5]byte
	buf []byte
	// reserve is the largest frame the reader's owner expects and would
	// hold anyway (readJobStream: an epoch boundary of its destination).
	reserve int
}

func (fr *frameReader) next() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[1:])
	if uint64(n) > uint64(maxFrame) {
		return 0, nil, fmt.Errorf("cloudsim: frame of %d bytes rejected: %w", n, ErrFrameTooLarge)
	}
	size := int(n)
	if first := min(size, max(frameAllocChunk, fr.reserve)); cap(fr.buf) < first {
		fr.buf = make([]byte, first)
	}
	for got := 0; got < size; {
		if got == cap(fr.buf) {
			// Larger than anything held so far: at most double, and only
			// now that the buffer is full of bytes that did arrive.
			grown := make([]byte, min(size, 2*got))
			copy(grown, fr.buf[:got])
			fr.buf = grown
		}
		end := min(size, cap(fr.buf))
		if _, err := io.ReadFull(fr.r, fr.buf[got:end]); err != nil {
			return 0, nil, frameEOF(err)
		}
		got = end
	}
	return fr.hdr[0], fr.buf[:size], nil
}

// writeFrameFrom emits one frame with no staging copy: the header promises
// size — the exact serialize …Size of what write encodes — and the
// encoder's output follows it straight onto w. Any other number of bytes
// is an error: the excess is never forwarded, and the peer reads a
// truncated stream whose earlier frames stand.
func writeFrameFrom(w io.Writer, kind byte, size int, write func(io.Writer) error) error {
	if err := writeFrameHeader(w, kind, size); err != nil {
		return err
	}
	body := exactWriter{w: w, left: size}
	if err := write(&body); err != nil {
		return err
	}
	if body.left != 0 {
		return fmt.Errorf("cloudsim: frame type %d encoder stopped %d bytes short of the %d its header promised: %w",
			kind, body.left, size, io.ErrShortWrite)
	}
	return nil
}

// exactWriter forwards at most left bytes.
type exactWriter struct {
	w    io.Writer
	left int
}

func (e *exactWriter) Write(p []byte) (int, error) {
	if e.left -= len(p); e.left < 0 {
		return 0, fmt.Errorf("cloudsim: frame encoder overran its promised size by %d bytes: %w", -e.left, io.ErrShortWrite)
	}
	return e.w.Write(p)
}

// frameStream writes a run of frames (a request, a job's terminal frames)
// through one buffer: headers and small entries do not each become a
// packet, tensor-sized writes still pass through uncopied. The first error
// sticks; flush reports it.
type frameStream struct {
	w   *bufio.Writer
	err error
}

func newFrameStream(w io.Writer) *frameStream {
	return &frameStream{w: bufio.NewWriterSize(w, 64<<10)}
}

func (s *frameStream) bytes(kind byte, payload []byte) {
	if s.err == nil {
		s.err = writeFrame(s.w, kind, payload)
	}
}

func (s *frameStream) from(kind byte, size int, write func(io.Writer) error) {
	if s.err == nil {
		s.err = writeFrameFrom(s.w, kind, size, write)
	}
}

func (s *frameStream) json(kind byte, v any) {
	js, err := json.Marshal(v)
	if s.err == nil {
		s.err = err
	}
	s.bytes(kind, js)
}

func (s *frameStream) ints(kind byte, v []int) {
	s.from(kind, serialize.IntSliceSize(v), func(w io.Writer) error { return serialize.WriteIntSlice(w, v) })
}
func (s *frameStream) tensor(kind byte, t *tensor.Tensor) {
	s.from(kind, serialize.TensorSize(t), func(w io.Writer) error { return serialize.WriteTensor(w, t) })
}
func (s *frameStream) checkpoint(kind byte, ck *serialize.TrainCheckpoint) {
	s.from(kind, serialize.TrainCheckpointSize(ck), func(w io.Writer) error { return serialize.WriteTrainCheckpoint(w, ck) })
}

func (s *frameStream) flush() error {
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// encodeSpecFrame builds a spec payload: version byte + JSON.
func encodeSpecFrame(spec ModelSpec) ([]byte, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return append([]byte{protocolVersion}, js...), nil
}

// decodeSpecFrame refuses any payload that does not open with this
// binary's version byte — including the bare JSON ('{') of a v1 peer.
func decodeSpecFrame(payload []byte) (ModelSpec, error) {
	var spec ModelSpec
	if len(payload) == 0 {
		return spec, fmt.Errorf("cloudsim: empty spec frame: %w", ErrBadRequest)
	}
	if payload[0] != protocolVersion {
		return spec, fmt.Errorf("cloudsim: spec frame opens with version byte %#x, this binary speaks v%d: %w",
			payload[0], protocolVersion, ErrProtocolVersion)
	}
	if err := json.Unmarshal(payload[1:], &spec); err != nil {
		return spec, fmt.Errorf("cloudsim: spec frame JSON: %v: %w", err, ErrBadRequest)
	}
	return spec, nil
}

// writeErrorFrame reports err to the peer, coded so its sentinel survives
// the wire.
func writeErrorFrame(w io.Writer, err error) error {
	return writeFrame(w, msgError, append([]byte{errCodeOf(err)}, err.Error()...))
}

// resultMeta is the msgResult JSON body.
type resultMeta struct {
	Metrics   []EpochMetric `json:"metrics"`
	Cancelled bool          `json:"cancelled,omitempty"`
}

// jobRef names a scheduled job: the msgSubmitAck and msgPoll JSON body,
// and the payload of a cancel-by-ID msgCancel control frame.
type jobRef struct {
	JobID string `json:"job_id"`
}

// AttachRequest is the msgAttach JSON body: which job to attach to and
// which of its buffered output to replay. FromEpoch is the last epoch the
// client has already seen — the server replays only newer buffered
// progress (and a newer parked checkpoint), which is what makes a retried
// attach deliver each epoch's stats exactly once.
type AttachRequest struct {
	JobID     string `json:"job_id"`
	FromEpoch int    `json:"from_epoch,omitempty"`
}

// JobStatus is the msgJobStatus JSON body: a point-in-time observation of
// one scheduled job.
type JobStatus struct {
	JobID  string `json:"job_id"`
	Tenant string `json:"tenant,omitempty"`
	// State is the job state machine's current node: "queued", "running",
	// "done", "cancelled", or "failed".
	State string `json:"state"`
	// CompletedEpochs counts fully finished epochs so far (live while
	// running, final afterwards).
	CompletedEpochs int `json:"completed_epochs"`
	// QueuePos is the 1-based position in the job's tenant queue while
	// queued; 0 otherwise.
	QueuePos int `json:"queue_pos,omitempty"`
	// Err carries the failure message of a failed job.
	Err string `json:"error,omitempty"`
}

// flattenSamples encodes [][]int token samples row-major for the wire; the
// receiver reshapes with the spec's aug_len.
func flattenSamples(samples [][]int) []int {
	if len(samples) == 0 {
		return nil
	}
	out := make([]int, 0, len(samples)*len(samples[0]))
	for _, s := range samples {
		out = append(out, s...)
	}
	return out
}

func reshapeSamples(flat []int, seqLen int) ([][]int, error) {
	if seqLen <= 0 {
		return nil, fmt.Errorf("cloudsim: token frame needs a positive aug_len in the spec, got %d: %w", seqLen, ErrBadRequest)
	}
	if len(flat)%seqLen != 0 {
		return nil, fmt.Errorf("cloudsim: %d tokens not divisible by sequence length %d: %w", len(flat), seqLen, ErrBadRequest)
	}
	out := make([][]int, len(flat)/seqLen)
	for i := range out {
		out[i] = flat[i*seqLen : (i+1)*seqLen]
	}
	return out, nil
}

// deadlineConn wraps a net.Conn and refreshes I/O deadlines per
// Read/Write, so one stalled frame surfaces as os.ErrDeadlineExceeded
// instead of hanging the peer forever. Zero timeouts disable the
// corresponding deadline. A hard read deadline (cancel drain) caps the
// per-read refresh so the refresh cannot extend past it. Its frames are
// read through one reused buffer (see frameReader) by whichever single
// goroutine is the connection's reader at the time.
type deadlineConn struct {
	net.Conn
	frames frameReader
	// streaming is set by the server once the request phase is over and a
	// job stream has begun: an error from then on refuses no upload.
	streaming bool

	mu           sync.Mutex
	readTimeout  time.Duration
	writeTimeout time.Duration
	hardRead     time.Time
}

func newDeadlineConn(c net.Conn, readTimeout, writeTimeout time.Duration) *deadlineConn {
	dc := &deadlineConn{Conn: c, readTimeout: readTimeout, writeTimeout: writeTimeout}
	dc.frames.r = dc
	return dc
}

// readFrame reads the connection's next frame; the payload is valid until
// the following call.
func (c *deadlineConn) readFrame() (byte, []byte, error) { return c.frames.next() }

// setReadTimeout changes the per-read refresh; 0 disables it (the server
// does this for the training phase, where a silent client is normal).
func (c *deadlineConn) setReadTimeout(d time.Duration) {
	c.mu.Lock()
	c.readTimeout = d
	c.mu.Unlock()
	if d == 0 {
		_ = c.Conn.SetReadDeadline(time.Time{})
	}
}

// setHardReadDeadline bounds ALL further reads, interrupting one already
// in flight — the cancel-drain bound.
func (c *deadlineConn) setHardReadDeadline(t time.Time) {
	c.mu.Lock()
	c.hardRead = t
	c.mu.Unlock()
	_ = c.Conn.SetReadDeadline(t)
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	rt, hard := c.readTimeout, c.hardRead
	c.mu.Unlock()
	var d time.Time
	if rt > 0 {
		d = time.Now().Add(rt)
	}
	if !hard.IsZero() && (d.IsZero() || hard.Before(d)) {
		d = hard
	}
	if !d.IsZero() {
		if err := c.Conn.SetReadDeadline(d); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	wt := c.writeTimeout
	c.mu.Unlock()
	if wt > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(wt)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}
