package cloudsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"amalgam/internal/faultnet"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// These tests pin the rule that a remote job's state exists once per side
// and crosses each boundary once: a refusal arrives as the refusal, large
// frames are streamed from their tensors, checkpoint buffers go back to
// their job, finished jobs keep only their response.

// wideTextJob is textJob with embedding tables of stateMB megabytes in
// all, built, and its state shipped as the request's initial state.
func wideTextJob(t *testing.T, stateMB int) *TrainRequest {
	t.Helper()
	req := textJob(t)
	req.Spec.EmbedDim = 16
	req.Spec.Vocab = stateMB << 20 / (4 * req.Spec.EmbedDim * (req.Spec.SubNets + 1))
	model, err := BuildModel(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	req.InitState = nn.StateDict(model)
	return req
}

// skewListener hands the server connections on which the client's version
// byte — the sixth byte of a train conversation: a 5-byte header, then the
// spec payload's first — reads as some other version's.
type skewListener struct {
	net.Listener
	dials atomic.Int64
}

func (l *skewListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.dials.Add(1)
	return &skewConn{Conn: c}, nil
}

type skewConn struct {
	net.Conn
	read int
}

func (c *skewConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.read <= 5 && 5 < c.read+n {
		p[5-c.read] ^= 0x40
	}
	c.read += n
	return n, err
}

func (c *skewConn) CloseWrite() error {
	if hc, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return nil
}

// TestRefusedUploadReportsTheRefusal: a server that refuses a request on
// its first frame used to close with most of the upload unread; the kernel
// answered the rest with a reset, the client reported "connection reset" —
// transient — and a retry policy re-uploaded 8 MB that could never be
// accepted. The refusal must arrive as itself: fatal, after one dial.
func TestRefusedUploadReportsTheRefusal(t *testing.T) {
	req := wideTextJob(t, 8)
	// refused runs the job under a minimal retry policy and requires the
	// fatal refusal after one attempt.
	refused := func(t *testing.T, addr string, dials func() int64) {
		t.Helper()
		var err error
		attempts := 0
		for {
			attempts++
			_, err = TrainContextNet(context.Background(), addr, req, StreamHandlers{}, NetConfig{FrameTimeout: 30 * time.Second})
			if err == nil || !IsTransient(err) || attempts == 4 {
				break
			}
		}
		if !errors.Is(err, ErrProtocolVersion) || IsTransient(err) {
			t.Fatalf("refused upload reported %v (transient: %v), want the fatal ErrProtocolVersion", err, IsTransient(err))
		}
		if n := dials(); attempts != 1 || n != 1 {
			t.Fatalf("%d attempts over %d dials, want one of each: a refusal is not retried", attempts, n)
		}
	}

	for _, faulty := range []bool{false, true} {
		name := "loopback"
		if faulty {
			name = "faultnet"
		}
		t.Run(name, func(t *testing.T) {
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			l := &skewListener{Listener: inner}
			if faulty {
				// The fault harness's connection, which cannot half-close.
				l.Listener = faultnet.Wrap(inner, nil)
			}
			server := NewServerConfig(l, ServerConfig{})
			t.Cleanup(func() { inner.Close(); server.Wait() })
			refused(t, inner.Addr().String(), l.dials.Load)

			// The server's half on its own: a client that never looks for
			// a refusal gets its whole upload written, and then reads one.
			conn, err := net.Dial("tcp", inner.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			if err := writeRequest(conn, req, msgDone); err != nil {
				t.Fatalf("the refused upload was not read to its end: %v", err)
			}
			kind, payload, err := readFrame(conn)
			if err != nil || kind != msgError || !errors.Is(decodeErrorFrame(payload), ErrProtocolVersion) {
				t.Fatalf("after the upload: frame kind %d, %v; want the ErrProtocolVersion refusal", kind, err)
			}
		})
	}

	// The client's half on its own: a server that refuses and hangs up at
	// once, as servers built before this rule do. The upload dies of a
	// reset; the refusal sent before it is what the client reports — and
	// with no refusal to read, the reset.
	t.Run("reset mid-upload", func(t *testing.T) {
		var refusal bytes.Buffer
		if err := writeErrorFrame(&refusal, fmt.Errorf("spec frame of some other version: %w", ErrProtocolVersion)); err != nil {
			t.Fatal(err)
		}
		rc := &resetConn{budget: 1 << 20}
		rc.r.Reset(refusal.Bytes())
		if err := sendRequest(newDeadlineConn(rc, 0, 0), req, msgDone); !errors.Is(err, ErrProtocolVersion) || IsTransient(err) {
			t.Fatalf("reset upload with a refusal waiting reported %v, want the fatal ErrProtocolVersion", err)
		}
		rc = &resetConn{budget: 1 << 20}
		if err := sendRequest(newDeadlineConn(rc, 0, 0), req, msgDone); !errors.Is(err, syscall.ECONNRESET) || !IsTransient(err) {
			t.Fatalf("reset upload with nothing to read reported %v, want the transient reset", err)
		}
	})
}

// resetConn is a fakeConn whose peer resets the connection budget bytes
// into the upload.
type resetConn struct {
	fakeConn
	budget int
}

func (c *resetConn) Write(p []byte) (int, error) {
	if c.budget -= len(p); c.budget < 0 {
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: syscall.ECONNRESET}
	}
	return len(p), nil
}

// TestStreamedFramesMatchStagedBytes: a frame streamed from its encoder is
// byte for byte the frame staged in memory first, for every request and
// terminal frame kind that is streamed; and an encoder that does not
// write exactly the promised size is an error that leaves every frame
// before it readable.
func TestStreamedFramesMatchStagedBytes(t *testing.T) {
	ints := []int{3, 1, 4, 1, 5, 9, 2, 6}
	img := tensor.New(2, 1, 5, 5)
	for i := range img.Data {
		img.Data[i] = float32(i) / 7
	}
	state := map[string]*tensor.Tensor{"emb": tensor.New(3000, 16), "fc.w": img}
	opt := &optim.State{Kind: optim.KindAdam, LR: 0.01, Step: 9, Buffers: map[string]*tensor.Tensor{"emb.m": tensor.New(3000, 16)}}
	ck := &serialize.TrainCheckpoint{Epoch: 3, Kind: "augmented-text", State: state, OptState: opt, RNG: map[string][]byte{"drop": {1, 2, 3}}}
	cases := []struct {
		kind  byte
		size  int
		write func(io.Writer) error
	}{
		{msgLabels, serialize.IntSliceSize(ints), func(w io.Writer) error { return serialize.WriteIntSlice(w, ints) }},
		{msgTokens, serialize.IntSliceSize(ints), func(w io.Writer) error { return serialize.WriteIntSlice(w, ints) }},
		{msgEvalLabels, serialize.IntSliceSize(nil), func(w io.Writer) error { return serialize.WriteIntSlice(w, nil) }},
		{msgImages, serialize.TensorSize(img), func(w io.Writer) error { return serialize.WriteTensor(w, img) }},
		{msgEvalImages, serialize.TensorSize(img), func(w io.Writer) error { return serialize.WriteTensor(w, img) }},
		{msgInit, serialize.TrainCheckpointSize(ck), func(w io.Writer) error { return serialize.WriteTrainCheckpoint(w, ck) }},
		{msgState, serialize.TrainCheckpointSize(ck), func(w io.Writer) error { return serialize.WriteTrainCheckpoint(w, ck) }},
		{msgCheckpoint, serialize.TrainCheckpointSize(ck), func(w io.Writer) error { return serialize.WriteTrainCheckpoint(w, ck) }},
	}
	var stream bytes.Buffer
	for _, c := range cases {
		var staged, streamed bytes.Buffer
		if err := writeFrame(&staged, c.kind, encoded(t, c.write)); err != nil {
			t.Fatal(err)
		}
		if err := writeFrameFrom(&streamed, c.kind, c.size, c.write); err != nil {
			t.Fatalf("frame kind %d: %v", c.kind, err)
		}
		if !bytes.Equal(streamed.Bytes(), staged.Bytes()) {
			t.Errorf("frame kind %d: %d streamed bytes differ from the %d staged", c.kind, streamed.Len(), staged.Len())
		}
		stream.Write(streamed.Bytes())
	}

	// The whole request and the whole outcome, through frameStream's
	// buffer, are the same frames in the same order.
	req := textJob(t)
	req.ResumeFrom(ck)
	up := encoded(t, func(w io.Writer) error { return writeRequest(w, req, msgDone) })
	var want bytes.Buffer
	spec, err := encodeSpecFrame(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	hyper, _ := json.Marshal(req.Hyper)
	for _, f := range []frame{
		{msgSpec, spec}, {msgHyper, hyper},
		{msgLabels, encoded(t, func(w io.Writer) error { return serialize.WriteIntSlice(w, req.Labels) })},
		{msgTokens, encoded(t, func(w io.Writer) error { return serialize.WriteIntSlice(w, flattenSamples(req.Samples)) })},
		{msgInit, encoded(t, cases[5].write)},
		{msgDone, nil},
	} {
		if err := writeFrame(&want, f.kind, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(up, want.Bytes()) {
		t.Errorf("streamed request of %d bytes differs from its %d staged bytes", len(up), want.Len())
	}

	// An encoder that lies about its size.
	intact := stream.Len()
	for _, off := range []int{-3, +3} {
		out := bytes.NewBuffer(append([]byte(nil), stream.Bytes()...))
		c := cases[5]
		if err := writeFrameFrom(out, c.kind, c.size+off, c.write); err == nil {
			t.Fatalf("an encoder writing %d bytes into a frame of %d was accepted", c.size, c.size+off)
		}
		if extra := out.Len() - intact; extra > 5+c.size+off {
			t.Errorf("a frame promising %d bytes put %d on the wire", c.size+off, extra-5)
		}
		fr := &frameReader{r: out}
		for i, c := range cases {
			kind, payload, err := fr.next()
			if err != nil || kind != c.kind || len(payload) != c.size {
				t.Fatalf("frame %d before the bad one reads as kind %d, %d bytes, %v", i, kind, len(payload), err)
			}
		}
		if _, _, err := fr.next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("the bad frame reads as %v, want a truncated stream", err)
		}
	}
}

// pipeClient reads one end of a net.Pipe whose other end a job stream
// writes: every checkpoint frame it receives is checked against the
// in-process run's checkpoint for the epoch it is labelled with.
type pipeClient struct {
	t     *testing.T
	ref   localRun
	frame frameReader
	conn  net.Conn

	mu          sync.Mutex
	lastEpoch   int // of the last progress frame
	checkpoints []int
}

// newPipeClient returns the client and the server's end of its pipe.
func newPipeClient(t *testing.T, ref localRun) (*pipeClient, net.Conn) {
	serverEnd, clientEnd := net.Pipe()
	c := &pipeClient{t: t, ref: ref, conn: clientEnd}
	c.frame.r = clientEnd
	return c, serverEnd
}

// read consumes frames, pausing pause between them, until the pipe closes
// or stop says so (checked after each frame).
func (c *pipeClient) read(pause time.Duration, stop func(epoch int) bool) {
	for {
		kind, payload, err := c.frame.next()
		if err != nil {
			return
		}
		c.mu.Lock()
		switch kind {
		case msgProgress:
			var m EpochMetric
			if err := json.Unmarshal(payload, &m); err != nil {
				c.t.Error(err)
			}
			c.lastEpoch = m.Epoch
		case msgCheckpoint:
			ck, err := serialize.ReadTrainCheckpoint(bytes.NewReader(payload))
			if err != nil {
				c.t.Errorf("a checkpoint frame does not decode (after epoch %d): %v", c.lastEpoch, err)
			} else if !bytes.Equal(payload, c.ref.checkpoints[ck.Epoch]) {
				c.t.Errorf("checkpoint frame labelled epoch %d is not the in-process run's checkpoint", ck.Epoch)
			} else {
				c.checkpoints = append(c.checkpoints, ck.Epoch)
			}
		}
		epoch := c.lastEpoch
		c.mu.Unlock()
		if stop != nil && stop(epoch) {
			return
		}
		time.Sleep(pause)
	}
}

func (c *pipeClient) seen() (epoch int, checkpoints []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEpoch, append([]int(nil), c.checkpoints...)
}

// TestCheckpointBuffersReturnToTheirJob walks a checkpoint buffer through
// every holder it can have — the parked slot, the stream of a slow client,
// the stream of a client that superseded it with a second attach, the
// stream of a client that died — with every buffer overwritten the moment
// its last holder lets go, and the moment the parked slot gives it up to
// be cut again in place. A reader that was still entitled to the bytes
// would receive the poison (and trip the race detector); none may. The
// job never owns more than three buffers, and none once it has finished.
func TestCheckpointBuffersReturnToTheirJob(t *testing.T) {
	const epochs, supersedeAt, dieAt = 40, 8, 24
	req := longTextJob(t, epochs, 2000)
	ref := runReference(t, longTextJob(t, epochs, 2000))
	poisoned := poisonReturned(t, nil)

	slow, slowEnd := newPipeClient(t, ref)
	fast, fastEnd := newPipeClient(t, ref)
	defer slow.conn.Close()
	defer fast.conn.Close()

	sch := newScheduler(ServerConfig{Executors: 1})
	sch.start()
	defer func() { sch.Finish(); sch.WaitIdle() }()
	srv := streamServer(sch)
	slowCur := newCursor(true)
	job, err := sch.Submit(req, slowCur)
	if err != nil {
		t.Fatal(err)
	}
	slowStreamed := streamTo(srv, slowEnd, job, slowCur)

	// The slow client reads a frame every two milliseconds, for as long as
	// anything comes: the job runs one epoch ahead of it.
	superseded := make(chan struct{})
	var once sync.Once
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		slow.read(2*time.Millisecond, func(epoch int) bool {
			if epoch >= supersedeAt {
				once.Do(func() { close(superseded) })
			}
			return false
		})
	}()
	<-superseded

	// A second attach takes over from the epoch the first has seen: the
	// parked checkpoint is replayed to it while the first stream may still
	// be writing the same bytes.
	from, _ := slow.seen()
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		fast.read(0, func(epoch int) bool { return epoch >= dieAt })
		fast.conn.Close() // dies with frames still coming
	}()
	fastCur := newCursor(true)
	job.attach(from, fastCur)
	fastStreamed := streamTo(srv, fastEnd, job, fastCur)
	<-fastDone
	<-job.done
	<-fastStreamed // its connection died: the stream ends, the job does not
	// The superseded slow client still gets the terminal frames.
	if err := <-slowStreamed; err != nil {
		t.Fatalf("the slow client's stream ended with %v", err)
	}
	slow.conn.Close()
	<-slowDone

	_, slowGot := slow.seen()
	_, fastGot := fast.seen()
	if len(slowGot) == 0 || len(fastGot) == 0 {
		t.Fatalf("checkpoints received: slow client %v, superseding client %v; both must see some", slowGot, fastGot)
	}
	for i, e := range fastGot[1:] {
		if e != fastGot[i]+1 {
			t.Fatalf("superseding client's checkpoints %v skip or repeat an epoch", fastGot)
		}
	}
	returned := poisoned()
	if len(returned) == 0 || len(returned) > 3 {
		t.Errorf("the job used %d checkpoint buffers, want 1 to 3", len(returned))
	}
	for c := range returned {
		if n := c.holders.Load(); n != 0 {
			t.Errorf("a checkpoint buffer still has %d holders after the job and its streams are gone", n)
		}
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.ckpt != nil || job.spare != nil || job.model != nil {
		t.Errorf("the finished job still holds parked checkpoint %v, spares %v, model %v", job.ckpt != nil, job.spare != nil, job.model != nil)
	}
}

// pacedTextJob is longTextJob with copies of its samples: checkpoints of a
// few kilobytes, epochs of some 15 milliseconds (64 copies; 16 under the
// race detector, which slows training far more than a client's reads). A
// client reading at full speed on a P of its own then has each checkpoint
// before the next epoch ends.
func pacedTextJob(t *testing.T, epochs int) *TrainRequest {
	req := longTextJob(t, epochs, 0)
	copies := 64
	if raceEnabled {
		copies = 16
	}
	samples, labels := req.Samples, req.Labels
	for range copies - 1 {
		req.Samples = append(req.Samples, samples...)
		req.Labels = append(req.Labels, labels...)
	}
	return req
}

// poisonReturned installs a ckptReturned hook that counts, per buffer, the
// times a holder handed it back or the parked slot gave it up to be cut in
// place, and overwrites it then: a reader still entitled to the bytes would
// receive the poison. seen, when set, runs first.
func poisonReturned(t *testing.T, seen func(*ckptBuf)) (returned func() map[*ckptBuf]int) {
	var mu sync.Mutex
	counts := map[*ckptBuf]int{}
	ckptReturned = func(c *ckptBuf) {
		if seen != nil {
			seen(c)
		}
		mu.Lock()
		counts[c]++
		mu.Unlock()
		for i := range c.payload {
			c.payload[i] = 0xA5
		}
	}
	t.Cleanup(func() { ckptReturned = nil })
	return func() map[*ckptBuf]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(counts)
	}
}

// TestKeepingUpClientCostsOneCheckpointBuffer: a client that reads as fast
// as its job streams has sent each checkpoint before the next boundary, so
// that boundary is cut in place into the buffer it was sent from. A
// 12-epoch job costs one checkpoint buffer (two alternated before): poisoned
// before each of its ten reuses and once more as the job lets it go, and
// every checkpoint the client receives is still the in-process run's.
func TestKeepingUpClientCostsOneCheckpointBuffer(t *testing.T) {
	const epochs = 12
	// Keeping up means reading while the executor trains. On one P the
	// client runs only once the executor blocks — at the next boundary,
	// one checkpoint behind — so this client gets a P of its own.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	req := pacedTextJob(t, epochs)
	ref := runReference(t, pacedTextJob(t, epochs))
	returned := poisonReturned(t, nil)

	client, serverEnd := newPipeClient(t, ref)
	defer client.conn.Close()
	sch := newScheduler(ServerConfig{Executors: 1})
	sch.start()
	defer func() { sch.Finish(); sch.WaitIdle() }()
	cur := newCursor(true)
	job, err := sch.Submit(req, cur)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamTo(streamServer(sch), serverEnd, job, cur)
	read := make(chan struct{})
	go func() { defer close(read); client.read(0, nil) }()
	if err := <-streamed; err != nil {
		t.Fatalf("the stream ended with %v", err)
	}
	serverEnd.Close()
	<-read

	if _, got := client.seen(); len(got) != epochs-1 {
		t.Fatalf("the client received checkpoints %v, want epochs 1 to %d", got, epochs-1)
	}
	bufs := returned()
	for c, n := range bufs {
		if n != epochs-1 || c.holders.Load() != 0 {
			t.Errorf("a checkpoint buffer was given up %d times, want %d: %d reuses in place and the job's end (holders now %d)",
				n, epochs-1, epochs-2, c.holders.Load())
		}
	}
	if len(bufs) != 1 {
		t.Fatalf("the job cut into %d checkpoint buffers for a client that keeps up, want 1", len(bufs))
	}
}

// TestAttachDuringInPlaceCutGetsTheNewBoundary: while a boundary is cut in
// place the parked slot is empty, the buffer it held being overwritten. A
// job nobody is attached to cuts every boundary after its first that way.
// An attach that lands in the window — from the poison hook, which runs
// there on the executor — has no checkpoint to replay. It receives the
// boundary being cut once it is parked: first, exactly once, byte-equal to
// the in-process run's, never the old bytes, the poison or a half-cut
// buffer; then every later one, once.
func TestAttachDuringInPlaceCutGetsTheNewBoundary(t *testing.T) {
	const epochs, attachAfter = 12, 4
	req := pacedTextJob(t, epochs)
	ref := runReference(t, pacedTextJob(t, epochs))
	client, clientEnd := newPipeClient(t, ref)
	defer client.conn.Close()

	sch := newScheduler(ServerConfig{Executors: 1})
	sch.start()
	defer func() { sch.Finish(); sch.WaitIdle() }()
	srv := streamServer(sch)

	var jobp atomic.Pointer[schedJob]
	var once sync.Once
	attached := make(chan int, 1) // the epoch of the boundary cut as the attach landed
	var streamed <-chan error     // the attached stream's end, set before attached is sent
	poisonReturned(t, func(c *ckptBuf) {
		job := jobp.Load()
		if job == nil {
			return
		}
		job.mu.Lock()
		cutting := job.ckpt == nil && !job.state.terminal()
		job.mu.Unlock()
		if !cutting || c.epoch < attachAfter {
			return
		}
		once.Do(func() {
			cur := newCursor(true)
			job.attach(c.epoch, cur)
			streamed = streamTo(srv, clientEnd, job, cur)
			attached <- c.epoch + 1
		})
	})

	job, err := sch.Submit(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobp.Store(job)
	read := make(chan struct{})
	go func() { defer close(read); client.read(0, nil) }()
	<-job.done
	var cut int
	select {
	case cut = <-attached:
	default:
		t.Fatalf("no boundary after epoch %d was cut in place", attachAfter)
	}
	if err := <-streamed; err != nil {
		t.Fatalf("the stream ended with %v", err)
	}
	clientEnd.Close()
	<-read

	var want []int
	for e := cut; e < epochs; e++ {
		want = append(want, e)
	}
	if last, got := client.seen(); !slices.Equal(got, want) || last != epochs {
		t.Fatalf("attached while epoch %d was cut in place, the client received checkpoints %v and progress to epoch %d; want %v and %d",
			cut, got, last, want, epochs)
	}
}

// allocatedBy reports the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRemoteJobAllocationBudget pins what a remote job may allocate on
// top of training. Per checkpointed epoch, once the job's two buffers
// exist: under 1 MB (a fresh 15 MB cut each epoch before buffers were
// handed back). For uploading an 8 MB initial state, and for writing the
// terminal frames of a 16 MB result: under 1 MB each beyond the
// connection's write buffer (a staged copy of every frame before).
func TestRemoteJobAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("byte budgets are not meaningful under the race detector")
	}
	const budget = 1 << 20

	// run streams one job of the given epochs to a client that only
	// discards, and reports what it allocated in all.
	run := func(epochs, every int) uint64 {
		req := wideTextJob(t, 8)
		req.Hyper.Epochs, req.Hyper.CheckpointEvery = epochs, every
		sch := newScheduler(ServerConfig{Executors: 1})
		sch.start()
		defer func() { sch.Finish(); sch.WaitIdle() }()
		serverEnd, clientEnd := net.Pipe()
		defer clientEnd.Close()
		go io.Copy(io.Discard, clientEnd)
		return allocatedBy(func() {
			cur := newCursor(true)
			job, err := sch.Submit(req, cur)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-streamTo(streamServer(sch), serverEnd, job, cur); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A job of 12 epochs less one of 4: eight epochs once the job's two
	// checkpoint buffers exist.
	perEpoch := func(every int) uint64 { return (run(12, every) - run(4, every)) / 8 }
	with, without := perEpoch(1), perEpoch(0)
	if with > without+budget {
		t.Errorf("a checkpointed epoch allocates %d bytes, an unchecked one %d: the difference is over %d", with, without, budget)
	}

	req := wideTextJob(t, 8)
	if got := allocatedBy(func() {
		if err := writeRequest(io.Discard, req, msgDone); err != nil {
			t.Fatal(err)
		}
	}); got > budget {
		t.Errorf("uploading a %d-byte initial state allocated %d bytes, budget %d", serialize.StateDictSize(req.InitState), got, budget)
	}

	resp := &TrainResponse{State: req.InitState, CompletedEpochs: 2,
		OptState: &optim.State{Kind: optim.KindSGD, LR: 0.5, Buffers: req.InitState}}
	s := &Server{shuttingDown: make(chan struct{})}
	conn := newDeadlineConn(&fakeConn{}, 0, 0)
	if got := allocatedBy(func() {
		if err := s.writeOutcome(conn, req.Spec.Kind, false, resp); err != nil {
			t.Fatal(err)
		}
	}); got > budget {
		t.Errorf("writing the terminal frames of a %d-byte state allocated %d bytes, budget %d", serialize.StateDictSize(resp.State), got, budget)
	}
}

// TestFinishedJobsKeepOnlyTheirResult: a long-lived server used to keep
// every finished job's initial state, uploaded payload and last parked
// checkpoint — some 30 MB beyond the result for a 7.5 MB model, never
// evicted. A finished job retains its response (state + optimiser state)
// and small change.
func TestFinishedJobsKeepOnlyTheirResult(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under the race detector")
	}
	const jobs = 10
	addr, server := startAsyncServer(t, ServerConfig{Executors: 1})
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var result int
	for i := 0; i < jobs; i++ {
		req := wideTextJob(t, 4)
		resp, err := TrainContext(context.Background(), addr, req, StreamHandlers{})
		if err != nil {
			t.Fatal(err)
		}
		result = serialize.TrainCheckpointSize(resp.Checkpoint(req.Spec.Kind))
	}
	if len(server.Views()) != jobs {
		t.Fatalf("%d jobs on the server, want %d", len(server.Views()), jobs)
	}
	if per := int(heap()-before) / jobs; per > result+1<<20 {
		t.Errorf("each finished job retains %d bytes, its result is %d: over result + 1 MB", per, result)
	}
	runtime.KeepAlive(server)
}
