package cloudsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"amalgam/internal/core"
	"amalgam/internal/faultnet"
	"amalgam/internal/optim"
	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// triggerShutdown starts a graceful shutdown and blocks until the signal is
// visible to every in-flight handler, so a test's next epoch boundary is
// guaranteed to observe it (no scheduler race on the cancel goroutine's
// channel read).
func triggerShutdown(server *Server) {
	go func() { _ = server.Shutdown(context.Background()) }()
	<-server.shuttingDown
}

// TestShutdownHandsOffFailoverClient pins the graceful-shutdown handoff:
// a client whose job is drained mid-run receives an epoch-aligned
// checkpoint — weights, momentum, dropout cursors —
// followed by the retryable ErrServerShutdown, and resuming from that
// checkpoint on a second server reproduces an unbroken run bit-for-bit.
// The LM job keeps Dropout > 0 and Momentum > 0, so all three state legs
// are load-bearing.
func TestShutdownHandsOffFailoverClient(t *testing.T) {
	// Far horizon: the service cannot finish before the shutdown signal
	// lands (the same guarantee the cancellation tests rely on), so the
	// job is always drained mid-run.
	const epochs = 2000
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)

	req := lmJob(t)
	req.Hyper.Epochs = epochs
	var once sync.Once
	var last *serialize.TrainCheckpoint
	resp, err := TrainContext(context.Background(), l.Addr().String(), req, StreamHandlers{
		Progress:   func(EpochMetric) { once.Do(func() { triggerShutdown(server) }) },
		Checkpoint: func(ck *serialize.TrainCheckpoint) { last = ck },
	})
	if err == nil {
		t.Fatalf("job outran the shutdown signal (%d epochs completed)", resp.CompletedEpochs)
	}
	if !errors.Is(err, ErrServerShutdown) {
		t.Fatalf("drained job returned %v, want ErrServerShutdown", err)
	}
	if !IsTransient(err) {
		t.Fatal("ErrServerShutdown must classify as transient (retry elsewhere)")
	}
	if err := server.Wait(); err != nil {
		t.Fatalf("graceful shutdown left a terminal accept error: %v", err)
	}
	if last == nil {
		t.Fatal("no handoff checkpoint before the shutdown error")
	}
	if last.Epoch < 1 || last.Epoch >= epochs {
		t.Fatalf("handoff checkpoint at epoch %d, want within (0,%d)", last.Epoch, epochs)
	}
	if last.Kind != "augmented-lm" {
		t.Fatalf("handoff checkpoint records kind %q", last.Kind)
	}
	if last.OptState.Empty() {
		t.Fatal("handoff checkpoint lost the momentum buffers")
	}
	if len(last.RNG) == 0 {
		t.Fatal("handoff checkpoint lost the dropout-stream cursors")
	}

	// Resume on a second server from exactly the handoff state, to a
	// nearby horizon. The per-epoch shuffle depends only on (seed, epoch),
	// never on the total epoch count, so a straight run to the same
	// horizon is the bit-identity reference.
	horizon := last.Epoch + 2
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server2 := NewServer(l2)
	defer func() {
		l2.Close()
		server2.Wait()
	}()
	resumed := lmJob(t)
	resumed.Hyper.Epochs = horizon
	resumed.Hyper.StartEpoch = last.Epoch
	resumed.InitState = last.State
	resumed.InitOptState = last.OptState
	resumed.InitRNG = last.RNG
	got, err := TrainContext(context.Background(), l2.Addr().String(), resumed, StreamHandlers{})
	if err != nil {
		t.Fatalf("resume on second server: %v", err)
	}

	straightReq := lmJob(t)
	straightReq.Hyper.Epochs = horizon
	straight, err := RunLocal(straightReq)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range straight.State {
		if !got.State[name].Equal(want) {
			t.Fatalf("shutdown-resumed run diverged from straight run at %q", name)
		}
	}
}

// tempAcceptErr mimics a transient accept(2) failure (fd pressure).
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempAcceptErr) Temporary() bool { return true }

// flakyListener fails its first n Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	mu        sync.Mutex
	remaining int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.remaining > 0 {
		l.remaining--
		l.mu.Unlock()
		return nil, tempAcceptErr{}
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestAcceptLoopRidesOutTemporaryErrors pins that transient accept faults
// back off and retry instead of killing the accept loop: a job submitted
// behind three injected failures still trains, and Wait reports no
// terminal error.
func TestAcceptLoopRidesOutTemporaryErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: l, remaining: 3}
	server := NewServerConfig(fl, ServerConfig{})
	defer func() {
		l.Close()
		if err := server.Wait(); err != nil {
			t.Errorf("temporary accept faults surfaced as terminal: %v", err)
		}
	}()

	req, _, _ := tinyJob(t, false)
	if _, err := Train(l.Addr().String(), req); err != nil {
		t.Fatalf("job behind temporary accept faults failed: %v", err)
	}
	fl.mu.Lock()
	left := fl.remaining
	fl.mu.Unlock()
	if left != 0 {
		t.Fatalf("only %d of 3 injected accept faults consumed", 3-left)
	}
}

// doomedListener fails every Accept with a permanent error.
type doomedListener struct {
	net.Listener
	err error
}

func (l *doomedListener) Accept() (net.Conn, error) { return nil, l.err }

// TestAcceptLoopSurfacesTerminalError pins the satellite: a permanent
// listener failure stops the accept loop AND is reported through Wait —
// previously the loop died silently and Wait looked like a clean exit.
func TestAcceptLoopSurfacesTerminalError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("listener wedged")
	server := NewServerConfig(&doomedListener{Listener: l, err: boom}, ServerConfig{})
	if err := server.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait returned %v, want the terminal accept error", err)
	}
}

// TestJobPanicClassifiedFatalAndServerSurvives drives a request whose
// geometry slips past frame-level validation but panics inside the job
// (a rank-1 image tensor): the client must get a classified, NON-transient
// ErrJobPanic instead of a torn connection, and the server must keep
// serving jobs afterwards.
func TestJobPanicClassifiedFatalAndServerSurvives(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	bad, _, _ := tinyJob(t, false)
	bad.Images = tensor.FromSlice(make([]float32, len(bad.Labels)), len(bad.Labels))
	_, err = Train(l.Addr().String(), bad)
	if !errors.Is(err, ErrJobPanic) {
		t.Fatalf("panicking job returned %v, want ErrJobPanic", err)
	}
	if IsTransient(err) {
		t.Fatal("a deterministic server-side panic must not be retried")
	}

	good, _, _ := tinyJob(t, false)
	if _, err := Train(l.Addr().String(), good); err != nil {
		t.Fatalf("server wedged after a panicking job: %v", err)
	}
}

// TestDecoyBranchPanicClassifiedFatalAndServerSurvives is the twin for a
// panic raised off the executor's goroutine: sub-networks are forwarded side
// by side, so a decoy that blows up mid-step may do so on a pool worker. The
// token that does it sits at positions only decoys gather — the original
// sub-network never reads it, admission has no reason to refuse it — and it
// must still end that one job as ErrJobPanic, re-raised where the executor's
// recover stands, with the executor alive for the next job.
func TestDecoyBranchPanicClassifiedFatalAndServerSurvives(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(4)) // branches dealt over pool chunks, whatever the host's count
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	bad := textJob(t)
	model, err := BuildModel(bad.Spec)
	if err != nil {
		t.Fatal(err)
	}
	sets := model.(*core.AugmentedTextClassifier).GatherSets()
	kept := map[int]bool{}
	for _, p := range sets[0] {
		kept[p] = true
	}
	decoyOnly := -1
	for _, p := range sets[1] {
		if !kept[p] {
			decoyOnly = p
		}
	}
	if decoyOnly < 0 {
		t.Fatal("the first decoy gathers nothing the original does not")
	}
	poisoned := append([]int(nil), bad.Samples[0]...)
	poisoned[decoyOnly] = bad.Spec.Vocab // out of every embedding's range
	bad.Samples = append([][]int{poisoned}, bad.Samples[1:]...)

	_, err = Train(l.Addr().String(), bad)
	if !errors.Is(err, ErrJobPanic) || !strings.Contains(err.Error(), "EmbeddingMean id") {
		t.Fatalf("job with a panicking decoy returned %v, want ErrJobPanic from the decoy's lookup", err)
	}
	if IsTransient(err) {
		t.Fatal("a deterministic server-side panic must not be retried")
	}
	if _, err := Train(l.Addr().String(), textJob(t)); err != nil {
		t.Fatalf("server wedged after a decoy branch panicked: %v", err)
	}
}

// TestMidTrainingKillThenResumeIsBitIdentical is the protocol-level kill
// path: faultnet severs every connection at an epoch boundary mid-job, the
// client's failure classifies as transient, and a manual retry from the
// last streamed checkpoint finishes with weights bit-identical to an
// unbroken local run — the contract RemoteTrainer's retry loop builds on.
func TestMidTrainingKillThenResumeIsBitIdentical(t *testing.T) {
	const epochs = 2000 // far horizon: the kill always lands mid-run
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultnet.Wrap(inner, nil)
	server := NewServer(fl)
	defer func() {
		fl.Close()
		server.Wait()
	}()

	req := textJob(t)
	req.Hyper.Epochs = epochs
	var once sync.Once
	var last *serialize.TrainCheckpoint
	_, err = TrainContext(context.Background(), fl.Addr().String(), req, StreamHandlers{
		Progress: func(m EpochMetric) {
			if m.Epoch >= 2 {
				once.Do(fl.KillAll)
			}
		},
		Checkpoint: func(ck *serialize.TrainCheckpoint) { last = ck },
	})
	if err == nil {
		t.Fatal("killed connection reported success")
	}
	if !IsTransient(err) {
		t.Fatalf("mid-training kill classified fatal: %v", err)
	}
	if last == nil || last.Epoch < 1 {
		t.Fatalf("no usable checkpoint streamed before the kill (got %+v)", last)
	}

	// Retry to a nearby horizon (shuffle is (seed, epoch)-derived, so the
	// horizon does not influence the shared epochs).
	horizon := last.Epoch + 2
	retry := textJob(t)
	retry.Hyper.Epochs = horizon
	retry.Hyper.StartEpoch = last.Epoch
	retry.InitState = last.State
	retry.InitOptState = last.OptState
	retry.InitRNG = last.RNG
	got, err := TrainContext(context.Background(), fl.Addr().String(), retry, StreamHandlers{})
	if err != nil {
		t.Fatalf("retry attempt: %v", err)
	}

	straightReq := textJob(t)
	straightReq.Hyper.Epochs = horizon
	straight, err := RunLocal(straightReq)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range straight.State {
		if !got.State[name].Equal(want) {
			t.Fatalf("kill-and-resume diverged from straight run at %q", name)
		}
	}
}

// TestRequestCutIsTransient severs the server-side connection inside the
// request upload; whatever surfaces client-side (reset, EOF, closed pipe)
// must classify as retryable.
func TestRequestCutIsTransient(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultnet.Wrap(inner, func(int) faultnet.ConnPlan {
		return faultnet.ConnPlan{CutAfterReadBytes: 64}
	})
	server := NewServer(fl)
	defer func() {
		fl.Close()
		server.Wait()
	}()

	req, _, _ := tinyJob(t, false)
	_, err = Train(fl.Addr().String(), req)
	if err == nil {
		t.Fatal("upload through a 64-byte read budget succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("request-phase cut classified fatal: %v", err)
	}
}

// TestDialFailureIsTransient: nothing listening is the canonical
// retry-elsewhere fault.
func TestDialFailureIsTransient(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	req, _, _ := tinyJob(t, false)
	_, err = Train(addr, req)
	if err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("dial failure classified fatal: %v", err)
	}
}

// TestStalledRequestFreedByFrameDeadline pins the per-frame request
// deadline: a client that goes silent mid-upload is cut loose within the
// configured bound instead of pinning a handler (and its concurrency slot)
// forever, and the server keeps serving.
func TestStalledRequestFreedByFrameDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServerConfig(l, ServerConfig{FrameTimeout: 100 * time.Millisecond})
	defer func() {
		l.Close()
		server.Wait()
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A header promising 100 payload bytes that never arrive.
	if _, err := conn.Write([]byte{msgSpec, 100, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	// An error frame is a valid way to cut the client loose, and it may
	// arrive in any number of reads; what must follow is the close.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection still alive after the frame deadline: %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("stalled client freed only after %v, frame deadline is 100ms", waited)
	}

	req, _, _ := tinyJob(t, false)
	if _, err := Train(l.Addr().String(), req); err != nil {
		t.Fatalf("server wedged after a stalled client: %v", err)
	}
}

// FuzzReadFrame fuzzes the frame decoder: arbitrary bytes must never
// panic, never allocate past the claimed-length guard, and always return
// either a classified sentinel or a plain truncation error.
func FuzzReadFrame(f *testing.F) {
	var ok bytes.Buffer
	if err := writeFrame(&ok, msgSpec, []byte("hello amalgam")); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	f.Add([]byte{})
	f.Add([]byte{msgSpec, 0xff, 0xff, 0xff, 0x7f})        // 2 GiB claim
	f.Add([]byte{msgState, 10, 0, 0, 0, 1, 2})            // truncated payload
	f.Add([]byte{msgCheckpoint, 0, 0, 16, 0, 0xde, 0xad}) // >chunk claim, no bytes
	f.Add(append(ok.Bytes(), ok.Bytes()...))              // two frames back to back
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("unclassified frame error: %v", err)
			}
			return
		}
		if len(payload) > maxFrame {
			t.Fatalf("frame decoder returned %d bytes past the %d limit", len(payload), maxFrame)
		}
		if len(data) < 5+len(payload) {
			t.Fatalf("kind-%d frame conjured %d payload bytes from %d input bytes", kind, len(payload), len(data))
		}
	})
}

// fakeConn is an in-memory net.Conn for alloc measurements: reads come
// from a resettable reader, writes and deadlines are no-ops. Only the
// methods deadlineConn exercises are implemented.
type fakeConn struct {
	net.Conn
	r bytes.Reader
}

func (c *fakeConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *fakeConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

// TestFramePlumbingAllocs pins the happy-path epoch loop's allocation
// budget THROUGH the hardening layer (deadlineConn + chunked readFrame):
// a progress-sized frame costs at most one write-side allocation (the
// header escaping into the Write call) and two read-side allocations (the
// header and the returned payload). Regressions here show up on every
// epoch of every streamed job.
func TestFramePlumbingAllocs(t *testing.T) {
	payload := make([]byte, 256)
	var frame bytes.Buffer
	if err := writeFrame(&frame, msgProgress, payload); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()

	fc := &fakeConn{}
	dc := newDeadlineConn(fc, time.Minute, time.Minute)

	writes := testing.AllocsPerRun(200, func() {
		if err := writeFrame(dc, msgProgress, payload); err != nil {
			t.Fatal(err)
		}
	})
	if writes > 1 {
		t.Errorf("writeFrame through deadlineConn: %.1f allocs per frame, want <= 1", writes)
	}
	reads := testing.AllocsPerRun(200, func() {
		fc.r.Reset(raw)
		if _, _, err := readFrame(dc); err != nil {
			t.Fatal(err)
		}
	})
	if reads > 2 {
		t.Errorf("readFrame through deadlineConn: %.1f allocs per frame, want <= 2", reads)
	}
}

// TestFramePlumbingAllocsCheckpoint pins the two buffers a streamed checkpoint
// costs: the server cuts a snapshot into ONE buffer of exactly
// TrainCheckpointSize bytes — and cuts the next into the same buffer for
// nothing, once its last holder has let go of it, or in place while it is
// parked and nobody may still read it — and a connection's frame reader,
// having earned a large frame's capacity once, reads the next frame of that
// size without allocating. A reader with a reserve covering the frame (a
// client reading boundaries into their destination) earns it in one buffer
// of the exact size. (The third, the client's decode at no more than 1.1x
// the payload, is pinned in internal/serialize.)
func TestFramePlumbingAllocsCheckpoint(t *testing.T) {
	allocated := allocatedBy
	state := map[string]*tensor.Tensor{"emb": tensor.New(40000, 16), "fc.w": tensor.New(16, 3)}
	snap := &serialize.TrainCheckpoint{Epoch: 4, Kind: "augmented-text", State: state,
		OptState: &optim.State{Kind: optim.KindSGD, LR: 0.05, Buffers: map[string]*tensor.Tensor{"emb": tensor.New(40000, 16)}}}
	size := serialize.TrainCheckpointSize(snap)
	job := &schedJob{req: &TrainRequest{Spec: ModelSpec{Kind: "augmented-text"}}, spare: make(chan *ckptBuf, 2)}
	var cut *ckptBuf
	cutOne := func() {
		var err error
		if cut, err = job.cutCheckpoint(snap); err != nil {
			t.Fatal(err)
		}
	}
	grew := allocated(cutOne)
	payload := cut.payload
	if len(payload) != size || cap(payload) != size {
		t.Fatalf("cut %d bytes in a buffer of %d, want exactly TrainCheckpointSize = %d", len(payload), cap(payload), size)
	}
	if limit := uint64(size) + 64<<10; grew > limit {
		t.Errorf("cutting a %d-byte checkpoint allocated %d bytes, want the one buffer (limit %d)", size, grew, limit)
	}
	cut.release() // its only holder: back to the job
	if again := allocated(cutOne); again > 64<<10 || &cut.payload[0] != &payload[0] {
		t.Errorf("the cut after a release allocated %d bytes (same buffer: %v), want the returned buffer reused",
			again, &cut.payload[0] == &payload[0])
	}

	// Parked, with no cursor live: the next cut takes it back in place,
	// through the poison hook first, and allocates nothing.
	var gaveUp []*ckptBuf
	ckptReturned = func(c *ckptBuf) { gaveUp = append(gaveUp, c) }
	defer func() { ckptReturned = nil }()
	parked := cut
	job.ckpt = parked
	if again := allocated(cutOne); again > 64<<10 || cut != parked || job.ckpt != nil ||
		!slices.Equal(gaveUp, []*ckptBuf{parked}) || parked.holders.Load() != 1 {
		t.Errorf("the cut after a parked checkpoint nobody reads allocated %d bytes (same buffer: %v, slot emptied: %v, poisoned first: %v, holders %d); want it cut in place",
			again, cut == parked, job.ckpt == nil, len(gaveUp) == 1, parked.holders.Load())
	}
	// Parked and not yet sent to the live cursor, or held by a connection
	// as well: never cut in place.
	for _, c := range []struct {
		name    string
		live    *cursor
		holders int32
	}{{"unsent to the live cursor", &cursor{ckpt: snap.Epoch - 1}, 1}, {"held by a connection", nil, 2}} {
		gaveUp = nil
		job.ckpt, job.live = parked, c.live
		parked.holders.Store(c.holders)
		cutOne()
		if cut == parked || job.ckpt != parked || len(gaveUp) != 0 || !bytes.Equal(parked.payload, payload) {
			t.Errorf("parked checkpoint %s: cut in place (%v), unparked (%v), poisoned (%v); want it left whole",
				c.name, cut == parked, job.ckpt != parked, len(gaveUp) != 0)
		}
	}

	var raw bytes.Buffer
	if err := writeFrame(&raw, msgCheckpoint, payload); err != nil {
		t.Fatal(err)
	}
	fc := &fakeConn{}
	readOn := func(dc *deadlineConn) func() {
		return func() {
			fc.r.Reset(raw.Bytes())
			if _, got, err := dc.readFrame(); err != nil || len(got) != size {
				t.Fatalf("read %d of %d payload bytes: %v", len(got), size, err)
			}
		}
	}
	// reader is a fresh connection's frame reader, trusting a header up to
	// reserve bytes.
	reader := func(reserve int) *deadlineConn {
		dc := newDeadlineConn(fc, time.Minute, time.Minute)
		dc.frames.reserve = reserve
		return dc
	}
	dc := reader(0)
	first := allocated(readOn(dc))
	if limit := uint64(3 * size); size <= frameAllocChunk || first > limit {
		t.Errorf("first %d-byte frame allocated %d bytes (limit %d); the frame must exceed frameAllocChunk to test growth", size, first, limit)
	}
	if again := testing.AllocsPerRun(10, readOn(dc)); again != 0 {
		t.Errorf("a second same-size frame cost %.1f allocations, want 0", again)
	}
	// A reserve the frame fits: one buffer of its exact size.
	dc = reader(size + 64<<10)
	if first := allocated(readOn(dc)); first > uint64(size)+64<<10 || cap(dc.frames.buf) != size {
		t.Errorf("first %d-byte frame within the reserve allocated %d bytes into a buffer of %d, want one exact buffer",
			size, first, cap(dc.frames.buf))
	}
	// A header claiming more than the reserve: grown as bytes arrive, within
	// the first-frame limit.
	for _, reserve := range []int{size - 1, size / 2, frameAllocChunk + 1} {
		if first := allocated(readOn(reader(reserve))); first > uint64(3*size) {
			t.Errorf("first %d-byte frame over a reserve of %d allocated %d bytes (limit %d)", size, reserve, first, 3*size)
		}
	}
}

// BenchmarkFramePlumbing is the bench-smoke for the epoch loop's wire
// path: one progress-frame roundtrip through the deadline wrapper.
func BenchmarkFramePlumbing(b *testing.B) {
	payload := make([]byte, 256)
	var frame bytes.Buffer
	if err := writeFrame(&frame, msgProgress, payload); err != nil {
		b.Fatal(err)
	}
	raw := frame.Bytes()
	fc := &fakeConn{}
	dc := newDeadlineConn(fc, time.Minute, time.Minute)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFrame(dc, msgProgress, payload); err != nil {
			b.Fatal(err)
		}
		fc.r.Reset(raw)
		if _, _, err := readFrame(dc); err != nil {
			b.Fatal(err)
		}
	}
}
