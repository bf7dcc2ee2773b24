package cloudsim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"amalgam/internal/faultnet"
	"amalgam/internal/serialize"
)

// longTextJob is textJob stretched to epochs epochs with a checkpoint
// frame per epoch; vocab > 0 also widens its embedding tables so one
// snapshot is megabytes, not kilobytes.
func longTextJob(t *testing.T, epochs, vocab int) *TrainRequest {
	req := textJob(t)
	req.Hyper.Epochs = epochs
	if vocab > 0 {
		req.Spec.Vocab, req.Spec.EmbedDim = vocab, 16
	}
	return req
}

// TestParkedCheckpointIsEpochAligned attaches to a job in mid-run and
// requires every checkpoint of the stream — the parked one replayed
// first, then the live ones — to be byte-equal to the in-process run's
// checkpoint for the epoch it is labelled with. The parked snapshot used
// to alias the live tensors and was serialised at attach time, under a
// lock the optimiser step does not take: a torn state some epochs past
// its label, which a WithCheckpoint client saved and resumed from.
func TestParkedCheckpointIsEpochAligned(t *testing.T) {
	addr, _ := startAsyncServer(t, ServerConfig{Executors: 1})
	req := longTextJob(t, 400, 0)
	id, err := SubmitContext(context.Background(), addr, req, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, addr, id, func(st JobStatus) bool { return st.CompletedEpochs >= 20 })

	var got []*serialize.TrainCheckpoint
	resp, err := AttachContext(context.Background(), addr, AttachRequest{JobID: id}, StreamHandlers{
		Checkpoint: func(ck *serialize.TrainCheckpoint) { got = append(got, ck) },
	}, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The stream's last checkpoint is epoch Epochs-1: the epoch the run
	// ends on is never cut into a checkpoint, its state arrives once, as
	// the terminal frames (resp, compared below).
	if len(got) == 0 && err == nil {
		t.Skip("the job finished before the attach landed: a finished job parks no checkpoint")
	}
	// (The parked one may be epoch 19's: the poll counts epoch 20 from its
	// progress, which is delivered just before its checkpoint is cut.)
	if last := req.Hyper.Epochs - 1; got[0].Epoch < 19 || got[len(got)-1].Epoch != last {
		t.Fatalf("attach streamed %d checkpoints, epochs %d to %d; want the parked one (epoch >= 19) through epoch %d",
			len(got), got[0].Epoch, got[len(got)-1].Epoch, last)
	}
	ref := runReference(t, longTextJob(t, 400, 0))
	for _, ck := range got {
		wire := encoded(t, func(w io.Writer) error { return serialize.WriteTrainCheckpoint(w, ck) })
		if !bytes.Equal(wire, ref.checkpoints[ck.Epoch]) {
			t.Fatalf("checkpoint labelled epoch %d is not the in-process run's state at epoch %d", ck.Epoch, ck.Epoch)
		}
	}
	for name, w := range ref.resp.State {
		if !resp.State[name].Equal(w) {
			t.Fatalf("final state diverged at %q", name)
		}
	}
}

// streamServer is a Server around sch with no listener: enough for
// stream, which reads only the scheduler and the shutdown state.
func streamServer(sch *Scheduler) *Server {
	return &Server{sched: sch, shuttingDown: make(chan struct{})}
}

// streamTo runs the server side of a job stream — cur's output, then the
// terminal frames — onto conn on its own goroutine, and yields what it
// returns.
func streamTo(s *Server, conn net.Conn, job *schedJob, cur *cursor) <-chan error {
	out := make(chan error, 1)
	go func() { out <- s.stream(newDeadlineConn(conn, 0, 0), job, cur) }()
	return out
}

// trainedEpochs is how many epochs job's executor has finished.
func trainedEpochs(job *schedJob) int {
	st, _ := job.status()
	return st.CompletedEpochs
}

// streamReader is the client end of a job stream over a net.Pipe: every
// Write on the server end blocks until it is read here.
type streamReader struct {
	t           *testing.T
	fr          frameReader
	progress    []int // epochs, in arrival order
	checkpoints int
	snapshot    int // bytes in the last checkpoint frame
	result      *resultMeta
	final       int // epoch of the msgState frame; 0 before it
}

func newStreamReader(t *testing.T, conn net.Conn) *streamReader {
	return &streamReader{t: t, fr: frameReader{r: conn}}
}

// readUntil reads frames until done says so (checked before each frame).
func (c *streamReader) readUntil(done func() bool) {
	c.t.Helper()
	for !done() {
		kind, payload, err := c.fr.next()
		if err != nil {
			c.t.Fatalf("client read after %d progress frames: %v", len(c.progress), err)
		}
		c.take(kind, payload)
	}
}

func (c *streamReader) take(kind byte, payload []byte) {
	c.t.Helper()
	switch kind {
	case msgProgress:
		var m EpochMetric
		if err := json.Unmarshal(payload, &m); err != nil {
			c.t.Fatal(err)
		}
		c.progress = append(c.progress, m.Epoch)
	case msgCheckpoint:
		c.checkpoints, c.snapshot = c.checkpoints+1, len(payload)
	case msgResult:
		c.result = new(resultMeta)
		if err := json.Unmarshal(payload, c.result); err != nil {
			c.t.Fatal(err)
		}
	case msgState:
		ck, err := serialize.ReadTrainCheckpoint(bytes.NewReader(payload))
		if err != nil {
			c.t.Fatal(err)
		}
		c.final = ck.Epoch
	default:
		c.t.Fatalf("unexpected frame kind %d in a job stream", kind)
	}
}

// checkOnce requires the progress epochs to be 1..n, each exactly once,
// and the stream to have ended with the state of epoch n.
func (c *streamReader) checkOnce() {
	c.t.Helper()
	for i, e := range c.progress {
		if e != i+1 {
			c.t.Fatalf("progress frame %d is epoch %d: an epoch was dropped or delivered twice", i, e)
		}
	}
	if c.result == nil || c.final != len(c.progress) {
		c.t.Fatalf("stream of %d progress frames ended with result %v and the state of epoch %d", len(c.progress), c.result != nil, c.final)
	}
}

// TestStalledClientHoldsJobOneEpochAhead pins the stream's backpressure
// bound. The job's cursor is written into a net.Pipe — every Write blocks
// until the far end reads it — and the far end stops reading after epoch
// k's progress frame. The stream is then stuck in epoch k's checkpoint
// frame, epoch k+1's progress is buffered, and the executor must wait to
// park epoch k+1's checkpoint: it trains one epoch past the stall, no
// further, and the heap holds the snapshots of those two epochs, not one
// per epoch it could have run ahead.
func TestStalledClientHoldsJobOneEpochAhead(t *testing.T) {
	const epochs, k = 40, 3
	req := longTextJob(t, epochs, 6000)

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	sch := newScheduler(ServerConfig{Executors: 1})
	sch.start()
	defer func() { sch.Finish(); sch.WaitIdle() }()
	serverEnd, clientEnd := net.Pipe()
	// Runs first on the way out: a failed test must not leave the stream
	// in a Write nobody reads, and the executor behind it.
	defer clientEnd.Close()
	cur := newCursor(true)
	job, err := sch.Submit(req, cur)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamTo(streamServer(sch), serverEnd, job, cur)

	client := newStreamReader(t, clientEnd)
	client.readUntil(func() bool { return len(client.progress) == k })

	deadline := time.Now().Add(30 * time.Second)
	for trainedEpochs(job) < k+1 {
		if time.Now().After(deadline) {
			t.Fatalf("executor stuck at epoch %d with the client stalled after epoch %d", trainedEpochs(job), k)
		}
		time.Sleep(time.Millisecond)
	}
	// A bound can only be watched holding, not signalled: give a job that
	// trains an epoch in about a millisecond two hundred of them to
	// overrun it. Too short a wait can pass a broken bound, never fail a
	// sound one.
	time.Sleep(200 * time.Millisecond)
	if got := trainedEpochs(job); got != k+1 {
		t.Fatalf("client stalled after epoch %d, executor trained through epoch %d; want exactly %d", k, got, k+1)
	}
	var stalled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&stalled)
	// Live now: the model, its gradients and momentum (about 1.5
	// snapshots), the two snapshots in flight and this client's frame
	// buffer. Running ahead unbounded would hold one per remaining epoch.
	if grew := int64(stalled.HeapAlloc) - int64(before.HeapAlloc); grew > int64(10*client.snapshot) {
		t.Errorf("heap grew %d bytes while stalled, over 10 snapshots of %d", grew, client.snapshot)
	}

	// The client comes back: every epoch arrives, in order, exactly once.
	// (The last epoch has no checkpoint frame: the terminal frames are it.)
	client.readUntil(func() bool { return client.final != 0 })
	if err := <-streamed; err != nil {
		t.Fatalf("stream ended with %v", err)
	}
	client.checkOnce()
	if len(client.progress) != epochs || client.checkpoints != epochs-1 {
		t.Fatalf("stream carried %d progress and %d checkpoint frames, want %d and %d", len(client.progress), client.checkpoints, epochs, epochs-1)
	}
}

// TestStalledClientBlocksNoObserver stalls an attached client in the
// middle of a checkpoint frame. Its job waits for it there, but nothing
// that only looks at or stops the job may: Status, Views, Cancel and
// CancelAll each return at once, while the job's frames stay blocked. The
// client reads again, and the job ends cancelled with every epoch streamed
// exactly once.
func TestStalledClientBlocksNoObserver(t *testing.T) {
	req := longTextJob(t, 1000, 6000)
	sch := newScheduler(ServerConfig{Executors: 1})
	sch.start()
	defer func() { sch.Finish(); sch.WaitIdle() }()
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	cur := newCursor(true)
	job, err := sch.Submit(req, cur)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamTo(streamServer(sch), serverEnd, job, cur)

	// The first progress frame, then only the checkpoint's header: the
	// stream is inside that checkpoint's payload.
	client := newStreamReader(t, clientEnd)
	client.readUntil(func() bool { return len(client.progress) == 1 })
	var hdr [5]byte
	if _, err := io.ReadFull(clientEnd, hdr[:]); err != nil || hdr[0] != msgCheckpoint {
		t.Fatalf("after epoch 1's progress: frame kind %d, %v; want a checkpoint", hdr[0], err)
	}
	// Time for the executor to train epoch 2 and reach the checkpoint it
	// must wait at.
	time.Sleep(200 * time.Millisecond)

	returns := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked behind a stalled client", what)
		}
	}
	returns("Status", func() {
		if st, err := sch.Status(job.id); err != nil || st.State != "running" {
			t.Errorf("status of the stalled job: %+v, %v", st, err)
		}
	})
	returns("Views", func() { sch.Views() })
	returns("Cancel", func() {
		if err := sch.Cancel(job.id); err != nil {
			t.Error(err)
		}
	})
	returns("CancelAll", sch.CancelAll)

	// Cancelled, but held at its next checkpoint by the client.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-job.done:
		t.Fatal("the job finished while its client was stalled inside a checkpoint")
	default:
	}
	if got := trainedEpochs(job); got > 2 {
		t.Fatalf("client stalled in epoch 1's checkpoint, executor trained through epoch %d", got)
	}

	payload := make([]byte, binary.LittleEndian.Uint32(hdr[1:]))
	if _, err := io.ReadFull(clientEnd, payload); err != nil {
		t.Fatal(err)
	}
	client.take(msgCheckpoint, payload)
	client.readUntil(func() bool { return client.final != 0 })
	if err := <-streamed; err != nil {
		t.Fatalf("stream ended with %v", err)
	}
	client.checkOnce()
	if !client.result.Cancelled || len(client.progress) > 2 {
		t.Fatalf("result cancelled=%v after %d epochs; want cancelled within one epoch of the stall", client.result.Cancelled, len(client.progress))
	}
}

// TestStalledClientHoldsNoCheckpointFreeJob: a job that cuts no
// checkpoints has nothing to wait for its client on — its progress is
// buffered whole — so a client that stops reading inside the first
// progress frame does not hold the executor. The job finishes; the client
// reads again and gets every epoch exactly once, then the result.
func TestStalledClientHoldsNoCheckpointFreeJob(t *testing.T) {
	const epochs = 200
	req := longTextJob(t, epochs, 0)
	req.Hyper.CheckpointEvery = 0
	sch := newScheduler(ServerConfig{Executors: 1})
	sch.start()
	defer func() { sch.Finish(); sch.WaitIdle() }()
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	cur := newCursor(true)
	job, err := sch.Submit(req, cur)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamTo(streamServer(sch), serverEnd, job, cur)
	var part [2]byte
	if _, err := io.ReadFull(clientEnd, part[:]); err != nil {
		t.Fatal(err)
	}

	select {
	case <-job.done:
	case <-time.After(60 * time.Second):
		t.Fatal("a checkpoint-free job held by a client stalled in its first frame")
	}

	rest := &streamReader{t: t, fr: frameReader{r: io.MultiReader(bytes.NewReader(part[:]), clientEnd)}}
	rest.readUntil(func() bool { return rest.final != 0 })
	if err := <-streamed; err != nil {
		t.Fatalf("stream ended with %v", err)
	}
	rest.checkOnce()
	if len(rest.progress) != epochs || rest.checkpoints != 0 {
		t.Fatalf("stream carried %d progress and %d checkpoint frames, want %d and none", len(rest.progress), rest.checkpoints, epochs)
	}
}

// TestMidTrainingClientDeathDetachesSink cuts the attached connection in
// the middle of a checkpoint frame. The stream's failure detaches its
// cursor — the job is not the connection's to kill — the job runs to done
// with nobody attached, and a fresh attach replays every epoch exactly
// once and the unbroken run's final weights.
func TestMidTrainingClientDeathDetachesSink(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Connection 0 submits, connection 1 polls; connection 2, the first
	// attach, asks for no replay and dies 2000 bytes into its reply: past
	// the first live progress frame, inside the first live checkpoint.
	fl := faultnet.Wrap(inner, func(i int) faultnet.ConnPlan {
		if i == 2 {
			return faultnet.ConnPlan{CutAfterWriteBytes: 2000}
		}
		return faultnet.ConnPlan{}
	})
	server := NewServerConfig(fl, ServerConfig{Executors: 1})
	t.Cleanup(func() { fl.Close(); server.Wait() })
	addr := fl.Addr().String()

	const epochs = 1000
	req := longTextJob(t, epochs, 0)
	id, err := SubmitContext(context.Background(), addr, req, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := PollContext(context.Background(), addr, id, NetConfig{}); err != nil || st.State == "done" {
		t.Fatalf("job finished before the attach that was to die on it (status %+v, err %v)", st, err)
	}
	if _, err := AttachContext(context.Background(), addr, AttachRequest{JobID: id, FromEpoch: epochs}, StreamHandlers{}, NetConfig{}); err == nil {
		t.Fatal("an attach cut mid-frame returned a result")
	}
	pollUntil(t, addr, id, func(st JobStatus) bool { return st.State == "done" })

	var seen []int
	resp, err := AttachContext(context.Background(), addr, AttachRequest{JobID: id}, StreamHandlers{
		Progress: func(m EpochMetric) { seen = append(seen, m.Epoch) },
	}, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != epochs {
		t.Fatalf("re-attach delivered %d epochs, want %d", len(seen), epochs)
	}
	for i, e := range seen {
		if e != i+1 {
			t.Fatalf("seen[%d] = %d: an epoch was dropped or delivered twice", i, e)
		}
	}
	ref := runReference(t, longTextJob(t, epochs, 0))
	for name, w := range ref.resp.State {
		if !resp.State[name].Equal(w) {
			t.Fatalf("job whose client died diverged from the unbroken run at %q", name)
		}
	}
}

// liveStreams counts job-stream goroutines in the process: stream loops
// and their connections' cancel watchers.
func liveStreams() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Server).stream")
}

// TestNoWriterOutlivesItsConnection walks every way a job stream ends —
// normal completion, the client's msgCancel, the connection dying, the
// shutdown handoff, a rejected submit, an attach superseded by a later
// one — and requires each to leave no stream goroutine behind while the
// server is still up, and the process to be back at its starting
// goroutine count once the server is down.
func TestNoWriterOutlivesItsConnection(t *testing.T) {
	// The tensor worker pool starts on first use and stays: have it up
	// before counting.
	if _, err := RunLocal(textJob(t)); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	settle := func(what string, count func() int, want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for count() > want {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: %d goroutines, want <= %d\n%s", what, count(), want, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	ctx := context.Background()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServerConfig(l, ServerConfig{Executors: 1, QueueDepth: 1})
	addr := l.Addr().String()

	// Normal end.
	if _, err := TrainContext(ctx, addr, textJob(t), StreamHandlers{}); err != nil {
		t.Fatal(err)
	}
	settle("after a completed job", liveStreams, 0)

	// The client cancels after the first epoch.
	cctx, cancel := context.WithCancel(ctx)
	resp, err := TrainContext(cctx, addr, longTextJob(t, 2000, 0), StreamHandlers{Progress: func(EpochMetric) { cancel() }})
	cancel()
	if err != nil || !resp.Cancelled {
		t.Fatalf("cancelled job: resp %+v, err %v", resp, err)
	}
	settle("after a client cancel", liveStreams, 0)

	// The connection dies after the first frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRequest(conn, longTextJob(t, 2000, 0), msgDone); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	settle("after a connection death", liveStreams, 0)

	// An attach superseded by a later one; both end with the job.
	id, err := SubmitContext(ctx, addr, longTextJob(t, 300, 0), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	attached := make(chan struct{}, 1)
	go func() {
		_, err := AttachContext(ctx, addr, AttachRequest{JobID: id}, StreamHandlers{Progress: func(EpochMetric) {
			select {
			case attached <- struct{}{}:
			default:
			}
		}}, NetConfig{})
		first <- err
	}()
	<-attached
	if _, err := AttachContext(ctx, addr, AttachRequest{JobID: id}, StreamHandlers{}, NetConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatalf("superseded attach: %v", err)
	}
	settle("after a superseded attach", liveStreams, 0)

	// A rejected submit: one job running, one queued, the third refused.
	running, err := SubmitContext(ctx, addr, longTextJob(t, 100000, 0), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, addr, running, func(st JobStatus) bool { return st.State == "running" })
	queued, err := SubmitContext(ctx, addr, textJob(t), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainContext(ctx, addr, textJob(t), StreamHandlers{}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third job: %v, want an admission reject", err)
	}
	settle("after a rejected submit", liveStreams, 0)
	for _, id := range []string{running, queued} {
		if _, err := CancelJobContext(ctx, addr, id, NetConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	pollUntil(t, addr, queued, func(st JobStatus) bool { return st.State != "queued" && st.State != "running" })

	// The shutdown handoff ends a connected client's stream.
	handedOff := make(chan error, 1)
	started := make(chan struct{}, 1)
	go func() {
		_, err := TrainContext(ctx, addr, longTextJob(t, 100000, 0), StreamHandlers{Progress: func(EpochMetric) {
			select {
			case started <- struct{}{}:
			default:
			}
		}})
		handedOff <- err
	}()
	<-started
	if err := server.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-handedOff; !errors.Is(err, ErrServerShutdown) {
		t.Fatalf("client of a draining server: %v, want ErrServerShutdown", err)
	}
	settle("after the shutdown handoff", liveStreams, 0)
	settle("after the server is down", runtime.NumGoroutine, baseline)
}
