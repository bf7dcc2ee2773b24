package cloudsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
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

// TestStalledClientHoldsJobOneEpochAhead pins the writer's backpressure
// bound. The job's sink writes into a net.Pipe — every Write blocks
// until the far end reads it — and the far end stops reading after
// epoch k's progress frame. The writer is then stuck in epoch k's
// checkpoint frame, the queue takes epoch k+1's progress, and the
// executor must block handing over epoch k+1's checkpoint: it trains one
// epoch past the stall, no further, and the heap holds the snapshots of
// those two epochs, not one per epoch it could have run ahead.
func TestStalledClientHoldsJobOneEpochAhead(t *testing.T) {
	const epochs, k = 40, 3
	req := longTextJob(t, epochs, 6000)

	serverEnd, clientEnd := net.Pipe()
	w := newConnWriter(newDeadlineConn(serverEnd, 0, 0))
	defer w.close()
	sink := w.sink(req, true)
	var trained atomic.Int64 // epochs the executor has finished training
	enqueueProgress := sink.progress
	sink.progress = func(m EpochMetric) error {
		trained.Store(int64(m.Epoch))
		return enqueueProgress(m)
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	sch := newScheduler(ServerConfig{Executors: 1})
	sch.start()
	defer func() { sch.Finish(); sch.WaitIdle() }()
	// Runs first on the way out: a failed test must not leave the writer
	// in a Write nobody reads, and the executor behind it.
	defer clientEnd.Close()
	job, err := sch.Submit(req, sink)
	if err != nil {
		t.Fatal(err)
	}

	client := &frameReader{r: clientEnd}
	var progress []int
	checkpoints, snapshot := 0, 0
	readFrames := func(until func() bool) {
		for !until() {
			kind, payload, err := client.next()
			if err != nil {
				t.Fatalf("client read after %d progress frames: %v", len(progress), err)
			}
			switch kind {
			case msgProgress:
				var m EpochMetric
				if err := json.Unmarshal(payload, &m); err != nil {
					t.Fatal(err)
				}
				progress = append(progress, m.Epoch)
			case msgCheckpoint:
				checkpoints, snapshot = checkpoints+1, len(payload)
			}
		}
	}
	readFrames(func() bool { return len(progress) == k })

	deadline := time.Now().Add(30 * time.Second)
	for trained.Load() < k+1 {
		if time.Now().After(deadline) {
			t.Fatalf("executor stuck at epoch %d with the client stalled after epoch %d", trained.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
	// A bound can only be watched holding, not signalled: give a job that
	// trains an epoch in about a millisecond two hundred of them to
	// overrun it. Too short a wait can pass a broken bound, never fail a
	// sound one.
	time.Sleep(200 * time.Millisecond)
	if got := trained.Load(); got != k+1 {
		t.Fatalf("client stalled after epoch %d, executor trained through epoch %d; want exactly %d", k, got, k+1)
	}
	var stalled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&stalled)
	// Live now: the model, its gradients and momentum (about 1.5
	// snapshots), the two snapshots in flight and this client's frame
	// buffer. Running ahead unbounded would hold one per remaining epoch.
	if grew := int64(stalled.HeapAlloc) - int64(before.HeapAlloc); grew > int64(10*snapshot) {
		t.Errorf("heap grew %d bytes while stalled, over 10 snapshots of %d", grew, snapshot)
	}

	// The client comes back: every epoch arrives, in order, exactly once.
	// (The last epoch has no checkpoint frame: the terminal frames are it.)
	readFrames(func() bool { return len(progress) == epochs && checkpoints == epochs-1 })
	<-job.done
	if err := w.close(); err != nil {
		t.Fatalf("writer ended with %v", err)
	}
	for i, e := range progress {
		if e != i+1 {
			t.Fatalf("progress frame %d is epoch %d", i, e)
		}
	}
}

// TestMidTrainingClientDeathDetachesSink cuts the attached connection in
// the middle of a checkpoint frame. The writer's failure detaches the
// sink — the job is not the connection's to kill — the job runs to done
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

// liveWriters counts connWriter goroutines in the process.
func liveWriters() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*connWriter).run(")
}

// TestNoWriterOutlivesItsConnection walks every way a job stream ends —
// normal completion, the client's msgCancel, the connection dying, the
// shutdown handoff, a rejected submit, an attach superseded by a later
// one — and requires each to leave no writer goroutine behind while the
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
	settle("after a completed job", liveWriters, 0)

	// The client cancels after the first epoch.
	cctx, cancel := context.WithCancel(ctx)
	resp, err := TrainContext(cctx, addr, longTextJob(t, 2000, 0), StreamHandlers{Progress: func(EpochMetric) { cancel() }})
	cancel()
	if err != nil || !resp.Cancelled {
		t.Fatalf("cancelled job: resp %+v, err %v", resp, err)
	}
	settle("after a client cancel", liveWriters, 0)

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
	settle("after a connection death", liveWriters, 0)

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
	settle("after a superseded attach", liveWriters, 0)

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
	settle("after a rejected submit", liveWriters, 0)
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
	settle("after the shutdown handoff", liveWriters, 0)
	settle("after the server is down", runtime.NumGoroutine, baseline)
}
