package cloudsim

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"amalgam/internal/nn"
)

// startAsyncServer spins a server with explicit scheduler limits.
func startAsyncServer(t *testing.T, cfg ServerConfig) (string, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServerConfig(l, cfg)
	t.Cleanup(func() {
		l.Close()
		server.Wait()
	})
	return l.Addr().String(), server
}

// pollUntil polls a job until cond accepts its status (or the deadline
// trips), making cross-connection state transitions deterministic to
// assert on.
func pollUntil(t *testing.T, addr, id string, cond func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := PollContext(context.Background(), addr, id, NetConfig{})
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll %s: stuck at %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAsyncSubmitPollAttach drives the full async conversation over the
// wire: submit → ack with a durable ID → poll to terminal → attach for
// the buffered stats and the final weights, which must be bit-identical
// to the same request trained in-process.
func TestAsyncSubmitPollAttach(t *testing.T) {
	addr, _ := startAsyncServer(t, ServerConfig{Executors: 2})

	req, _, _ := tinyJob(t, true)
	model, err := BuildModel(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	req.InitState = nn.StateDict(model)
	req.Hyper.Stream = true

	id, err := SubmitContext(context.Background(), addr, req, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("submit ack carries no job ID")
	}

	st := pollUntil(t, addr, id, func(st JobStatus) bool { return st.State == "done" })
	if st.CompletedEpochs != req.Hyper.Epochs {
		t.Fatalf("done status reports %d epochs, want %d", st.CompletedEpochs, req.Hyper.Epochs)
	}

	var epochs []int
	resp, err := AttachContext(context.Background(), addr, AttachRequest{JobID: id},
		StreamHandlers{Progress: func(m EpochMetric) { epochs = append(epochs, m.Epoch) }}, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != req.Hyper.Epochs {
		t.Fatalf("attach replayed %d epochs, want %d", len(epochs), req.Hyper.Epochs)
	}
	for i, e := range epochs {
		if e != i+1 {
			t.Fatalf("replayed epoch[%d] = %d, want %d", i, e, i+1)
		}
	}

	// A second attach claiming epoch 1 replays only what is newer.
	epochs = nil
	if _, err := AttachContext(context.Background(), addr, AttachRequest{JobID: id, FromEpoch: 1},
		StreamHandlers{Progress: func(m EpochMetric) { epochs = append(epochs, m.Epoch) }}, NetConfig{}); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != req.Hyper.Epochs-1 || epochs[0] != 2 {
		t.Fatalf("FromEpoch=1 replayed %v, want epochs 2..%d", epochs, req.Hyper.Epochs)
	}

	ref, _, _ := tinyJob(t, true)
	ref.InitState = req.InitState
	local, err := RunLocal(ref)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range local.State {
		if !resp.State[name].Equal(want) {
			t.Fatalf("scheduled job diverged from run-alone at %q", name)
		}
	}
}

// TestJobIDsAreUnguessable: job IDs are drawn at random, not counted, so
// two fresh servers (a restart, say) never issue the same one — a client
// re-attaching after a restart cannot land on another tenant's job — and
// an ID made up by counting names no job: attach, poll and cancel answer
// ErrUnknownJob even on a server that has admitted jobs.
func TestJobIDsAreUnguessable(t *testing.T) {
	ctx := context.Background()
	issued := map[string]bool{}
	for range 2 {
		addr, _ := startAsyncServer(t, ServerConfig{Executors: 1})
		for range 3 {
			id, err := SubmitContext(ctx, addr, textJob(t), NetConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if issued[id] {
				t.Fatalf("job ID %q issued twice", id)
			}
			issued[id] = true
		}
		const counted = "job-000001"
		if _, err := AttachContext(ctx, addr, AttachRequest{JobID: counted}, StreamHandlers{}, NetConfig{}); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("attach to %s: %v, want ErrUnknownJob", counted, err)
		}
		if _, err := PollContext(ctx, addr, counted, NetConfig{}); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("poll of %s: %v, want ErrUnknownJob", counted, err)
		}
		if _, err := CancelJobContext(ctx, addr, counted, NetConfig{}); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("cancel of %s: %v, want ErrUnknownJob", counted, err)
		}
	}
}

// TestAsyncUnknownJob pins the fatal reject for IDs the scheduler never
// issued, across all three by-ID operations.
func TestAsyncUnknownJob(t *testing.T) {
	addr, _ := startAsyncServer(t, ServerConfig{Executors: 1})
	if _, err := PollContext(context.Background(), addr, "job-999999", NetConfig{}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("poll: got %v, want ErrUnknownJob", err)
	}
	if _, err := AttachContext(context.Background(), addr, AttachRequest{JobID: "nope"}, StreamHandlers{}, NetConfig{}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("attach: got %v, want ErrUnknownJob", err)
	}
	_, err := CancelJobContext(context.Background(), addr, "nope", NetConfig{})
	if !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel: got %v, want ErrUnknownJob", err)
	}
	if IsTransient(err) {
		t.Fatal("a wire-borne ErrUnknownJob must stay fatal after decode")
	}
}

// TestAsyncAdmissionRejectsOverWire recreates the typed admission rejects
// through the protocol: with one executor pinned by a long job, the
// per-tenant quota trips first, then the global queue depth — each
// surfacing client-side as its sentinel, transient for retry loops.
func TestAsyncAdmissionRejectsOverWire(t *testing.T) {
	addr, _ := startAsyncServer(t, ServerConfig{Executors: 1, QueueDepth: 2, TenantQuota: 1})

	long, _, _ := tinyJob(t, false)
	long.Hyper.Epochs = 500
	long.Hyper.Stream = true
	pin, err := SubmitContext(context.Background(), addr, long, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The queued→running transition frees the pin job's queue slot, making
	// the occupancy below exact.
	pollUntil(t, addr, pin, func(st JobStatus) bool { return st.State == "running" })

	submit := func(tenant string) (string, error) {
		req, _, _ := tinyJob(t, false)
		req.Spec.Tenant = tenant
		return SubmitContext(context.Background(), addr, req, NetConfig{})
	}
	queuedX, err := submit("x")
	if err != nil {
		t.Fatal(err)
	}
	st := pollUntil(t, addr, queuedX, func(st JobStatus) bool { return st.State == "queued" })
	if st.QueuePos != 1 || st.Tenant != "x" {
		t.Fatalf("queued status %+v, want tenant x at position 1", st)
	}

	if _, err := submit("x"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota: got %v, want ErrTenantQuota", err)
	} else if !IsTransient(err) {
		t.Fatal("wire-borne ErrTenantQuota must stay transient")
	}

	if _, err := submit("y"); err != nil {
		t.Fatal(err)
	}
	if _, err := submit("z"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth: got %v, want ErrQueueFull", err)
	} else if !IsTransient(err) {
		t.Fatal("wire-borne ErrQueueFull must stay transient")
	}

	// Unpin and drain so the deferred server.Wait returns promptly.
	if _, err := CancelJobContext(context.Background(), addr, pin, NetConfig{}); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, addr, pin, func(st JobStatus) bool { return st.State == "cancelled" })
}

// TestAsyncCancelByID cancels a running job over a fresh connection and
// attaches to its epoch-aligned partial result.
func TestAsyncCancelByID(t *testing.T) {
	addr, _ := startAsyncServer(t, ServerConfig{Executors: 1})

	req, _, _ := tinyJob(t, false)
	req.Hyper.Epochs = 500
	req.Hyper.Stream = true
	id, err := SubmitContext(context.Background(), addr, req, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, addr, id, func(st JobStatus) bool { return st.State == "running" && st.CompletedEpochs >= 1 })

	if _, err := CancelJobContext(context.Background(), addr, id, NetConfig{}); err != nil {
		t.Fatal(err)
	}
	st := pollUntil(t, addr, id, func(st JobStatus) bool { return st.State == "cancelled" })
	if st.CompletedEpochs < 1 || st.CompletedEpochs >= 500 {
		t.Fatalf("cancelled at %d epochs, want an epoch-aligned partial", st.CompletedEpochs)
	}

	resp, err := AttachContext(context.Background(), addr, AttachRequest{JobID: id}, StreamHandlers{}, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cancelled || resp.CompletedEpochs != st.CompletedEpochs || len(resp.State) == 0 {
		t.Fatalf("attached result cancelled=%v epochs=%d state=%d entries, want the partial weights",
			resp.Cancelled, resp.CompletedEpochs, len(resp.State))
	}
}
