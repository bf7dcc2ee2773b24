package cloudsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"

	"amalgam/internal/optim"
	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// These tests pin the client's half of "a remote job's state exists once
// per side": every epoch boundary a stream carries lands in the tensors
// the caller names (StreamHandlers.Into), whole or not at all, and a
// checkpoint nobody keeps is never materialised.

// recordStream runs req on a scheduler and returns the job stream its
// client reads, byte for byte.
func recordStream(t *testing.T, req *TrainRequest) []byte {
	t.Helper()
	sch := newScheduler(ServerConfig{Executors: 1})
	sch.start()
	defer func() { sch.Finish(); sch.WaitIdle() }()
	serverEnd, clientEnd := net.Pipe()
	var raw bytes.Buffer
	copied := make(chan error, 1)
	go func() { _, err := io.Copy(&raw, clientEnd); copied <- err }()
	cur := newCursor(true)
	job, err := sch.Submit(req, cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-streamTo(streamServer(sch), serverEnd, job, cur); err != nil {
		t.Fatal(err)
	}
	serverEnd.Close()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// readRecorded runs the client's read loop over a recorded stream.
func readRecorded(raw []byte, h StreamHandlers) (*TrainResponse, error) {
	fc := &fakeConn{}
	fc.r.Reset(raw)
	return readJobStream(context.Background(), newDeadlineConn(fc, 0, 0), h)
}

// modelLike returns fresh tensors shaped like state: a client model.
func modelLike(state map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(state))
	for name, w := range state {
		out[name] = tensor.New(w.Shape()...)
	}
	return out
}

// TestRemoteClientAllocationBudget pins what a client allocates per
// checkpointed epoch — a 12-epoch stream less a 4-epoch one, over eight:
// under 1 MB, where decoding each checkpoint into fresh tensors cost the
// checkpoint's size (≈7 MB here) every epoch. It holds for a client whose
// checkpoints land in its model and are handed to a hook (RemoteTrainer
// under WithRetry), and for one that keeps no checkpoint at all. A whole
// stream into the model costs one checkpoint frame, the optimiser buffers
// and under 1 MB besides, where growing the frame buffer to the first
// checkpoint through doublings left about a frame more. The boundaries
// that land in place are the fresh decode's, bit for bit.
func TestRemoteClientAllocationBudget(t *testing.T) {
	const budget = 1 << 20
	streams := map[int][]byte{}
	var state map[string]*tensor.Tensor
	var hyper Hyper
	for _, epochs := range []int{4, 12} {
		req := wideTextJob(t, 8)
		req.Hyper.Epochs, req.Hyper.CheckpointEvery = epochs, 1
		state, hyper = req.InitState, req.Hyper
		streams[epochs] = recordStream(t, req)
	}
	for name, h := range map[string]func() StreamHandlers{
		"into the model": func() StreamHandlers {
			return StreamHandlers{Into: &serialize.TrainCheckpoint{State: modelLike(state)},
				Checkpoint: func(*serialize.TrainCheckpoint) {}}
		},
		"kept by nobody": func() StreamHandlers { return StreamHandlers{} },
	} {
		t.Run(name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("byte budgets are not meaningful under the race detector")
			}
			read := func(epochs int) uint64 {
				handlers := h()
				var err error
				grew := allocatedBy(func() { _, err = readRecorded(streams[epochs], handlers) })
				if err != nil {
					t.Fatal(err)
				}
				return grew
			}
			read(12) // warm the runtime's own caches
			if per := (read(12) - read(4)) / 8; per > budget {
				t.Errorf("the client allocates %d bytes per checkpointed epoch, budget %d", per, budget)
			}
		})
	}

	t.Run("whole stream into the model", func(t *testing.T) {
		if raceEnabled {
			t.Skip("byte budgets are not meaningful under the race detector")
		}
		fr := frameReader{r: bytes.NewReader(streams[4])}
		frame := 0
		for frame == 0 {
			kind, payload, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			if kind == msgCheckpoint {
				frame = len(payload)
			}
		}
		// As RemoteTrainer.Run's stream: into the model, the reserve sized
		// by the job's optimiser.
		read := func() uint64 {
			h := StreamHandlers{Into: &serialize.TrainCheckpoint{State: modelLike(state)},
				Checkpoint: func(*serialize.TrainCheckpoint) {}, optBuffers: hyper.optBuffers()}
			var err error
			grew := allocatedBy(func() { _, err = readRecorded(streams[4], h) })
			if err != nil {
				t.Fatal(err)
			}
			return grew
		}
		read() // warm the runtime's own caches
		limit := uint64(frame + serialize.StateDictSize(state) + budget)
		if got := read(); got > limit {
			t.Errorf("a 4-epoch stream into the model allocated %d bytes: over one %d-byte frame, %d bytes of optimiser buffers and %d",
				got, frame, serialize.StateDictSize(state), budget)
		}
	})

	// In place and fresh, the same boundaries.
	into := &serialize.TrainCheckpoint{State: modelLike(state)}
	var landed, fresh []int
	got, err := readRecorded(streams[12], StreamHandlers{Into: into, Checkpoint: func(ck *serialize.TrainCheckpoint) {
		if ck != into {
			t.Error("the hook was handed a copy, not the destination")
		}
		landed = append(landed, ck.Epoch)
	}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := readRecorded(streams[12], StreamHandlers{Checkpoint: func(ck *serialize.TrainCheckpoint) {
		fresh = append(fresh, ck.Epoch)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got.State, into.State) || got.OptState != into.OptState {
		t.Fatal("the response does not hold the destination's tensors")
	}
	if len(landed) != 11 || !slices.Equal(landed, fresh) || got.CompletedEpochs != 12 {
		t.Fatalf("checkpoints %v in place, %v fresh, final epoch %d", landed, fresh, got.CompletedEpochs)
	}
	if !sameTensors(got.State, want.State) || !sameTensors(got.OptState.Buffers, want.OptState.Buffers) {
		t.Fatal("the final state landed in place differs from the fresh decode")
	}
}

func sameTensors(a, b map[string]*tensor.Tensor) bool {
	return maps.EqualFunc(a, b, (*tensor.Tensor).Equal)
}

// TestBadBoundaryFrameLeavesTheModel: a server sends one good checkpoint,
// then an epoch boundary that does not fit the client's model, or does not
// decode. The client fails — fatally, as ErrMismatch, for a boundary of
// another shape — and its model holds the good checkpoint, bit for bit:
// nothing of the bad frame was written.
func TestBadBoundaryFrameLeavesTheModel(t *testing.T) {
	boundary := func(seed uint64, epoch int, fcShape ...int) *serialize.TrainCheckpoint {
		rng := tensor.NewRNG(seed)
		state := map[string]*tensor.Tensor{"emb": tensor.New(40, 8), "fc.w": tensor.New(fcShape...)}
		mom := map[string]*tensor.Tensor{"emb": tensor.New(40, 8), "fc.w": tensor.New(fcShape...)}
		for _, d := range []map[string]*tensor.Tensor{state, mom} {
			for _, name := range slices.Sorted(maps.Keys(d)) {
				rng.FillNormal(d[name], 0, 1)
			}
		}
		return &serialize.TrainCheckpoint{Epoch: epoch, Kind: "augmented-text", State: state,
			OptState: &optim.State{Kind: optim.KindSGD, LR: 0.5, Buffers: mom}}
	}
	encode := func(ck *serialize.TrainCheckpoint) []byte {
		var buf bytes.Buffer
		if err := serialize.WriteTrainCheckpoint(&buf, ck); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := boundary(1, 1, 8, 3)
	whole := encode(boundary(2, 2, 8, 3))
	cases := []struct {
		name     string
		kind     byte
		payload  []byte
		says     string
		mismatch bool
	}{
		{"mis-shaped checkpoint", msgCheckpoint, encode(boundary(2, 2, 3, 8)), "bad checkpoint frame", true},
		{"mis-shaped final state", msgState, encode(boundary(2, 2, 8, 4)), "bad final state frame", true},
		{"checkpoint cut short", msgCheckpoint, whole[:len(whole)-100], "bad checkpoint frame", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serverEnd, clientEnd := net.Pipe()
			defer clientEnd.Close()
			go func() {
				defer serverEnd.Close()
				s := newFrameStream(serverEnd)
				s.json(msgProgress, EpochMetric{Epoch: 1})
				s.checkpoint(msgCheckpoint, good)
				s.json(msgProgress, EpochMetric{Epoch: 2})
				if c.kind == msgState {
					s.json(msgResult, resultMeta{Metrics: []EpochMetric{{Epoch: 1}, {Epoch: 2}}})
				}
				s.bytes(c.kind, c.payload)
				_ = s.flush()
			}()
			model := modelLike(good.State)
			into := &serialize.TrainCheckpoint{State: model}
			var seen []int
			_, err := readJobStream(context.Background(), newDeadlineConn(clientEnd, 0, 0), StreamHandlers{
				Into: into, Checkpoint: func(ck *serialize.TrainCheckpoint) { seen = append(seen, ck.Epoch) }})
			if err == nil || !strings.Contains(err.Error(), c.says) {
				t.Fatalf("the client read the stream as %v, want %q", err, c.says)
			}
			if c.mismatch && (!errors.Is(err, serialize.ErrMismatch) || IsTransient(err)) {
				t.Errorf("error %v: want a fatal serialize.ErrMismatch", err)
			}
			if !slices.Equal(seen, []int{1}) || into.Epoch != 1 {
				t.Fatalf("checkpoints %v reached the hook, the destination is at epoch %d: want the good one alone", seen, into.Epoch)
			}
			if !sameTensors(model, good.State) || !sameTensors(into.OptState.Buffers, good.OptState.Buffers) {
				t.Fatal("the model is not the good checkpoint: the bad frame was written into it")
			}
		})
	}
}

// TestStreamingServerHoldsOneInitialState: a client resuming a job ships
// its weights and optimiser state in msgInit. The server loads both — the
// weights into the job's model at admission, the optimiser state into the
// job's optimiser as the loop starts — and must keep no decoded copy of
// either while the job streams. (It kept the optimiser state in the job's
// request until the job ended: one more copy of the state per streaming
// job.) Measured on the server's heap at the same epoch of the same job
// shipped without them, on a fresh server each. The job is far longer than
// the sample needs and cancelled once it is taken: a client that lags its
// job's progress under load must still find the job training, not
// finished, its run's gradient buffers already dropped.
func TestStreamingServerHoldsOneInitialState(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// streamingHeap is the heap while the job's fourth epoch trains.
	streamingHeap := func(weights, momentum bool) uint64 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		server := NewServerConfig(l, ServerConfig{Executors: 1})
		defer func() { l.Close(); server.Wait() }() // and its finished job with it
		req := wideTextJob(t, 8)
		req.Hyper.Epochs, req.Hyper.CheckpointEvery = 1000, 0
		state, mom := req.InitState, modelLike(req.InitState)
		if !weights {
			req.InitState = nil
		}
		if momentum {
			req.InitOptState = &optim.State{Kind: optim.KindSGD, LR: req.Hyper.LR, Buffers: mom}
		}
		var held uint64
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err = TrainContextNet(ctx, l.Addr().String(), req, StreamHandlers{Progress: func(m EpochMetric) {
			if m.Epoch == 3 {
				held = heap()
				cancel()
			}
		}}, NetConfig{})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		runtime.KeepAlive(state) // the client's model, in every arm
		runtime.KeepAlive(mom)
		return held
	}
	size := int64(serialize.StateDictSize(wideTextJob(t, 8).InitState))
	base := int64(streamingHeap(false, false))
	for _, arm := range []struct {
		name              string
		weights, momentum bool
	}{{"weights", true, false}, {"weights and momentum", true, true}} {
		if extra := int64(streamingHeap(arm.weights, arm.momentum)) - base; extra > size/4 {
			t.Errorf("resumed with %s, the streaming server holds %d bytes more than without (state: %d bytes)", arm.name, extra, size)
		}
	}
}
