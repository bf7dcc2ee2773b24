package cloudsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/nn"
	"amalgam/internal/serialize"
)

func TestSpecFrameVersionNegotiation(t *testing.T) {
	spec := ModelSpec{Kind: "plain-cv", Model: "lenet", Classes: 2}

	payload, err := encodeSpecFrame(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSpecFrame(payload)
	if err != nil || payload[0] != protocolVersion || got.Model != "lenet" {
		t.Fatalf("v%d decode: lead byte %d model=%q err=%v", protocolVersion, payload[0], got.Model, err)
	}

	// Every other version — past, future, or the bare JSON that was v1 —
	// must surface the sentinel.
	for _, skewed := range skewedSpecFrames(spec) {
		if _, err := decodeSpecFrame(skewed); !errors.Is(err, ErrProtocolVersion) {
			t.Fatalf("spec frame opening %#x: want ErrProtocolVersion, got %v", skewed[0], err)
		}
	}
}

// skewedSpecFrames are spec payloads as a v1 (bare JSON), v2, v3, and v77
// peer would send them.
func skewedSpecFrames(spec ModelSpec) [][]byte {
	js, _ := json.Marshal(spec)
	return [][]byte{js, append([]byte{2}, js...), append([]byte{3}, js...), append([]byte{77}, js...)}
}

// TestVersionSkewSentinelCrossesWire pins that a peer of any other
// protocol version gets a coded error frame it can match with errors.Is.
func TestVersionSkewSentinelCrossesWire(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()
	for _, skewed := range skewedSpecFrames(ModelSpec{Kind: "plain-cv", Model: "lenet"}) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := writeFrame(conn, msgSpec, skewed); err != nil {
			t.Fatal(err)
		}
		kind, payload, err := readFrame(conn)
		if err != nil || kind != msgError {
			t.Fatalf("spec frame opening %#x: want error frame, got kind=%d err=%v", skewed[0], kind, err)
		}
		if err := decodeErrorFrame(payload); !errors.Is(err, ErrProtocolVersion) {
			t.Fatalf("spec frame opening %#x: error frame not coded as version skew: %q", skewed[0], payload)
		}
	}
}

// TestMalformedFramesAreBadRequests pins that a request or control frame
// whose payload does not decode, and an init checkpoint cut for another
// kind of job than the spec's, reach the client as ErrBadRequest — not
// under the generic code, which no errors.Is can match.
func TestMalformedFramesAreBadRequests(t *testing.T) {
	addr, _ := startAsyncServer(t, ServerConfig{})
	req := textJob(t)
	model, err := BuildModel(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	// A whole train request but for its init frame, which initWith appends
	// before the terminator.
	body := encoded(t, func(w io.Writer) error { return writeRequest(w, req, msgDone) })
	body = body[:len(body)-5] // the empty msgDone frame
	initWith := func(kind string) []byte {
		return slices.Concat(body, encoded(t, func(w io.Writer) error {
			s := newFrameStream(w)
			s.checkpoint(msgInit, &serialize.TrainCheckpoint{Kind: kind, State: nn.StateDict(model)})
			s.bytes(msgDone, nil)
			return s.flush()
		}))
	}
	// The same request with the spec's own kind trains.
	converse(t, addr, initWith(req.Spec.Kind), msgState)

	frameOf := func(kind byte, payload string) []byte {
		return encoded(t, func(w io.Writer) error { return writeFrame(w, kind, []byte(payload)) })
	}
	for _, c := range []struct {
		name string
		up   []byte
	}{
		{"spec JSON", frameOf(msgSpec, string(protocolVersion)+"{")},
		{"hyper JSON", frameOf(msgHyper, "{")},
		{"labels cut short", frameOf(msgLabels, "\x01\x00")},
		{"images of a foreign magic", frameOf(msgImages, "AMX1\x01\x00")},
		{"init cut short", frameOf(msgInit, "\x01\x02\x03")},
		{"attach JSON", frameOf(msgAttach, "{")},
		{"poll JSON", frameOf(msgPoll, "{")},
		{"init of another kind", initWith("augmented-lm")},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(c.up); err != nil {
				t.Fatal(err)
			}
			kind, payload, err := readFrame(conn)
			if err != nil || kind != msgError {
				t.Fatalf("want an error frame, got kind=%d err=%v", kind, err)
			}
			if err := decodeErrorFrame(payload); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal %q is not coded as ErrBadRequest", payload)
			}
		})
	}
}

func TestFrameSizeSentinels(t *testing.T) {
	prev := maxFrame
	maxFrame = 16
	defer func() { maxFrame = prev }()

	var buf bytes.Buffer
	if err := writeFrame(&buf, msgState, make([]byte, 17)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write side: want ErrFrameTooLarge, got %v", err)
	}
	hdr := []byte{msgSpec, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read side: want ErrFrameTooLarge, got %v", err)
	}
}

func textJob(t *testing.T) *TrainRequest {
	t.Helper()
	const vocab, classes, seqLen = 300, 3, 16
	ds := data.GenerateClassifiedText(data.ClassTextConfig{
		Name: "t", N: 24, SeqLen: seqLen, Vocab: vocab, Classes: classes, Seed: 2})
	aug, err := core.AugmentTextDataset(ds, core.TextAugmentOptions{
		Amount: 0.5, Noise: core.DefaultTextNoise(vocab), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &TrainRequest{
		Spec: ModelSpec{
			Kind: "augmented-text", Vocab: vocab, EmbedDim: 8, Classes: classes, ModelSeed: 7,
			OrigLen: aug.Key.OrigLen, AugLen: aug.Key.AugLen, KeyKeep: aug.Key.Keep,
			AugAmount: 0.5, SubNets: 2, AugSeed: 3,
		},
		Hyper:   Hyper{Epochs: 2, BatchSize: 8, LR: 0.5, Momentum: 0.9, Stream: true, CheckpointEvery: 1},
		Samples: aug.Dataset.Samples,
		Labels:  aug.Dataset.Labels,
	}
}

// TestTextJobOverWire runs an augmented-text job through the TCP service
// with streaming and checkpoint frames, and pins wire/local equality.
func TestTextJobOverWire(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	req := textJob(t)
	var progress []EpochMetric
	checkpoints := 0
	resp, err := TrainContext(context.Background(), l.Addr().String(), req, StreamHandlers{
		Progress: func(m EpochMetric) { progress = append(progress, m) },
		Checkpoint: func(ck *serialize.TrainCheckpoint) {
			checkpoints++
			if ck.Kind != "augmented-text" {
				t.Errorf("checkpoint frame records kind %q, want augmented-text", ck.Kind)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) != req.Hyper.Epochs {
		t.Fatalf("streamed %d progress frames, want %d", len(progress), req.Hyper.Epochs)
	}
	if checkpoints != req.Hyper.Epochs {
		t.Fatalf("streamed %d checkpoint frames, want %d", len(progress), req.Hyper.Epochs)
	}
	local, err := RunLocal(textJob(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, tns := range local.State {
		if !resp.State[name].Equal(tns) {
			t.Fatalf("wire and local text training diverged at %q", name)
		}
	}

	// The provider view captured the text job without an image payload.
	views := server.Views()
	if len(views) != 1 {
		t.Fatalf("%d provider views", len(views))
	}
	v := views[0]
	if v.FirstImage != nil || len(v.FirstSample) != req.Spec.AugLen {
		t.Fatalf("text provider view: image=%v sample len=%d", v.FirstImage, len(v.FirstSample))
	}
	if len(v.GatherSets) != req.Spec.SubNets+1 {
		t.Fatalf("provider sees %d gather sets, want %d", len(v.GatherSets), req.Spec.SubNets+1)
	}
}

func lmJob(t *testing.T) *TrainRequest {
	t.Helper()
	const vocab, bptt = 300, 10
	stream := data.GenerateTokenStream(data.TextConfig{Name: "wt", Tokens: 400, Vocab: vocab, Seed: 2})
	aug, err := core.AugmentTokenStream(stream, core.TextAugmentOptions{
		Amount: 0.5, WindowLen: bptt, Noise: core.DefaultTextNoise(vocab), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &TrainRequest{
		Spec: ModelSpec{
			Kind: "augmented-lm", Vocab: vocab, ModelSeed: 7,
			LMDim: 16, LMHeads: 2, LMFF: 16, LMLayers: 1, LMMaxT: 32, LMDropout: 0.1,
			OrigLen: aug.Key.OrigLen, AugLen: aug.Key.AugLen, KeyKeep: aug.Key.Keep,
			AugAmount: 0.5, SubNets: 2, AugSeed: 3,
		},
		Hyper:   Hyper{Epochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.9, Shuffle: true, ShuffleSeed: 5, Stream: true, CheckpointEvery: 1},
		Samples: aug.Stream.WindowSet(aug.Key.AugLen).Windows,
	}
}

// TestLMJobOverWire runs an augmented-lm job through the TCP service —
// label-free token windows, streamed perplexity, checkpoint frames — and
// pins wire/local equality plus the LM provider view.
func TestLMJobOverWire(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	req := lmJob(t)
	var progress []EpochMetric
	checkpoints := 0
	resp, err := TrainContext(context.Background(), l.Addr().String(), req, StreamHandlers{
		Progress: func(m EpochMetric) { progress = append(progress, m) },
		Checkpoint: func(ck *serialize.TrainCheckpoint) {
			checkpoints++
			if ck.Kind != "augmented-lm" {
				t.Errorf("checkpoint frame records kind %q, want augmented-lm", ck.Kind)
			}
			if ck.OptState.Empty() {
				t.Error("momentum job streamed a checkpoint without optimiser state")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) != req.Hyper.Epochs || checkpoints != req.Hyper.Epochs {
		t.Fatalf("streamed %d progress / %d checkpoint frames, want %d each",
			len(progress), checkpoints, req.Hyper.Epochs)
	}
	for _, m := range progress {
		if m.Perplexity <= 0 {
			t.Fatalf("epoch %d progress frame carries no perplexity", m.Epoch)
		}
	}
	if resp.OptState.Empty() {
		t.Fatal("momentum job returned no final optimiser state over the wire")
	}
	local, err := RunLocal(lmJob(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, tns := range local.State {
		if !resp.State[name].Equal(tns) {
			t.Fatalf("wire and local LM training diverged at %q", name)
		}
	}

	// The provider view captured the LM job: window count, a token
	// sample, gather sets — and no labels anywhere.
	views := server.Views()
	if len(views) != 1 {
		t.Fatalf("%d provider views", len(views))
	}
	v := views[0]
	if v.FirstImage != nil || len(v.FirstSample) != req.Spec.AugLen {
		t.Fatalf("LM provider view: image=%v sample len=%d", v.FirstImage, len(v.FirstSample))
	}
	if v.N != len(req.Samples) {
		t.Fatalf("provider sees %d windows, want %d", v.N, len(req.Samples))
	}
	if len(v.GatherSets) != req.Spec.SubNets+1 {
		t.Fatalf("provider sees %d gather sets, want %d", len(v.GatherSets), req.Spec.SubNets+1)
	}
}

// TestMomentumFreeResumeIgnoresStaleVelocity pins the InitOptState
// guard: resuming with Momentum 0 must not adopt (and republish) the
// checkpoint's old velocity buffers as if they were current.
func TestMomentumFreeResumeIgnoresStaleVelocity(t *testing.T) {
	first := textJob(t)
	first.Hyper.Stream = false
	first.Hyper.CheckpointEvery = 0
	first.Hyper.Epochs = 1
	part, err := RunLocal(first)
	if err != nil {
		t.Fatal(err)
	}
	if part.OptState.Empty() {
		t.Fatal("momentum run returned no optimiser state")
	}
	second := textJob(t)
	second.Hyper.Stream = false
	second.Hyper.CheckpointEvery = 0
	second.Hyper.Epochs = 2
	second.Hyper.StartEpoch = 1
	second.Hyper.Momentum = 0
	second.InitState = part.State
	second.InitOptState = part.OptState
	rest, err := RunLocal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !rest.OptState.Empty() {
		t.Fatalf("momentum-free run republished %d stale velocity buffers", rest.OptState.NumBuffers())
	}
}

// TestLMSpecValidation pins that malformed LM specs error out instead of
// panicking mid-training (a panic would take the whole service down).
func TestLMSpecValidation(t *testing.T) {
	good := lmJob(t).Spec
	bad := good
	bad.LMMaxT = good.OrigLen - 2 // positional table shorter than window inputs
	if _, err := BuildModel(bad); err == nil {
		t.Fatal("undersized lm_max_t must be rejected")
	}
	bad = good
	bad.LMFF = 0
	if _, err := BuildModel(bad); err == nil {
		t.Fatal("missing lm_ff must be rejected")
	}
	if _, err := BuildModel(good); err != nil {
		t.Fatalf("valid LM spec rejected: %v", err)
	}
}

// TestRunTrainingResumeMatchesStraightRun pins the per-epoch shuffle
// derivation AND the momentum carry-over: training epochs [0,3) in one
// go equals training [0,1) then resuming [1,3) from the returned state
// and optimiser state, batch order and velocity trajectory included.
// (Before optimiser state rode checkpoints, this held only for
// Momentum == 0.)
func TestRunTrainingResumeMatchesStraightRun(t *testing.T) {
	mk := func() *TrainRequest {
		req := textJob(t)
		req.Hyper.Stream = false
		req.Hyper.CheckpointEvery = 0
		req.Hyper.Shuffle = true
		req.Hyper.ShuffleSeed = 9
		req.Hyper.Momentum = 0.9
		return req
	}
	straight := mk()
	straight.Hyper.Epochs = 3
	full, err := RunLocal(straight)
	if err != nil {
		t.Fatal(err)
	}

	first := mk()
	first.Hyper.Epochs = 1
	part, err := RunLocal(first)
	if err != nil {
		t.Fatal(err)
	}
	if part.OptState.Empty() {
		t.Fatal("momentum run returned no optimiser state")
	}
	second := mk()
	second.Hyper.Epochs = 3
	second.Hyper.StartEpoch = 1
	second.InitState = part.State
	second.InitOptState = part.OptState
	rest, err := RunLocal(second)
	if err != nil {
		t.Fatal(err)
	}
	if rest.CompletedEpochs != 3 || len(rest.Metrics) != 2 || rest.Metrics[0].Epoch != 2 {
		t.Fatalf("resumed run: completed=%d metrics=%+v", rest.CompletedEpochs, rest.Metrics)
	}
	for name, tns := range full.State {
		if !rest.State[name].Equal(tns) {
			t.Fatalf("resumed training diverged from straight run at %q", name)
		}
	}
}

// TestTrainLoopRNGCursorsFollowTheModelTree pins the loop's dropout-cursor
// plumbing, which walks whatever model it is given: an LM run returns
// exactly the original's streams; a model without dropout returns none
// (so its checkpoints have no RNG section) and refuses any cursor shipped
// to it; a name
// outside the tree is a bad request.
func TestTrainLoopRNGCursorsFollowTheModelTree(t *testing.T) {
	lm := lmJob(t)
	lm.Hyper.Epochs, lm.Hyper.Stream, lm.Hyper.CheckpointEvery = 1, false, 0
	resp, err := RunLocal(lm)
	if err != nil {
		t.Fatal(err)
	}
	cursors := resp.RNG
	if len(cursors) != 2 || cursors["orig.drop"] == nil || cursors["orig.block0.drop"] == nil {
		t.Fatalf("LM run returned RNG cursors %v, want orig.drop and orig.block0.drop", cursors)
	}

	text := textJob(t)
	text.Hyper.Epochs, text.Hyper.Stream, text.Hyper.CheckpointEvery = 1, false, 0
	if resp, err = RunLocal(text); err != nil {
		t.Fatal(err)
	} else if resp.RNG != nil {
		t.Fatalf("a text job has no random streams, got %v", resp.RNG)
	}
	text.InitRNG = map[string][]byte{"orig.drop": cursors["orig.drop"]}
	if _, err := RunLocal(text); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("cursor shipped to a model without dropout: got %v, want ErrBadRequest", err)
	}
	lm.InitRNG = map[string][]byte{"orig.block7.drop": cursors["orig.drop"]}
	if _, err := RunLocal(lm); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("cursor named outside the tree: got %v, want ErrBadRequest", err)
	}
}
