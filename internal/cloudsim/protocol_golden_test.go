package cloudsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/serialize"
	"amalgam/internal/serve"
	"amalgam/internal/tensor"
)

// The golden conversations pin protocol v4 as bytes and frame order, one
// per job kind and conversation kind. A client stream is a pure function
// of the request, so it is pinned by a committed SHA-256 — any change to
// a frame layout, a JSON key, or a serialize encoding shows up here
// first — and then played, byte for byte, at a live server. The reply
// carries kernel output, whose bits differ between SIMD and pure-Go
// hosts, so its frame ORDER is pinned exactly and every payload is
// compared with the same job run in-process on this machine.

func checkSHA(t *testing.T, what string, stream []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(stream)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: %d bytes with sha256 %s, want %s", what, len(stream), got, want)
	}
}

func encoded(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// converse plays one client stream on a fresh connection and returns the
// server's reply up to and including its first frame of kind last.
func converse(t *testing.T, addr string, up []byte, last byte) []frame {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(up); err != nil {
		t.Fatal(err)
	}
	var reply []frame
	for {
		kind, payload, err := readFrame(conn)
		if err != nil {
			t.Fatalf("reply ended after %d frames: %v", len(reply), err)
		}
		if kind == msgError {
			t.Fatalf("server refused the conversation: %v", decodeErrorFrame(payload))
		}
		if reply = append(reply, frame{kind, payload}); kind == last {
			return reply
		}
	}
}

// localRun is the in-process reference for one request: the response plus
// every checkpoint the loop cut, serialized on the spot (snapshots alias
// the live weights).
type localRun struct {
	resp        *TrainResponse
	kind        string         // the job's spec kind
	checkpoints map[int][]byte // by epoch
}

func runReference(t *testing.T, req *TrainRequest) localRun {
	t.Helper()
	ref := localRun{kind: req.Spec.Kind, checkpoints: map[int][]byte{}}
	var err error
	ref.resp, err = runTraining(context.Background(), req, nil, func(ck *serialize.TrainCheckpoint) error {
		var buf bytes.Buffer
		err := serialize.WriteTrainCheckpoint(&buf, ck)
		ref.checkpoints[ck.Epoch] = buf.Bytes()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// checkJobStream pins one job stream against its reference: the exact
// frame order — progress from epoch first on, each followed by the
// checkpoint (if any) of an epoch in checkpointed, then result and the
// final state as a checkpoint — and every payload, byte for byte: the JSON
// frames too, training reads no clock.
func checkJobStream(t *testing.T, got []frame, ref localRun, first int, checkpointed func(epoch int) bool) {
	t.Helper()
	asJSON := func(v any) []byte {
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	var want []frame
	for _, m := range ref.resp.Metrics[first-1:] {
		want = append(want, frame{msgProgress, asJSON(m)})
		if ck, ok := ref.checkpoints[m.Epoch]; ok && checkpointed(m.Epoch) {
			want = append(want, frame{msgCheckpoint, ck})
		}
	}
	final := encoded(t, func(w io.Writer) error { return serialize.WriteTrainCheckpoint(w, ref.resp.Checkpoint(ref.kind)) })
	want = append(want, frame{msgResult, asJSON(resultMeta{Metrics: ref.resp.Metrics})}, frame{msgState, final})

	kinds := func(frames []frame) []byte {
		out := make([]byte, len(frames))
		for i, f := range frames {
			out[i] = f.kind
		}
		return out
	}
	if !bytes.Equal(kinds(got), kinds(want)) {
		t.Fatalf("reply frame kinds %v, want %v", kinds(got), kinds(want))
	}
	for i, f := range got {
		if !bytes.Equal(f.payload, want[i].payload) {
			t.Errorf("reply frame %d (kind %d): %d payload bytes differ from the in-process run's %d",
				i, f.kind, len(f.payload), len(want[i].payload))
		}
	}
}

// goldenJobs are the four job kinds at toy size, plus a spec-driven
// optimiser. Between them they cover every request frame (images,
// labels, tokens, init state, optimiser and schedule specs) and every
// reply frame (sparse and per-epoch checkpoints, SGD and Adam state,
// scheduled LRs, dropout cursors).
var goldenJobs = []struct {
	name    string
	build   func(t *testing.T) *TrainRequest
	trainUp string // sha256 of the client stream, spec → msgDone
}{
	{"plain-cv", func(t *testing.T) *TrainRequest {
		req, _, _ := tinyJob(t, false)
		req.Hyper.Stream, req.Hyper.CheckpointEvery = true, 2
		return req
	}, "686a402b5f4bf64660653be62f04142da54136a691ae2d25a576de458cb392d6"},
	{"augmented-cv", func(t *testing.T) *TrainRequest {
		req, _, _ := tinyJob(t, true)
		model, err := BuildModel(req.Spec)
		if err != nil {
			t.Fatal(err)
		}
		req.InitState = nn.StateDict(model)
		req.Hyper.Stream, req.Hyper.CheckpointEvery = true, 1
		return req
	}, "6830529c84a3f3649b71c7ab8601ee9567c483f5206e4e9dc247f20da9b27a9e"},
	{"augmented-text", textJob, "6fc3f8e91d6ee446ca0d7e16a91d833b1101943abf103575d22931842552f326"},
	{"augmented-lm", lmJob, "0aa7ab21f3386f7205e1d4982da425ea9b6f4cfb2ee7c89f70b4e6932930450a"},
	{"augmented-text under adam", adamJob, "e8460f175797adc674b983672eee286ec8c4941b1b23c7d6194e2c15300c8593"},
}

// TestGoldenTrainConversation pins the train-on-this-connection
// conversation (request … msgDone, answered by the live job stream) for
// every job kind.
func TestGoldenTrainConversation(t *testing.T) {
	for _, job := range goldenJobs {
		t.Run(job.name, func(t *testing.T) {
			addr, server := startAsyncServer(t, ServerConfig{})
			req := job.build(t)
			up := encoded(t, func(w io.Writer) error { return writeRequest(w, req, msgDone) })
			checkSHA(t, "client stream", up, job.trainUp)
			reply := converse(t, addr, up, msgState)
			ref := runReference(t, job.build(t))
			checkJobStream(t, reply, ref, 1, func(int) bool { return true })
			for _, m := range ref.resp.Metrics {
				if lm := req.Spec.Kind == "augmented-lm"; (m.Perplexity > 0) != lm {
					t.Errorf("epoch %d reports perplexity %v on a %s job", m.Epoch, m.Perplexity, req.Spec.Kind)
				}
			}

			// What the provider saw of the upload: its size, one sample of
			// the modality shipped, and a gather set per sub-network.
			views := server.Views()
			if len(views) != 1 {
				t.Fatalf("%d provider views of one job", len(views))
			}
			v, n, sets, sample := views[0], max(len(req.Labels), len(req.Samples)), 0, 0
			if req.Spec.Kind != "plain-cv" {
				sets = req.Spec.SubNets + 1
			}
			if len(req.Samples) > 0 {
				sample = req.Spec.AugLen
			}
			if v.N != n || len(v.GatherSets) != sets || (v.FirstImage != nil) != (req.Images != nil) || len(v.FirstSample) != sample {
				t.Errorf("provider view N=%d image=%v sample=%d sets=%d, want N=%d image=%v sample=%d sets=%d",
					v.N, v.FirstImage != nil, len(v.FirstSample), len(v.GatherSets), n, req.Images != nil, sample, sets)
			}
		})
	}
}

// TestGoldenSubmitAttachConversation pins submit → ack and attach → job
// stream. The job has finished by the time of the attach, so the stream
// is pure replay: every buffered epoch past FromEpoch, and of the
// checkpoints only the LATEST, which is the one the scheduler parks.
func TestGoldenSubmitAttachConversation(t *testing.T) {
	addr, server := startAsyncServer(t, ServerConfig{Executors: 1})
	req := textJob(t)
	up := encoded(t, func(w io.Writer) error { return writeRequest(w, req, msgSubmit) })
	checkSHA(t, "submit stream", up, "22e01303ae821c4ace3817fe62f3dca0737dee7ad8c5ec1885bb73145cb9827e")
	ack := converse(t, addr, up, msgSubmitAck)
	if len(ack) != 1 || string(ack[0].payload) != `{"job_id":"job-000001"}` {
		t.Fatalf("submit answered by %+v, want one ack naming job-000001", ack)
	}
	job, err := server.sched.Job("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	<-job.done

	up = encoded(t, func(w io.Writer) error {
		return writeFrame(w, msgAttach, []byte(`{"job_id":"job-000001","from_epoch":1}`))
	})
	reply := converse(t, addr, up, msgState)
	checkJobStream(t, reply, runReference(t, textJob(t)), 2, func(epoch int) bool { return epoch == req.Hyper.Epochs })
}

// TestGoldenInferConversation pins one prediction exchange: msgInfer is
// the connection's first frame (no handshake precedes it) and is answered
// by exactly one msgInferResult matching a direct forward.
func TestGoldenInferConversation(t *testing.T) {
	backend, txt, _ := inferBackend(t)
	addr, _ := startAsyncServer(t, ServerConfig{Infer: backend})

	samples := [][]int{{3, 14, 15}, {9, 26, 5, 35, 8}}
	payload, err := encodeGroup("txt", serve.Group{Path: "text", IDs: samples})
	if err != nil {
		t.Fatal(err)
	}
	up := encoded(t, func(w io.Writer) error { return writeFrame(w, msgInfer, payload) })
	checkSHA(t, "infer stream", up, "3c28673fd91cb851ab4d209bfecbfeaa840b787e0aedc8ee56241381fd111b24")
	reply := converse(t, addr, up, msgInferResult)
	var res inferResult
	if err := json.Unmarshal(reply[0].payload, &res); err != nil || len(reply) != 1 {
		t.Fatalf("infer answered by %d frames, result decodes with %v", len(reply), err)
	}
	for i, s := range samples {
		out := txt.ForwardIDs([][]int{s})
		class, logits := tensor.ArgmaxRows(out.Val)[0], append([]float32(nil), out.Val.Data...)
		autodiff.Release(out)
		if res.Classes[i] != class || len(res.Logits[i]) != len(logits) {
			t.Fatalf("sample %d: wire class %d (%d logits), direct forward %d (%d)", i, res.Classes[i], len(res.Logits[i]), class, len(logits))
		}
		for j, v := range logits {
			if res.Logits[i][j] != v {
				t.Fatalf("sample %d logit %d: wire %v, direct forward %v", i, j, res.Logits[i][j], v)
			}
		}
	}
}
