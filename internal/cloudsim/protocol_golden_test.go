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

// The golden conversations pin protocol v5 as bytes and frame order, one
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
	conn := dialPlay(t, addr, up)
	defer conn.Close()
	return replyUntil(t, conn, last)
}

// submitAttach holds TrainContextNet's conversation as bytes: it plays a
// request on a fresh connection, then attaches on the same connection to
// the job the ack names, and returns that ID and the job stream up to and
// including msgState.
func submitAttach(t *testing.T, addr string, up []byte) (string, []frame) {
	t.Helper()
	conn := dialPlay(t, addr, up)
	defer conn.Close()
	ack := replyUntil(t, conn, msgSubmitAck)
	var id jobRef
	if err := json.Unmarshal(ack[len(ack)-1].payload, &id); err != nil || len(ack) != 1 {
		t.Fatalf("submit answered by %d frames, ack decodes with %v", len(ack), err)
	}
	attach, err := json.Marshal(AttachRequest{JobID: id.JobID})
	if err == nil {
		err = writeFrame(conn, msgAttach, attach)
	}
	if err != nil {
		t.Fatal(err)
	}
	return id.JobID, replyUntil(t, conn, msgState)
}

// dialPlay dials addr and writes up.
func dialPlay(t *testing.T, addr string, up []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(up); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn
}

// replyUntil reads the server's frames up to and including the first of
// kind last; an error frame fails the test.
func replyUntil(t *testing.T, conn net.Conn, last byte) []frame {
	t.Helper()
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
	trainUp string // sha256 of the client's request, spec → msgSubmit
}{
	{"plain-cv", func(t *testing.T) *TrainRequest {
		req, _, _ := tinyJob(t, false)
		req.Hyper.Stream, req.Hyper.CheckpointEvery = true, 2
		return req
	}, "fa37a086edb2f78dc632e006573cb795410e884fcee1c18bdc2dd35859f067aa"},
	{"augmented-cv", func(t *testing.T) *TrainRequest {
		req, _, _ := tinyJob(t, true)
		model, err := BuildModel(req.Spec)
		if err != nil {
			t.Fatal(err)
		}
		req.InitState = nn.StateDict(model)
		req.Hyper.Stream, req.Hyper.CheckpointEvery = true, 1
		return req
	}, "d00a447748f6c14a3662499eefa6be4ef35629ac1d229887f8661000353cefb2"},
	{"augmented-text", textJob, "26753c67273d11d2afa78f2a0f44cf67a28b15b73318d8d702d8c4cb8310f962"},
	{"augmented-lm", lmJob, "783a6abc733be0645a6bc3199a31e79cda146aa996e9ce39c2ac0069402de0c1"},
	{"augmented-text under adam", adamJob, "bd5b3a033d7dadbf8870736cfdbade841f22d90f252c06fb04d6438d311f74e0"},
}

// TestGoldenTrainConversation pins TrainContextNet's conversation
// (request … msgSubmit, the ack, then msgAttach for the job it names on
// the same connection, answered by the job stream from the cursor live
// since admission: nothing replayed) for every job kind. The attach frame
// carries a random job ID, so only the request is pinned by hash.
func TestGoldenTrainConversation(t *testing.T) {
	for _, job := range goldenJobs {
		t.Run(job.name, func(t *testing.T) {
			addr, server := startAsyncServer(t, ServerConfig{})
			req := job.build(t)
			up := encoded(t, func(w io.Writer) error { return writeRequest(w, req) })
			checkSHA(t, "client stream", up, job.trainUp)
			_, reply := submitAttach(t, addr, up)
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
	up := encoded(t, func(w io.Writer) error { return writeRequest(w, req) })
	checkSHA(t, "submit stream", up, "26753c67273d11d2afa78f2a0f44cf67a28b15b73318d8d702d8c4cb8310f962")
	ack := converse(t, addr, up, msgSubmitAck)
	// Job IDs are drawn at random, so the ack is pinned as naming the job
	// the scheduler registered, not as bytes.
	views := server.Views()
	if len(views) != 1 || len(ack) != 1 || string(ack[0].payload) != `{"job_id":"`+views[0].JobID+`"}` {
		t.Fatalf("submit answered by %+v, want one ack naming the one registered job (views %d)", ack, len(views))
	}
	job, err := server.sched.Job(views[0].JobID)
	if err != nil {
		t.Fatal(err)
	}
	<-job.done

	up = encoded(t, func(w io.Writer) error {
		return writeFrame(w, msgAttach, []byte(`{"job_id":"`+job.id+`","from_epoch":1}`))
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
