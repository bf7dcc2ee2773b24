package cloudsim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"amalgam/internal/autodiff"
	"amalgam/internal/models"
	"amalgam/internal/serialize"
	"amalgam/internal/serve"
	"amalgam/internal/tensor"
)

// inferBackend is a serve backend with one text and one LM model
// registered, split tails included; it closes with the test.
func inferBackend(tb testing.TB) (*serve.Server, *models.TextClassifier, *models.TransformerLM) {
	tb.Helper()
	txt := models.NewTextClassifier(tensor.NewRNG(11), 50, 8, 3)
	lm := models.NewTransformerLM(tensor.NewRNG(13), models.TransformerLMConfig{
		Vocab: 40, D: 8, Heads: 2, FF: 16, Layers: 1, MaxT: 10, Dropout: 0,
	})
	backend := serve.New(serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 2})
	tb.Cleanup(backend.Close)
	if err := backend.RegisterText("txt", txt, serve.TextConfig{Vocab: 50, SplitTail: txt.ForwardPooled, SplitDim: txt.EmbedDim}); err != nil {
		tb.Fatal(err)
	}
	if err := backend.RegisterLM("lm", lm, serve.LMConfig{MaxContext: 10, Vocab: 40, SplitTail: lm.ForwardEmbedded, SplitDim: lm.D}); err != nil {
		tb.Fatal(err)
	}
	return backend, txt, lm
}

// startInferServer brings up a wire server in front of inferBackend,
// returning its address and a cleanup.
func startInferServer(t *testing.T) (string, *models.TextClassifier, *models.TransformerLM, func()) {
	t.Helper()
	backend, txt, lm := inferBackend(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServerConfig(l, ServerConfig{Infer: backend})
	return l.Addr().String(), txt, lm, func() {
		l.Close()
		server.Wait()
	}
}

// TestInferRoundTrip pins the wire contract: predictions served over
// msgInfer frames — full-input and split, text and LM — are bit-identical
// to a local forward through the same model.
func TestInferRoundTrip(t *testing.T) {
	addr, txt, lm, stop := startInferServer(t)
	defer stop()

	conn, err := DialInfer(context.Background(), addr, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	samples := [][]int{{3, 14, 15}, {9, 26, 5, 35, 8}, {2, 7}}
	got, err := conn.PredictText("txt", samples)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		out := txt.ForwardIDs([][]int{s})
		wantClass := tensor.ArgmaxRows(out.Val)[0]
		wantLogits := append([]float32(nil), out.Val.Data...)
		autodiff.Release(out)
		if got[i].Class != wantClass {
			t.Errorf("sample %d: wire class %d, local %d", i, got[i].Class, wantClass)
		}
		for j, v := range wantLogits {
			if got[i].Logits[j] != v {
				t.Fatalf("sample %d logit %d: wire %v, local %v", i, j, got[i].Logits[j], v)
			}
		}
	}

	// Split inference: pooled embeddings computed client-side must score
	// bit-identically to the full-token path.
	pooled := make([][]float32, len(samples))
	for i, s := range samples {
		node := txt.Embed.LookupMean([][]int{s})
		pooled[i] = append([]float32(nil), node.Val.Data...)
		autodiff.Release(node)
	}
	gotSplit, err := conn.PredictTextSplit("txt", pooled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if gotSplit[i].Class != got[i].Class {
			t.Errorf("sample %d: split class %d, full class %d", i, gotSplit[i].Class, got[i].Class)
		}
		for j := range got[i].Logits {
			if gotSplit[i].Logits[j] != got[i].Logits[j] {
				t.Fatalf("sample %d logit %d: split %v, full %v", i, j, gotSplit[i].Logits[j], got[i].Logits[j])
			}
		}
	}

	// LM next-token scoring, full and split.
	ctxs := [][]int{{1, 8, 30}, {5, 2, 2, 17, 33}}
	gotLM, err := conn.PredictLM("lm", ctxs, 3)
	if err != nil {
		t.Fatal(err)
	}
	acts := make([][]float32, len(ctxs))
	lens := make([]int, len(ctxs))
	for i, c := range ctxs {
		h := lm.EmbedIDs([][]int{c})
		acts[i] = append([]float32(nil), h.Val.Data...)
		autodiff.Release(h)
		lens[i] = len(c)
	}
	gotLMSplit, err := conn.PredictLMSplit("lm", acts, lens, lm.D, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ctxs {
		if len(gotLM[i].Tokens) != 3 {
			t.Fatalf("context %d: want 3 tokens, got %d", i, len(gotLM[i].Tokens))
		}
		for j := range gotLM[i].Tokens {
			if gotLM[i].Tokens[j] != gotLMSplit[i].Tokens[j] || gotLM[i].LogProbs[j] != gotLMSplit[i].LogProbs[j] {
				t.Fatalf("context %d entry %d: full (%d, %v) vs split (%d, %v)",
					i, j, gotLM[i].Tokens[j], gotLM[i].LogProbs[j], gotLMSplit[i].Tokens[j], gotLMSplit[i].LogProbs[j])
			}
		}
	}
}

// TestInferRefusedWithoutBackend pins that a pure training server (no
// Infer backend configured) refuses infer frames with ErrBadRequest
// instead of crashing or hanging.
func TestInferRefusedWithoutBackend(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()
	conn, err := DialInfer(context.Background(), l.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.PredictText("txt", [][]int{{1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

// TestInferErrorsCrossWireTyped pins that backend failures keep their
// sentinel class across the wire: an unknown model and a malformed input
// both surface as ErrBadRequest via the coded error frame, and the
// connection keeps serving afterwards (error frames do not poison it).
func TestInferErrorsCrossWireTyped(t *testing.T) {
	addr, _, _, stop := startInferServer(t)
	defer stop()

	conn, err := DialInfer(context.Background(), addr, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.PredictText("nope", [][]int{{1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown model: want ErrBadRequest, got %v", err)
	}
	// Out-of-vocab token: refused at admission, batch untouched.
	conn2, err := DialInfer(context.Background(), addr, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.PredictText("txt", [][]int{{49, 50}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-vocab: want ErrBadRequest, got %v", err)
	}
	got, err := conn2.PredictText("txt", [][]int{{49}})
	if err != nil || len(got) != 1 {
		t.Fatalf("connection should keep serving after an in-band error: %v", err)
	}
}

// FuzzDecodeInferFrame feeds arbitrary msgInfer payloads through the
// decode stage and the full answer path against a live backend. Decoding
// — frame split, header JSON, body, per-sample Lens — must never panic,
// must refuse with ErrBadRequest, and must allocate no more than a small
// multiple of the payload; the answer path must never panic and must
// classify every refusal onto the wire taxonomy.
func FuzzDecodeInferFrame(f *testing.F) {
	backend, _, _ := inferBackend(f)
	s := &Server{cfg: ServerConfig{Infer: backend}}

	seed := func(h inferHeader, body []byte) {
		payload, err := encodeInferFrame(h, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	ids, lens, err := intBody([][]int{{3, 14, 15}, {9, 26}})
	if err != nil {
		f.Fatal(err)
	}
	pooled, err := tensorBody([][]float32{make([]float32, 8), make([]float32, 8)}, 8)
	if err != nil {
		f.Fatal(err)
	}
	seed(inferHeader{Model: "txt", Modality: "text", Lens: lens}, ids)
	seed(inferHeader{Model: "lm", Modality: "lm", Lens: lens, TopK: 2}, ids)
	seed(inferHeader{Model: "txt", Modality: "text", Split: true}, pooled)
	seed(inferHeader{Model: "txt", Modality: "text", Lens: []int{4, 1}}, ids)                        // ragged the wrong way
	seed(inferHeader{Model: "txt", Modality: "text", Lens: []int{7, -2}}, ids)                       // negative, sums right
	seed(inferHeader{Model: "txt", Modality: "text", Lens: []int{math.MaxInt, math.MaxInt, 7}}, ids) // wraps to 5
	// lens×dim wraps to 0, matching an empty activation tensor.
	seed(inferHeader{Model: "lm", Modality: "lm", Split: true, Lens: []int{1, 1<<32 - 1}, Dim: 1 << 32},
		[]byte{0x31, 0x54, 0x4d, 0x41, 1, 0, 1, 0, 0, 0, 0})
	// Bodies whose own headers claim 2²⁸ elements and carry none.
	seed(inferHeader{Model: "txt", Modality: "text", Lens: []int{1}}, []byte{0, 0, 0, 0x10})
	seed(inferHeader{Model: "txt", Modality: "cv"}, []byte{0x31, 0x54, 0x4d, 0x41, 1, 0, 1, 0, 0, 0, 0x10})
	// [2²⁷, 0]: a zero-width tensor claiming 134M samples in 15 bytes.
	seed(inferHeader{Model: "txt", Modality: "text", Split: true}, []byte{0x31, 0x54, 0x4d, 0x41, 1, 0, 2, 0, 0, 0, 8, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'}) // header length past the frame

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, body, err := decodeInferFrame(data)
		if err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("infer frame refused without ErrBadRequest: %v", err)
		}
		if err == nil {
			if flat, err := serialize.ReadIntSlice(bytes.NewReader(body)); err == nil {
				samples, err := unflatten(flat, h.Lens)
				if err != nil && !errors.Is(err, ErrBadRequest) {
					t.Fatalf("lens %v refused without ErrBadRequest: %v", h.Lens, err)
				}
				if err == nil && len(samples) != len(h.Lens) {
					t.Fatalf("unflatten made %d samples from %d lens", len(samples), len(h.Lens))
				}
			}
			if _, err := readInferTensor(body); err != nil && !errors.Is(err, ErrBadRequest) {
				t.Fatalf("tensor body refused without ErrBadRequest: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); grew > limit {
			t.Fatalf("decoding a %d-byte infer frame allocated %d, limit %d", len(data), grew, limit)
		}

		if _, err := s.inferAnswer(data); err != nil && errCodeOf(err) == errCodeGeneric {
			t.Fatalf("infer answer refused with an error outside the wire taxonomy: %v", err)
		}
	})
}
