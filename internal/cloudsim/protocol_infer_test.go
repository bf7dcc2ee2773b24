package cloudsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/models"
	"amalgam/internal/serialize"
	"amalgam/internal/serve"
	"amalgam/internal/tensor"
)

// inferCVModel builds the image classifier inferBackend serves as "cv".
// The build is deterministic, so a second call is a bit-identical copy a
// test can forward directly.
func inferCVModel(tb testing.TB) models.CVModel {
	tb.Helper()
	cv, err := models.BuildCV("lenet", tensor.NewRNG(7), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3})
	if err != nil {
		tb.Fatal(err)
	}
	cv.SetTraining(false)
	return cv
}

// inferBackend is a serve backend with one CV, one text and one LM model
// registered, split tails included; it closes with the test.
func inferBackend(tb testing.TB) (*serve.Server, *models.TextClassifier, *models.TransformerLM) {
	tb.Helper()
	txt := models.NewTextClassifier(tensor.NewRNG(11), 50, 8, 3)
	lm := models.NewTransformerLM(tensor.NewRNG(13), models.TransformerLMConfig{
		Vocab: 40, D: 8, Heads: 2, FF: 16, Layers: 1, MaxT: 10, Dropout: 0,
	})
	backend := serve.New(serve.Config{MaxBatch: 4, Workers: 2})
	tb.Cleanup(backend.Close)
	if err := backend.RegisterCV("cv", inferCVModel(tb), serve.CVConfig{C: 1, H: 12, W: 12}); err != nil {
		tb.Fatal(err)
	}
	if err := backend.RegisterText("txt", txt, serve.TextConfig{Vocab: 50, SplitTail: txt.ForwardPooled, SplitDim: txt.EmbedDim}); err != nil {
		tb.Fatal(err)
	}
	if err := backend.RegisterLM("lm", lm, serve.LMConfig{MaxContext: 10, Vocab: 40, SplitTail: lm.ForwardEmbedded, SplitDim: lm.D}); err != nil {
		tb.Fatal(err)
	}
	return backend, txt, lm
}

// startInferServer brings up a wire server in front of inferBackend,
// returning the backend, its address and a cleanup.
func startInferServer(t *testing.T) (*serve.Server, string, *models.TextClassifier, *models.TransformerLM, func()) {
	t.Helper()
	backend, txt, lm := inferBackend(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServerConfig(l, ServerConfig{Infer: backend})
	return backend, l.Addr().String(), txt, lm, func() {
		l.Close()
		server.Wait()
	}
}

// answer is a prediction of either shape, for comparing across paths:
// class + logit row, or top-K tokens + log-probabilities.
type answer struct {
	ints   []int
	floats []float32
}

func classAnswer(r serve.CVResult) answer { return answer{[]int{r.Class}, r.Logits} }
func tokenAnswer(r serve.LMResult) answer { return answer{r.Tokens, r.LogProbs} }

// directClass reads a one-sample classification straight off a forward
// graph and releases it.
func directClass(out *autodiff.Node) answer {
	defer autodiff.Release(out)
	return answer{[]int{tensor.ArgmaxRows(out.Val)[0]}, append([]float32(nil), out.Val.Data...)}
}

// directTopK reads the k most probable next tokens off the last row of a
// one-sample LM forward graph — most probable first, ties to the lower
// id, log-softmax accumulated in float64 — and releases it.
func directTopK(out *autodiff.Node, k int) answer {
	defer autodiff.Release(out)
	vocab := out.Val.Dim(1)
	last := out.Val.Data[len(out.Val.Data)-vocab:]
	maxv := last[0]
	for _, v := range last {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range last {
		sum += math.Exp(float64(v - maxv))
	}
	lse := float64(maxv) + math.Log(sum)
	var a answer
	taken := make([]bool, vocab)
	for len(a.ints) < k {
		best := -1
		for i, v := range last {
			if !taken[i] && (best < 0 || v > last[best]) {
				best = i
			}
		}
		taken[best] = true
		a.ints = append(a.ints, best)
		a.floats = append(a.floats, float32(float64(last[best])-lse))
	}
	return a
}

// TestInferRoundTrip pins the serving contract on every path — cv, text,
// text/split, lm, lm/split: a direct eval-mode forward through the model,
// a prediction through the serve backend, and a prediction over msgInfer
// frames on loopback agree bit for bit. Each wire case ships all its
// samples in ONE frame; the token and activation frames are ragged, so
// one frame's samples land in different batch queues.
func TestInferRoundTrip(t *testing.T) {
	backend, addr, txt, lm, stop := startInferServer(t)
	defer stop()
	conn, err := DialInfer(context.Background(), addr, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cv := inferCVModel(t)
	rng := tensor.NewRNG(5)
	images := make([][]float32, 3)
	for i := range images {
		images[i] = make([]float32, 12*12)
		for j := range images[i] {
			images[i][j] = float32(rng.Float64())
		}
	}
	samples := [][]int{{3, 14, 15}, {9, 26, 5, 35, 8}, {2, 7}}
	pooled := make([][]float32, len(samples))
	for i, s := range samples {
		node := txt.Embed.LookupMean([][]int{s})
		pooled[i] = append([]float32(nil), node.Val.Data...)
		autodiff.Release(node)
	}
	const topK = 3
	ctxs := [][]int{{1, 8, 30}, {5, 2, 2, 17, 33}, {4, 4, 9}}
	acts := make([][]float32, len(ctxs))
	lens := make([]int, len(ctxs))
	for i, c := range ctxs {
		h := lm.EmbedIDs([][]int{c})
		acts[i] = append([]float32(nil), h.Val.Data...)
		autodiff.Release(h)
		lens[i] = len(c)
	}
	classes := func(rs []serve.CVResult, err error) ([]answer, error) {
		out := make([]answer, len(rs))
		for i, r := range rs {
			out[i] = classAnswer(r)
		}
		return out, err
	}
	tokens := func(rs []serve.LMResult, err error) ([]answer, error) {
		out := make([]answer, len(rs))
		for i, r := range rs {
			out[i] = tokenAnswer(r)
		}
		return out, err
	}

	cases := []struct {
		path   string
		n      int
		direct func(i int) answer
		served func(i int) (answer, error)
		wired  func() ([]answer, error)
	}{
		{"cv", len(images),
			func(i int) answer {
				return directClass(cv.Forward(autodiff.Constant(tensor.FromSlice(images[i], 1, 1, 12, 12))))
			},
			func(i int) (answer, error) {
				r, err := backend.PredictCV("cv", [][]float32{images[i]})
				return classAnswer(r[0]), err
			},
			func() ([]answer, error) { return classes(conn.PredictCV("cv", images)) }},
		{"text", len(samples),
			func(i int) answer { return directClass(txt.ForwardIDs([][]int{samples[i]})) },
			func(i int) (answer, error) {
				r, err := backend.PredictText("txt", [][]int{samples[i]})
				return classAnswer(r[0]), err
			},
			func() ([]answer, error) { return classes(conn.PredictText("txt", samples)) }},
		{"text/split", len(samples),
			func(i int) answer {
				return directClass(txt.ForwardPooled(autodiff.Constant(tensor.FromSlice(pooled[i], 1, txt.EmbedDim))))
			},
			func(i int) (answer, error) {
				r, err := backend.PredictTextSplit("txt", [][]float32{pooled[i]})
				return classAnswer(r[0]), err
			},
			func() ([]answer, error) { return classes(conn.PredictTextSplit("txt", pooled)) }},
		{"lm", len(ctxs),
			func(i int) answer { return directTopK(lm.ForwardIDs([][]int{ctxs[i]}), topK) },
			func(i int) (answer, error) {
				r, err := backend.PredictLM("lm", [][]int{ctxs[i]}, topK)
				return tokenAnswer(r[0]), err
			},
			func() ([]answer, error) { return tokens(conn.PredictLM("lm", ctxs, topK)) }},
		{"lm/split", len(ctxs),
			func(i int) answer {
				return directTopK(lm.ForwardEmbedded(autodiff.Constant(tensor.FromSlice(acts[i], 1, lens[i], lm.D))), topK)
			},
			func(i int) (answer, error) {
				r, err := backend.PredictLMSplit("lm", [][]float32{acts[i]}, []int{lens[i]}, topK)
				return tokenAnswer(r[0]), err
			},
			func() ([]answer, error) { return tokens(conn.PredictLMSplit("lm", acts, lens, lm.D, topK)) }},
	}
	same := func(a, b answer) bool {
		if len(a.ints) != len(b.ints) || len(a.floats) != len(b.floats) {
			return false
		}
		for i := range a.ints {
			if a.ints[i] != b.ints[i] {
				return false
			}
		}
		for i := range a.floats {
			if a.floats[i] != b.floats[i] {
				return false
			}
		}
		return true
	}
	direct := map[string][]answer{}
	for _, tc := range cases {
		wired, err := tc.wired()
		if err != nil || len(wired) != tc.n {
			t.Fatalf("%s: wire returned %d answers for %d samples: %v", tc.path, len(wired), tc.n, err)
		}
		for i := 0; i < tc.n; i++ {
			want := tc.direct(i)
			direct[tc.path] = append(direct[tc.path], want)
			served, err := tc.served(i)
			if err != nil {
				t.Fatalf("%s sample %d: serve backend: %v", tc.path, i, err)
			}
			if !same(served, want) {
				t.Errorf("%s sample %d: serve backend %v, direct forward %v", tc.path, i, served, want)
			}
			if !same(wired[i], want) {
				t.Errorf("%s sample %d: wire %v, direct forward %v", tc.path, i, wired[i], want)
			}
		}
	}
	// Split inference is the same function computed in two places.
	for _, pair := range [][2]string{{"text", "text/split"}, {"lm", "lm/split"}} {
		for i, full := range direct[pair[0]] {
			if !same(full, direct[pair[1]][i]) {
				t.Errorf("%s sample %d differs from %s: %v vs %v", pair[1], i, pair[0], direct[pair[1]][i], full)
			}
		}
	}
}

// countingLM records the shape of every batch the serve backend runs
// through it: rows, and tokens per row.
type countingLM struct {
	*models.TransformerLM
	mu      sync.Mutex
	batches [][2]int
}

func (c *countingLM) ForwardIDs(ids [][]int) *autodiff.Node {
	c.mu.Lock()
	c.batches = append(c.batches, [2]int{len(ids), len(ids[0])})
	c.mu.Unlock()
	return c.TransformerLM.ForwardIDs(ids)
}

// TestInferFrameIsOneGroup pins that a frame's samples reach the backend
// together: one msgInfer frame of contexts in two lengths runs as exactly
// one forward per length.
func TestInferFrameIsOneGroup(t *testing.T) {
	lm := &countingLM{TransformerLM: models.NewTransformerLM(tensor.NewRNG(13), models.TransformerLMConfig{
		Vocab: 40, D: 8, Heads: 2, FF: 16, Layers: 1, MaxT: 10, Dropout: 0,
	})}
	backend := serve.New(serve.Config{})
	defer backend.Close()
	if err := backend.RegisterLM("lm", lm, serve.LMConfig{MaxContext: 10, Vocab: 40}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServerConfig(l, ServerConfig{Infer: backend})
	defer func() {
		l.Close()
		server.Wait()
	}()
	conn, err := DialInfer(context.Background(), l.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 8
	contexts := make([][]int, n)
	for i := range contexts {
		contexts[i] = make([]int, 3+2*(i%2)) // lengths 3 and 5, interleaved
		for j := range contexts[i] {
			contexts[i][j] = (i + j) % 40
		}
	}
	res, err := conn.PredictLM("lm", contexts, 1)
	if err != nil || len(res) != n {
		t.Fatalf("wire returned %d answers for %d contexts: %v", len(res), n, err)
	}
	lm.mu.Lock()
	got := append([][2]int(nil), lm.batches...)
	lm.mu.Unlock()
	sort.Slice(got, func(i, j int) bool { return got[i][1] < got[j][1] })
	if want := [][2]int{{n / 2, 3}, {n / 2, 5}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("one frame ran as batches %v (rows, tokens), want %v", got, want)
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
	_, addr, _, _, stop := startInferServer(t)
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
