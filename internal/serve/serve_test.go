package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"amalgam/internal/autodiff"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/tensor"
)

func buildTestModels(t *testing.T) (models.CVModel, *models.TextClassifier, *models.TransformerLM) {
	t.Helper()
	cv, err := models.BuildCV("lenet", tensor.NewRNG(7), models.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		t.Fatalf("BuildCV: %v", err)
	}
	txt := models.NewTextClassifier(tensor.NewRNG(11), 80, 16, 4)
	lm := models.NewTransformerLM(tensor.NewRNG(13), models.TransformerLMConfig{
		Vocab: 60, D: 16, Heads: 2, FF: 32, Layers: 1, MaxT: 12, Dropout: 0.1,
	})
	return cv, txt, lm
}

func imageRow(ds *data.ImageDataset, i int) []float32 {
	per := ds.Images.Dim(1) * ds.Images.Dim(2) * ds.Images.Dim(3)
	return ds.Images.Data[i*per : (i+1)*per]
}

// forwardCVOne is the sequential single-call baseline: one image, one
// forward, straight through the model.
func forwardCVOne(m CVForwarder, img []float32, c, h, w int) CVResult {
	x := tensor.New(1, c, h, w)
	copy(x.Data, img)
	out := m.Forward(autodiff.Constant(x))
	res := CVResult{Class: tensor.ArgmaxRows(out.Val)[0], Logits: copyRow(out.Val.Data, 0, out.Val.Dim(1))}
	autodiff.Release(out)
	return res
}

func forwardTextOne(m IDForwarder, toks []int) TextResult {
	out := m.ForwardIDs([][]int{toks})
	res := TextResult{Class: tensor.ArgmaxRows(out.Val)[0], Logits: copyRow(out.Val.Data, 0, out.Val.Dim(1))}
	autodiff.Release(out)
	return res
}

func forwardLMOne(m IDForwarder, ctx []int, topK int) LMResult {
	out := m.ForwardIDs([][]int{ctx})
	vocab := out.Val.Dim(1)
	rows := out.Val.Dim(0)
	toks, lps := topKLogProbs(out.Val.Data[(rows-1)*vocab:rows*vocab], topK)
	autodiff.Release(out)
	return LMResult{Tokens: toks, LogProbs: lps}
}

func float32sEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedMatchesSequential hammers one server with mixed modalities
// from many goroutines and requires every coalesced result to be
// bit-identical to a sequential single call straight through the model:
// batching changes throughput, never numerics. Run under -race in CI
// ("race test (inference serving)").
func TestBatchedMatchesSequential(t *testing.T) {
	cv, txt, lm := buildTestModels(t)
	s := New(Config{MaxBatch: 8, Workers: 4, QueueDepth: 512})
	defer s.Close()
	if err := s.RegisterCV("cv", cv, CVConfig{C: 1, H: 28, W: 28}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterText("txt", txt, TextConfig{Vocab: 80}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLM("lm", lm, LMConfig{MaxContext: 12, Vocab: 60}); err != nil {
		t.Fatal(err)
	}

	const n = 16
	imgs := data.SyntheticMNIST(n, 3)
	txtDS := data.GenerateClassifiedText(data.ClassTextConfig{Name: "t", N: n, SeqLen: 9, Vocab: 80, Classes: 4, Seed: 5})
	rng := tensor.NewRNG(17)
	ctxs := make([][]int, n)
	for i := range ctxs {
		ctx := make([]int, 4+i%3) // mixed context lengths exercise per-length queues
		for j := range ctx {
			ctx[j] = rng.IntN(60)
		}
		ctxs[i] = ctx
	}

	wantCV := make([]CVResult, n)
	wantTxt := make([]TextResult, n)
	wantLM := make([]LMResult, n)
	for i := 0; i < n; i++ {
		wantCV[i] = forwardCVOne(cv, imageRow(imgs, i), 1, 28, 28)
		wantTxt[i] = forwardTextOne(txt, txtDS.Samples[i])
		wantLM[i] = forwardLMOne(lm, ctxs[i], 3)
	}

	const rounds = 4
	errs := make(chan error, 3*n*rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			wg.Add(3)
			go func(i int) {
				defer wg.Done()
				got, err := s.PredictCV("cv", [][]float32{imageRow(imgs, i)})
				if err != nil {
					errs <- fmt.Errorf("PredictCV(%d): %v", i, err)
				} else if got[0].Class != wantCV[i].Class || !float32sEqual(got[0].Logits, wantCV[i].Logits) {
					errs <- fmt.Errorf("PredictCV(%d): batched result differs from sequential", i)
				}
			}(i)
			go func(i int) {
				defer wg.Done()
				got, err := s.PredictText("txt", [][]int{txtDS.Samples[i]})
				if err != nil {
					errs <- fmt.Errorf("PredictText(%d): %v", i, err)
				} else if got[0].Class != wantTxt[i].Class || !float32sEqual(got[0].Logits, wantTxt[i].Logits) {
					errs <- fmt.Errorf("PredictText(%d): batched result differs from sequential", i)
				}
			}(i)
			go func(i int) {
				defer wg.Done()
				got, err := s.PredictLM("lm", [][]int{ctxs[i]}, 3)
				if err != nil {
					errs <- fmt.Errorf("PredictLM(%d): %v", i, err)
				} else if !intsEqual(got[0].Tokens, wantLM[i].Tokens) || !float32sEqual(got[0].LogProbs, wantLM[i].LogProbs) {
					errs <- fmt.Errorf("PredictLM(%d): batched result differs from sequential", i)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSplitMatchesFull proves the offloading split: a client that runs
// the embedding half locally and ships only activations gets bit-exactly
// the prediction the full-input path produces.
func TestSplitMatchesFull(t *testing.T) {
	_, txt, lm := buildTestModels(t)
	s := New(Config{MaxBatch: 4, Workers: 2})
	defer s.Close()
	if err := s.RegisterText("txt", txt, TextConfig{Vocab: 80, SplitTail: txt.ForwardPooled, SplitDim: txt.EmbedDim}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLM("lm", lm, LMConfig{MaxContext: 12, Vocab: 60, SplitTail: lm.ForwardEmbedded, SplitDim: lm.D}); err != nil {
		t.Fatal(err)
	}

	toks := []int{5, 17, 3, 42, 9, 77}
	full, err := s.PredictText("txt", [][]int{toks})
	if err != nil {
		t.Fatal(err)
	}
	pooledNode := txt.Embed.LookupMean([][]int{toks})
	pooled := copyRow(pooledNode.Val.Data, 0, txt.EmbedDim)
	autodiff.Release(pooledNode)
	split, err := s.PredictTextSplit("txt", [][]float32{pooled})
	if err != nil {
		t.Fatal(err)
	}
	if split[0].Class != full[0].Class || !float32sEqual(split[0].Logits, full[0].Logits) {
		t.Error("text split result differs from full-input result")
	}

	ctx := []int{1, 8, 30, 55, 2, 2, 47}
	fullLM, err := s.PredictLM("lm", [][]int{ctx}, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := lm.EmbedIDs([][]int{ctx})
	acts := make([]float32, len(ctx)*lm.D)
	copy(acts, h.Val.Data)
	autodiff.Release(h)
	splitLM, err := s.PredictLMSplit("lm", [][]float32{acts}, []int{len(ctx)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !intsEqual(splitLM[0].Tokens, fullLM[0].Tokens) || !float32sEqual(splitLM[0].LogProbs, fullLM[0].LogProbs) {
		t.Error("LM split result differs from full-input result")
	}
}

// TestSteadyStatePoolStable pins the release discipline: after warmup,
// serving draws every forward buffer from the tensor pool — zero fresh
// pool allocations per prediction.
func TestSteadyStatePoolStable(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; miss counts are meaningless")
	}
	_, txt, _ := buildTestModels(t)
	s := New(Config{MaxBatch: 4, Workers: 1})
	defer s.Close()
	if err := s.RegisterText("txt", txt, TextConfig{Vocab: 80}); err != nil {
		t.Fatal(err)
	}
	toks := []int{3, 14, 15, 9, 26, 5}
	for i := 0; i < 10; i++ {
		if _, err := s.PredictText("txt", [][]int{toks}); err != nil {
			t.Fatal(err)
		}
	}
	_, miss0 := tensor.PoolStats()
	for i := 0; i < 50; i++ {
		if _, err := s.PredictText("txt", [][]int{toks}); err != nil {
			t.Fatal(err)
		}
	}
	_, miss1 := tensor.PoolStats()
	if miss1 != miss0 {
		t.Errorf("steady-state serving allocated %d fresh pool buffers over 50 predictions; want 0", miss1-miss0)
	}
}

// blockingCV parks every forward until released — a stand-in for a slow
// model, used to fill the admission queue deterministically.
type blockingCV struct{ release chan struct{} }

func (b *blockingCV) Forward(x *autodiff.Node) *autodiff.Node {
	<-b.release
	return autodiff.Constant(tensor.New(x.Val.Dim(0), 2))
}
func (b *blockingCV) SetTraining(bool) {}

func TestOverloadAndClose(t *testing.T) {
	s := New(Config{MaxBatch: 1, Workers: 1, QueueDepth: 2})
	bm := &blockingCV{release: make(chan struct{})}
	if err := s.RegisterCV("b", bm, CVConfig{C: 1, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.PredictCV("b", [][]float32{{0}})
			done <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pending.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("admitted calls never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.PredictCV("b", [][]float32{{0}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-depth request: got %v, want ErrOverloaded", err)
	}
	close(bm.release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("released call failed: %v", err)
		}
	}
	s.Close()
	if _, err := s.PredictCV("b", [][]float32{{0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close request: got %v, want ErrClosed", err)
	}
}

// panickyCV blows up in Forward; the batch must fail typed, not crash the
// worker pool.
type panickyCV struct{}

func (panickyCV) Forward(*autodiff.Node) *autodiff.Node { panic("synthetic model bug") }
func (panickyCV) SetTraining(bool)                      {}

func TestModelPanicFailsBatchTyped(t *testing.T) {
	s := New(Config{MaxBatch: 1, Workers: 1})
	defer s.Close()
	if err := s.RegisterCV("p", panickyCV{}, CVConfig{C: 1, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictCV("p", [][]float32{{0}}); !errors.Is(err, ErrModelPanic) {
		t.Fatalf("got %v, want ErrModelPanic", err)
	}
	// The worker survived; the server still serves.
	if _, err := s.PredictCV("p", [][]float32{{1}}); !errors.Is(err, ErrModelPanic) {
		t.Fatalf("second call: got %v, want ErrModelPanic", err)
	}
}

// laneBugCV blows up the way an augmented model's decoy would: inside a
// branch that tensor.ParallelBranches runs beside the caller's.
type laneBugCV struct{ panickyCV }

func (laneBugCV) Forward(*autodiff.Node) *autodiff.Node {
	tensor.ParallelBranches(3, func(i int) {
		if i > 0 {
			panic("synthetic decoy bug")
		}
	})
	return nil
}

// TestLanePanicFailsBatchTyped: a panic raised in a branch dealt off the
// worker's own chunk under a model's forward reaches the worker's own
// recover — the typed reply, a live worker — exactly as one raised on the
// worker's goroutine does.
func TestLanePanicFailsBatchTyped(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(3))
	s := New(Config{MaxBatch: 1, Workers: 1})
	defer s.Close()
	if err := s.RegisterCV("p", laneBugCV{}, CVConfig{C: 1, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ { // the second shows the worker survived
		if _, err := s.PredictCV("p", [][]float32{{0}}); !errors.Is(err, ErrModelPanic) || !strings.Contains(err.Error(), "synthetic decoy bug") {
			t.Fatalf("call %d: got %v, want ErrModelPanic carrying the branch's panic", call, err)
		}
	}
}

func TestAdmissionValidation(t *testing.T) {
	cv, txt, lm := buildTestModels(t)
	s := New(Config{MaxBatch: 2, Workers: 1})
	defer s.Close()
	if err := s.RegisterCV("cv", cv, CVConfig{C: 1, H: 28, W: 28}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterText("txt", txt, TextConfig{FixedLen: 6, Vocab: 80}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLM("lm", lm, LMConfig{MaxContext: 12, FixedContext: 8, Vocab: 60}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterCV("cv", cv, CVConfig{C: 1, H: 28, W: 28}); !errors.Is(err, ErrDuplicateModel) {
		t.Errorf("duplicate register: got %v, want ErrDuplicateModel", err)
	}

	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"unknown model", func() error { _, err := s.PredictCV("nope", [][]float32{make([]float32, 784)}); return err }, ErrUnknownModel},
		{"wrong modality", func() error { _, err := s.PredictText("cv", [][]int{{1}}); return err }, ErrBadInput},
		{"bad image size", func() error { _, err := s.PredictCV("cv", [][]float32{make([]float32, 10)}); return err }, ErrBadInput},
		{"empty tokens", func() error { _, err := s.PredictText("txt", [][]int{nil}); return err }, ErrBadInput},
		{"fixed-length violation", func() error { _, err := s.PredictText("txt", [][]int{{1, 2, 3}}); return err }, ErrBadInput},
		{"token out of vocab", func() error { _, err := s.PredictText("txt", [][]int{{1, 2, 3, 4, 5, 99}}); return err }, ErrBadInput},
		{"context too long", func() error { _, err := s.PredictLM("lm", [][]int{make([]int, 20)}, 1); return err }, ErrBadInput},
		{"fixed-context violation", func() error { _, err := s.PredictLM("lm", [][]int{make([]int, 5)}, 1); return err }, ErrBadInput},
		{"no split tail", func() error { _, err := s.PredictTextSplit("txt", [][]float32{make([]float32, 16)}); return err }, ErrBadInput},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// topKReference is the selection loop topKLogProbs replaced — k passes
// over the row, O(k·V) — kept as the definition of its output.
func topKReference(logits []float32, k int) []int {
	if k <= 0 {
		k = 1
	}
	if k > len(logits) {
		k = len(logits)
	}
	toks := make([]int, 0, k)
	taken := make([]bool, len(logits))
	for len(toks) < k {
		best := -1
		for i, v := range logits {
			if !taken[i] && (best < 0 || v > logits[best]) {
				best = i
			}
		}
		taken[best] = true
		toks = append(toks, best)
	}
	return toks
}

// TestTopKMatchesSelectionLoop pins the heap selection to the loop it
// replaced — most probable first, ties toward the lower id, k <= 0 → 1,
// k > V → V — on random rows with planted ties, and pins the bound that
// motivated it: top_k arrives off the wire unchecked, and at WikiText-2's
// vocabulary the loop spent seconds of a shared worker on k = 1<<30.
func TestTopKMatchesSelectionLoop(t *testing.T) {
	rng := tensor.NewRNG(29)
	for _, v := range []int{1, 2, 7, 64, 257} {
		row := make([]float32, v)
		for i := range row {
			row[i] = float32(rng.IntN(v/2+1)) - float32(v)/4 // about two ids per value
		}
		for _, k := range []int{0, 1, 2, v - 1, v, 1 << 30} {
			want := topKReference(row, k)
			got, lps := topKLogProbs(row, k)
			if !intsEqual(got, want) {
				t.Fatalf("V=%d k=%d: heap %v, loop %v", v, k, got, want)
			}
			for i := range got {
				if i > 0 && lps[i] > lps[i-1] {
					t.Fatalf("V=%d k=%d: log-probs rise at %d: %v", v, k, i, lps)
				}
			}
		}
	}

	const wikiText2 = 33278
	row := make([]float32, wikiText2)
	for i := range row {
		row[i] = float32(rng.IntN(4096))
	}
	want := topKReference(row, 3)
	start := time.Now()
	got, _ := topKLogProbs(row, 1<<30)
	took := time.Since(start)
	if len(got) != wikiText2 || !intsEqual(got[:3], want) {
		t.Fatalf("full ranking of %d tokens: %d returned, head %v, want head %v", wikiText2, len(got), got[:3], want)
	}
	for i := 1; i < len(got); i++ {
		if a, b := got[i-1], got[i]; row[a] < row[b] || (row[a] == row[b] && a > b) {
			t.Fatalf("rank %d (%d: %v) sorts after rank %d (%d: %v)", i-1, a, row[a], i, b, row[b])
		}
	}
	if limit := 250 * time.Millisecond; took > limit && !raceEnabled {
		t.Errorf("top_k = 1<<30 at V = %d took %v, want under %v", wikiText2, took, limit)
	}
}

// gate is a model that records the shape of every batch it runs — rows,
// and tokens per row on the id path — announcing each forward on entered
// before it waits for release. Close release to let forwards run free.
type gate struct {
	entered chan [2]int
	release chan struct{}
}

const gateVocab = 8

func newGate() *gate {
	return &gate{entered: make(chan [2]int, 64), release: make(chan struct{})}
}

func (g *gate) Forward(x *autodiff.Node) *autodiff.Node {
	g.entered <- [2]int{x.Val.Dim(0), 0}
	<-g.release
	return autodiff.Constant(tensor.New(x.Val.Dim(0), 2))
}

// ForwardIDs answers each row with a one-hot logit at its first token,
// so every result shows which sample it came from.
func (g *gate) ForwardIDs(ids [][]int) *autodiff.Node {
	g.entered <- [2]int{len(ids), len(ids[0])}
	<-g.release
	out := tensor.New(len(ids), gateVocab)
	for i, row := range ids {
		out.Data[i*gateVocab+row[0]] = 1
	}
	return autodiff.Constant(out)
}

func (g *gate) SetTraining(bool) {}

// batches lists the batch shapes the gate has recorded and not yet
// reported.
func (g *gate) batches() [][2]int {
	var out [][2]int
	for {
		select {
		case b := <-g.entered:
			out = append(out, b)
		default:
			return out
		}
	}
}

// waitPending waits until n samples are admitted and unfinished.
func waitPending(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.pending.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("pending stuck at %d, want %d", s.pending.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchesForm pins how batches form, with one worker so the order is
// fixed: a lone call runs at once, alone; calls that queue behind a busy
// worker leave together, MaxBatch at a time; and one group runs as one
// forward per shape, its answers back in its own order.
func TestBatchesForm(t *testing.T) {
	const maxBatch = 4
	newServer := func(t *testing.T) (*Server, *gate) {
		s := New(Config{MaxBatch: maxBatch, Workers: 1})
		t.Cleanup(s.Close)
		g := newGate()
		if err := s.RegisterCV("cv", g, CVConfig{C: 1, H: 1, W: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterLM("lm", g, LMConfig{MaxContext: 8, Vocab: gateVocab}); err != nil {
			t.Fatal(err)
		}
		return s, g
	}
	predictCV := func(s *Server, errs chan<- error) {
		_, err := s.PredictCV("cv", [][]float32{{0}})
		errs <- err
	}

	t.Run("lone call runs alone at once", func(t *testing.T) {
		s, g := newServer(t)
		errs := make(chan error, 1)
		go predictCV(s, errs)
		if b := <-g.entered; b[0] != 1 {
			t.Fatalf("lone call reached Forward in a batch of %d, want 1", b[0])
		}
		if n := s.pending.Load(); n != 1 {
			t.Fatalf("%d samples pending while the lone call runs, want 1", n)
		}
		close(g.release)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("calls queued behind a busy worker leave together", func(t *testing.T) {
		const k = 10
		s, g := newServer(t)
		errs := make(chan error, k+1)
		go predictCV(s, errs)
		<-g.entered // the worker is now blocked in Forward
		for i := 0; i < k; i++ {
			go predictCV(s, errs)
		}
		waitPending(t, s, k+1)
		close(g.release)
		for i := 0; i < k+1; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		got := g.batches()
		want := [][2]int{{maxBatch, 0}, {maxBatch, 0}, {k - 2*maxBatch, 0}} // ⌈k/MaxBatch⌉ forwards
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d queued calls ran as batches %v, want %v", k, got, want)
		}
	})

	t.Run("one group runs one forward per length", func(t *testing.T) {
		s, g := newServer(t)
		close(g.release)
		contexts := [][]int{{1, 0, 0}, {2, 0, 0, 0, 0}, {3, 0, 0}, {4, 0, 0, 0, 0}, {5, 0, 0}, {6, 0, 0, 0, 0, 0, 0, 0}}
		res, err := s.PredictLM("lm", contexts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Tokens[0] != contexts[i][0] {
				t.Errorf("sample %d got the answer of the sample starting %d", i, r.Tokens[0])
			}
		}
		got := g.batches()
		want := [][2]int{{3, 3}, {2, 5}, {1, 8}} // (rows, tokens), in order of first appearance
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("group ran as batches %v, want %v", got, want)
		}
	})
}

// TestCloseFailsQueuedCalls: Close answers the calls still queued with
// ErrClosed at once, and lets the batch already running finish.
func TestCloseFailsQueuedCalls(t *testing.T) {
	s := New(Config{MaxBatch: 1, Workers: 1})
	g := newGate()
	if err := s.RegisterCV("cv", g, CVConfig{C: 1, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	running, queued := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := s.PredictCV("cv", [][]float32{{0}})
		running <- err
	}()
	<-g.entered
	go func() {
		_, err := s.PredictCV("cv", [][]float32{{0}, {1}})
		queued <- err
	}()
	waitPending(t, s, 3)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued group: got %v, want ErrClosed", err)
	}
	close(g.release)
	<-closed
	if err := <-running; err != nil {
		t.Fatalf("running batch: %v", err)
	}
	if n := s.pending.Load(); n != 0 {
		t.Fatalf("%d samples still pending after Close", n)
	}
}
