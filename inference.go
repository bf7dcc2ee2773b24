package amalgam

// Inference serving: the public face of internal/serve (an in-process
// batched prediction server) and of the wire protocol's infer frames
// (a retrying remote client). A PredictServer coalesces
// concurrent single predictions into shared forward passes whenever its
// workers are busy, and runs a lone one at once, serving extracted
// originals and still-obfuscated augmented models alike; batched and
// sequential predictions are bit-identical. Each request type names its
// path in one place, the serve.Group it builds, and both send that group.
// See README "Inference serving".

import (
	"context"
	"time"

	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/serve"
	"amalgam/internal/tensor"
)

// Prediction results, shared by the in-process server and the remote
// client.
type (
	// CVResult is one image classification: the argmax class and the raw
	// logit row.
	CVResult = serve.CVResult
	// TextResult is one text classification.
	TextResult = serve.TextResult
	// LMResult is one next-token scoring: the top-K most probable token
	// ids (most probable first, ties toward the lower id) with their
	// log probabilities.
	LMResult = serve.LMResult
)

// PredictServerConfig tunes the batcher and worker pool: MaxBatch caps
// the predictions one forward pass takes (default 32); Workers is the
// inference worker pool size (default 2); QueueDepth bounds
// admitted-but-unfinished predictions, beyond which requests fail fast
// with backpressure (default 1024). Nothing waits on a timer: a free
// worker runs whatever is waiting, so predictions batch only when they
// arrive faster than the workers finish.
type PredictServerConfig = serve.Config

// PredictServer is an in-process batched inference server. Requests from
// concurrent goroutines coalesce into shared eval-mode forward passes —
// same numerics as calling the model directly, amortised fixed cost.
// Registration permanently puts a model in eval mode; do not train a
// registered model while serving it.
type PredictServer struct {
	backend *serve.Server
}

// NewPredictServer starts the worker pool. Close releases it.
func NewPredictServer(cfg PredictServerConfig) *PredictServer {
	return &PredictServer{backend: serve.New(cfg)}
}

// Close drains the worker pool; in-flight calls fail fast.
func (s *PredictServer) Close() { s.backend.Close() }

// Backend exposes the underlying serve.Server — for wiring into a
// cloudsim service (ServerConfig.Infer) or direct use.
func (s *PredictServer) Backend() *serve.Server { return s.backend }

// RegisterCV serves an image classifier — extracted or still augmented —
// under name, expecting flattened c×h×w images.
func (s *PredictServer) RegisterCV(name string, m Classifier, c, h, w int) error {
	return s.backend.RegisterCV(name, m, serve.CVConfig{C: c, H: h, W: w})
}

// RegisterText serves a text classifier under name. vocab > 0 validates
// token ids at admission; 0 takes the vocabulary of a *TextClassifier or
// an augmented classifier and leaves any other model unchecked. A
// *TextClassifier additionally gets the split-inference path wired:
// clients may ship locally-pooled embeddings instead of raw tokens. An
// augmented classifier is admitted as strictly as a plain one: every
// request is a whole window of the key's augmented length (its noise
// tokens are drawn inside the vocabulary, so the id check holds too).
func (s *PredictServer) RegisterText(name string, m TextPredictor, vocab int) error {
	cfg := serve.TextConfig{Vocab: vocab}
	switch tm := m.(type) {
	case *TextClassifier:
		cfg.SplitTail, cfg.SplitDim = tm.ForwardPooled, tm.EmbedDim
		if vocab == 0 {
			cfg.Vocab = tm.Vocab
		}
	case *core.AugmentedTextClassifier:
		cfg.FixedLen = tm.OrigGather.AugLen
		if vocab == 0 {
			cfg.Vocab = tm.Orig.Vocab
		}
	}
	return s.backend.RegisterText(name, m, cfg)
}

// RegisterLM serves a language model for next-token scoring under name,
// accepting contexts up to maxContext tokens. A *TransformerLM gets its
// vocabulary validated, maxContext defaulted to its positional-table
// length, and the split-inference path wired (clients ship locally-
// embedded activations). An augmented LM serves whole augmented windows:
// every context must be exactly the key's augmented length, which is
// also maxContext's default, and its ids are validated against the
// original's vocabulary.
func (s *PredictServer) RegisterLM(name string, m TextPredictor, maxContext int) error {
	cfg := serve.LMConfig{MaxContext: maxContext}
	switch tm := m.(type) {
	case *TransformerLM:
		cfg.SplitTail, cfg.SplitDim = tm.ForwardEmbedded, tm.D
		cfg.Vocab = tm.Vocab
		if maxContext == 0 {
			cfg.MaxContext = tm.Cfg.MaxT
		}
	case *core.AugmentedTransformerLM:
		cfg.FixedContext, cfg.Vocab = tm.OrigGather.AugLen, tm.Orig.Vocab
		if maxContext == 0 {
			cfg.MaxContext = tm.OrigGather.AugLen
		}
	}
	return s.backend.RegisterLM(name, m, cfg)
}

// PredictCVRequest asks for one image classification.
type PredictCVRequest struct {
	// Model names the registered model.
	Model string
	// Image is the flattened c×h×w pixel row.
	Image []float32
}

// PredictTextRequest asks for one text classification. Exactly one of
// Tokens (full-input path) and Pooled (split path: the mean-pooled
// embedding computed client-side, so raw tokens never reach the server)
// must be set.
type PredictTextRequest struct {
	Model  string
	Tokens []int
	Pooled []float32
}

// PredictLMRequest asks for one next-token scoring. Exactly one of
// Context (full-input path) and Activations (split path: SeqLen×D
// locally-embedded activations, row-major) must be set.
type PredictLMRequest struct {
	Model   string
	Context []int
	// TopK asks for the K most probable next tokens (0 means 1).
	TopK        int
	Activations []float32
	SeqLen      int
}

// The request types' groups: one sample each, on the path the set fields
// choose.

func (r PredictCVRequest) group() serve.Group {
	return serve.Group{Path: "cv", Rows: [][]float32{r.Image}}
}

func (r PredictTextRequest) group() serve.Group {
	if r.Pooled != nil {
		return serve.Group{Path: "text/split", Rows: [][]float32{r.Pooled}}
	}
	return serve.Group{Path: "text", IDs: [][]int{r.Tokens}}
}

func (r PredictLMRequest) group() serve.Group {
	if r.Activations != nil {
		return serve.Group{Path: "lm/split", Rows: [][]float32{r.Activations}, SeqLens: []int{r.SeqLen}, TopK: r.TopK}
	}
	return serve.Group{Path: "lm", IDs: [][]int{r.Context}, TopK: r.TopK}
}

// PredictCV classifies one image, batching it with whatever else is in
// flight.
func (s *PredictServer) PredictCV(req PredictCVRequest) (CVResult, error) {
	r, err := only(s.backend.Predict(req.Model, req.group()))
	return r.CVResult, err
}

// PredictText classifies one token sequence (or, on the split path, one
// locally-pooled embedding).
func (s *PredictServer) PredictText(req PredictTextRequest) (TextResult, error) {
	r, err := only(s.backend.Predict(req.Model, req.group()))
	return r.CVResult, err
}

// PredictLM scores the next token after one context (or, on the split
// path, after locally-embedded activations).
func (s *PredictServer) PredictLM(req PredictLMRequest) (LMResult, error) {
	r, err := only(s.backend.Predict(req.Model, req.group()))
	return r.LMResult, err
}

// only unwraps the answer to a one-sample group.
func only[R any](rs []R, err error) (R, error) {
	if err != nil {
		var zero R
		return zero, err
	}
	return rs[0], nil
}

// PredictClient is a remote prediction client speaking the wire
// protocol's infer frames, with the same fault tolerance story as
// RemoteTrainer: transient failures — dial errors, dropped connections,
// I/O deadlines, server shutdown, backpressure — are retried with capped
// exponential backoff over a fresh connection. Predictions are
// idempotent (pure eval-mode forwards), so resending is always safe.
// Fatal errors (unknown model, malformed input, protocol skew) are never
// retried. Calls from concurrent goroutines serialize on the one
// underlying connection.
type PredictClient struct {
	addr   string
	pol    RetryPolicy
	sem    chan struct{} // capacity 1: guards conn and jitter
	conn   *cloudsim.InferConn
	jitter *tensor.RNG
}

// NewPredictClient prepares a client for addr; the connection is dialed
// lazily on first use and redialed transparently after transient faults.
// Zero BaseDelay/MaxDelay get the WithRetry defaults (100ms, 5s).
func NewPredictClient(addr string, pol RetryPolicy) *PredictClient {
	if pol.BaseDelay <= 0 {
		pol.BaseDelay = 100 * time.Millisecond
	}
	if pol.MaxDelay <= 0 {
		pol.MaxDelay = 5 * time.Second
	}
	return &PredictClient{
		addr:   addr,
		pol:    pol,
		sem:    make(chan struct{}, 1),
		jitter: tensor.NewRNG(pol.Seed).Split(0x707265646963), // "predic"
	}
}

// Close releases the connection, if one is open.
func (c *PredictClient) Close() error {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// predict runs a one-sample group's exchange under the retry policy,
// dialing (or redialing) the connection as needed.
func (c *PredictClient) predict(ctx context.Context, model string, g serve.Group) (out serve.Result, err error) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	err = retryTransient(ctx, &c.pol, c.jitter, func() error {
		if c.conn == nil {
			conn, err := cloudsim.DialInfer(ctx, c.addr, cloudsim.NetConfig{
				DialTimeout:  c.pol.DialTimeout,
				FrameTimeout: c.pol.FrameTimeout,
			})
			if err != nil {
				return err
			}
			c.conn = conn
		}
		res, err := c.conn.Predict(model, g)
		if err != nil {
			if cloudsim.IsTransient(err) {
				// The connection may be torn mid-exchange; the retry loop
				// resends over a fresh dial.
				_ = c.conn.Close()
				c.conn = nil
			}
			return err
		}
		out = res[0]
		return nil
	})
	return out, err
}

// PredictCV classifies one image on the remote server.
func (c *PredictClient) PredictCV(ctx context.Context, req PredictCVRequest) (CVResult, error) {
	r, err := c.predict(ctx, req.Model, req.group())
	return r.CVResult, err
}

// PredictText classifies one token sequence remotely — or, when Pooled
// is set, ships only the locally-pooled embedding (split inference: raw
// tokens never leave this process).
func (c *PredictClient) PredictText(ctx context.Context, req PredictTextRequest) (TextResult, error) {
	r, err := c.predict(ctx, req.Model, req.group())
	return r.CVResult, err
}

// PredictLM scores the next token after one context remotely — or, when
// Activations is set, ships only locally-embedded activations (SeqLen
// rows of len(Activations)/SeqLen values each).
func (c *PredictClient) PredictLM(ctx context.Context, req PredictLMRequest) (LMResult, error) {
	r, err := c.predict(ctx, req.Model, req.group())
	return r.LMResult, err
}
