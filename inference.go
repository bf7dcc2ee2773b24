package amalgam

// Inference serving: the public face of internal/serve (an in-process
// batched prediction server) and of the wire protocol's infer frames
// (a retrying remote client). A PredictServer coalesces
// concurrent single predictions into shared forward passes under a
// latency budget, serving extracted originals and still-obfuscated
// augmented models alike; batched and sequential predictions are
// bit-identical. See README "Inference serving".

import (
	"context"
	"fmt"
	"time"

	"amalgam/internal/cloudsim"
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

// PredictServerConfig tunes the dynamic batcher and worker pool:
// MaxBatch flushes a queue at that many coalesced calls (default 32);
// MaxDelay is the latency budget — a lone request waits at most this long
// for company before its batch flushes (default 2ms); Workers is the
// inference worker pool size (default 2); QueueDepth bounds
// admitted-but-unfinished predictions, beyond which requests fail fast
// with backpressure (default 1024).
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
// token ids at admission (0 disables). A *TextClassifier additionally
// gets the split-inference path wired: clients may ship locally-pooled
// embeddings instead of raw tokens, and its vocabulary is used when
// vocab is 0.
func (s *PredictServer) RegisterText(name string, m TextPredictor, vocab int) error {
	cfg := serve.TextConfig{Vocab: vocab}
	if tc, ok := m.(*TextClassifier); ok {
		cfg.SplitTail, cfg.SplitDim = tc.ForwardPooled, tc.EmbedDim
		if vocab == 0 {
			cfg.Vocab = tc.Vocab
		}
	}
	return s.backend.RegisterText(name, m, cfg)
}

// RegisterLM serves a language model for next-token scoring under name,
// accepting contexts up to maxContext tokens. A *TransformerLM gets its
// vocabulary validated, maxContext defaulted to its positional-table
// length, and the split-inference path wired (clients ship locally-
// embedded activations). Augmented LMs serve full gathered windows;
// their context length is the augmented window length.
func (s *PredictServer) RegisterLM(name string, m TextPredictor, maxContext int) error {
	cfg := serve.LMConfig{MaxContext: maxContext}
	if tm, ok := m.(*TransformerLM); ok {
		cfg.SplitTail, cfg.SplitDim = tm.ForwardEmbedded, tm.D
		cfg.Vocab = tm.Vocab
		if maxContext == 0 {
			cfg.MaxContext = tm.Cfg.MaxT
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

// PredictCV classifies one image, batching it with whatever else is in
// flight.
func (s *PredictServer) PredictCV(req PredictCVRequest) (CVResult, error) {
	return s.backend.PredictCV(req.Model, req.Image)
}

// PredictText classifies one token sequence (or, on the split path, one
// locally-pooled embedding).
func (s *PredictServer) PredictText(req PredictTextRequest) (TextResult, error) {
	if req.Pooled != nil {
		return s.backend.PredictTextSplit(req.Model, req.Pooled)
	}
	return s.backend.PredictText(req.Model, req.Tokens)
}

// PredictLM scores the next token after one context (or, on the split
// path, after locally-embedded activations).
func (s *PredictServer) PredictLM(req PredictLMRequest) (LMResult, error) {
	if req.Activations != nil {
		return s.backend.PredictLMSplit(req.Model, req.Activations, req.SeqLen, req.TopK)
	}
	return s.backend.PredictLM(req.Model, req.Context, req.TopK)
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

// predictOne runs one single-sample exchange under the retry policy,
// dialing (or redialing) the connection as needed.
func predictOne[R any](ctx context.Context, c *PredictClient, exchange func(*cloudsim.InferConn) ([]R, error)) (out R, err error) {
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
		res, err := exchange(c.conn)
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
	return predictOne(ctx, c, func(conn *cloudsim.InferConn) ([]CVResult, error) {
		return conn.PredictCV(req.Model, [][]float32{req.Image})
	})
}

// PredictText classifies one token sequence remotely — or, when Pooled
// is set, ships only the locally-pooled embedding (split inference: raw
// tokens never leave this process).
func (c *PredictClient) PredictText(ctx context.Context, req PredictTextRequest) (TextResult, error) {
	return predictOne(ctx, c, func(conn *cloudsim.InferConn) ([]TextResult, error) {
		if req.Pooled != nil {
			return conn.PredictTextSplit(req.Model, [][]float32{req.Pooled})
		}
		return conn.PredictText(req.Model, [][]int{req.Tokens})
	})
}

// PredictLM scores the next token after one context remotely — or, when
// Activations is set, ships only locally-embedded activations. Dim for
// the split path is inferred from len(Activations)/SeqLen.
func (c *PredictClient) PredictLM(ctx context.Context, req PredictLMRequest) (LMResult, error) {
	return predictOne(ctx, c, func(conn *cloudsim.InferConn) ([]LMResult, error) {
		if req.Activations == nil {
			return conn.PredictLM(req.Model, [][]int{req.Context}, req.TopK)
		}
		if req.SeqLen <= 0 || len(req.Activations)%req.SeqLen != 0 {
			return nil, fmt.Errorf("amalgam: %d activations do not divide into %d rows: %w",
				len(req.Activations), req.SeqLen, cloudsim.ErrBadRequest)
		}
		dim := len(req.Activations) / req.SeqLen
		return conn.PredictLMSplit(req.Model, [][]float32{req.Activations}, []int{req.SeqLen}, dim, req.TopK)
	})
}
