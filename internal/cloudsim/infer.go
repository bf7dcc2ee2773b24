package cloudsim

// Inference serving: msgInfer frames carry batched prediction requests
// against models registered on the server's serve.Server backend,
// answered by msgInferResult. Two body shapes per modality: full inputs
// (images or token ids) and split-inference activations — the client
// runs the embedding half locally and ships only
// dense obfuscated activations, never raw inputs (Leroux-style
// offloading). A frame's samples fan out as concurrent predictions so the
// backend batcher coalesces them — one wire frame becomes (at most) one
// forward pass per shape, and predictions from unrelated connections
// share batches too.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"amalgam/internal/serialize"
	"amalgam/internal/serve"
	"amalgam/internal/tensor"
)

// inferHeader is the JSON half of a msgInfer payload; the binary body
// that follows carries the inputs (a serialized tensor for images and
// activations, a flattened int slice for token ids).
type inferHeader struct {
	Model string `json:"model"`
	// Modality selects the prediction kind: "cv", "text", or "lm".
	Modality string `json:"modality"`
	// Split marks the body as locally-computed activations for the
	// model's registered split tail rather than raw inputs.
	Split bool `json:"split,omitempty"`
	// Lens gives each sample's token count (text/lm) or activation row
	// count (lm split); token bodies are flattened row-major.
	Lens []int `json:"lens,omitempty"`
	// Dim is the per-row activation width of an lm split body, set by the
	// client that produced the activations.
	Dim int `json:"dim,omitempty"`
	// TopK asks for the K most probable next tokens (lm only).
	TopK int `json:"top_k,omitempty"`
}

// inferResult is the msgInferResult JSON body, indexed like the request's
// samples. Classification fills Classes/Logits; LM scoring fills
// Tokens/LogProbs.
type inferResult struct {
	Classes  []int       `json:"classes,omitempty"`
	Logits   [][]float32 `json:"logits,omitempty"`
	Tokens   [][]int     `json:"tokens,omitempty"`
	LogProbs [][]float32 `json:"log_probs,omitempty"`
}

// encodeInferFrame lays out a msgInfer payload: uint32 header length, the
// header JSON, then the binary body.
func encodeInferFrame(h inferHeader, body []byte) ([]byte, error) {
	js, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 4, 4+len(js)+len(body))
	binary.LittleEndian.PutUint32(payload, uint32(len(js)))
	payload = append(payload, js...)
	return append(payload, body...), nil
}

func decodeInferFrame(payload []byte) (inferHeader, []byte, error) {
	var h inferHeader
	if len(payload) < 4 {
		return h, nil, fmt.Errorf("cloudsim: truncated infer frame: %w", ErrBadRequest)
	}
	n := binary.LittleEndian.Uint32(payload)
	if uint64(n) > uint64(len(payload)-4) {
		return h, nil, fmt.Errorf("cloudsim: infer header length %d exceeds frame: %w", n, ErrBadRequest)
	}
	if err := json.Unmarshal(payload[4:4+n], &h); err != nil {
		return h, nil, fmt.Errorf("cloudsim: bad infer header: %v: %w", err, ErrBadRequest)
	}
	return h, payload[4+n:], nil
}

// inferWireErr maps the serve backend's typed failures onto the wire's
// sentinel taxonomy, preserving the transient/fatal split: backpressure
// and shutdown are retryable, a bad request never is.
func inferWireErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, serve.ErrOverloaded):
		return fmt.Errorf("cloudsim: inference backpressure: %v: %w", err, ErrQueueFull)
	case errors.Is(err, serve.ErrClosed):
		return fmt.Errorf("cloudsim: inference backend closed: %v: %w", err, ErrServerShutdown)
	case errors.Is(err, serve.ErrModelPanic):
		return fmt.Errorf("cloudsim: %v: %w", err, ErrJobPanic)
	case errors.Is(err, serve.ErrUnknownModel), errors.Is(err, serve.ErrBadInput):
		return fmt.Errorf("cloudsim: %v: %w", err, ErrBadRequest)
	default:
		return err
	}
}

// fanOut runs one backend call per sample concurrently, so the batcher
// coalesces a frame's samples into shared forward passes. The lowest-
// indexed failure wins, keeping the reported error deterministic.
func fanOut(n int, call func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = call(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return inferWireErr(err)
		}
	}
	return nil
}

// unflatten splits row-major flattened ids back into per-sample slices.
func unflatten(flat []int, lens []int) ([][]int, error) {
	total := 0
	for _, l := range lens {
		// The upper bound keeps the sum from wrapping round to len(flat).
		if l <= 0 || l > len(flat) {
			return nil, fmt.Errorf("cloudsim: infer sample length %d: %w", l, ErrBadRequest)
		}
		total += l
	}
	if total != len(flat) {
		return nil, fmt.Errorf("cloudsim: infer lens sum %d but body has %d tokens: %w", total, len(flat), ErrBadRequest)
	}
	out := make([][]int, len(lens))
	off := 0
	for i, l := range lens {
		out[i] = flat[off : off+l]
		off += l
	}
	return out, nil
}

// infer answers one msgInfer frame against the configured backend.
// Request-level failures (bad input, unknown model, backpressure) are
// answered in-band with a coded error frame and the connection keeps
// serving — a rejected prediction must not cost the client its dial. Only
// transport failures close the connection.
func (s *Server) infer(conn *deadlineConn, payload []byte) error {
	res, err := s.inferAnswer(payload)
	if err != nil {
		return writeErrorFrame(conn, err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return writeFrame(conn, msgInferResult, js)
}

func (s *Server) inferAnswer(payload []byte) (inferResult, error) {
	if s.cfg.Infer == nil {
		return inferResult{}, fmt.Errorf("cloudsim: this server does not serve inference: %w", ErrBadRequest)
	}
	h, body, err := decodeInferFrame(payload)
	if err != nil {
		return inferResult{}, err
	}
	var res inferResult
	n, call, err := s.inferSamples(h, body, &res)
	if err != nil {
		return inferResult{}, err
	}
	return res, fanOut(n, call)
}

// inferSamples decodes a frame's body, by (modality, split), into n
// samples and the backend call that answers sample i into res.
func (s *Server) inferSamples(h inferHeader, body []byte, res *inferResult) (n int, call func(i int) error, err error) {
	be := s.cfg.Infer
	switch {
	case h.Modality == "cv", h.Modality == "text" && h.Split:
		// [N, width]: flattened images, or client-pooled embeddings.
		t, err := readInferTensor(body)
		if err != nil {
			return 0, nil, err
		}
		per, predict := t.Dim(1), be.PredictCV
		if h.Modality == "text" {
			predict = be.PredictTextSplit
		}
		return t.Dim(0), res.classes(t.Dim(0), func(i int) (serve.CVResult, error) {
			return predict(h.Model, t.Data[i*per:(i+1)*per])
		}), nil
	case h.Modality == "lm" && h.Split:
		if h.Dim <= 0 {
			return 0, nil, fmt.Errorf("cloudsim: lm split body needs a positive dim, got %d: %w", h.Dim, ErrBadRequest)
		}
		t, err := serialize.ReadTensor(bytes.NewReader(body))
		if err != nil {
			return 0, nil, fmt.Errorf("cloudsim: bad infer body: %v: %w", err, ErrBadRequest)
		}
		offs := make([]int, len(h.Lens)+1)
		for i, l := range h.Lens {
			// Bounding each length by the body keeps rows×dim from wrapping
			// round to a "matching" size with offsets past the tensor.
			if l <= 0 || l > len(t.Data)/h.Dim {
				return 0, nil, fmt.Errorf("cloudsim: infer sample length %d: %w", l, ErrBadRequest)
			}
			offs[i+1] = offs[i] + l*h.Dim
		}
		if total := offs[len(h.Lens)]; total != len(t.Data) {
			return 0, nil, fmt.Errorf("cloudsim: lm split body has %d floats, lens×dim wants %d: %w",
				len(t.Data), total, ErrBadRequest)
		}
		return len(h.Lens), res.nextTokens(len(h.Lens), func(i int) (serve.LMResult, error) {
			return be.PredictLMSplit(h.Model, t.Data[offs[i]:offs[i+1]], h.Lens[i], h.TopK)
		}), nil
	case h.Modality == "text", h.Modality == "lm":
		flat, err := serialize.ReadIntSlice(bytes.NewReader(body))
		if err != nil {
			return 0, nil, fmt.Errorf("cloudsim: bad infer body: %v: %w", err, ErrBadRequest)
		}
		samples, err := unflatten(flat, h.Lens)
		if err != nil {
			return 0, nil, err
		}
		if h.Modality == "text" {
			return len(samples), res.classes(len(samples), func(i int) (serve.CVResult, error) {
				return be.PredictText(h.Model, samples[i])
			}), nil
		}
		return len(samples), res.nextTokens(len(samples), func(i int) (serve.LMResult, error) {
			return be.PredictLM(h.Model, samples[i], h.TopK)
		}), nil
	default:
		return 0, nil, fmt.Errorf("cloudsim: unknown infer modality %q: %w", h.Modality, ErrBadRequest)
	}
}

// classes sizes the result for n classifications and returns the call
// storing sample i's; nextTokens is the same for next-token scorings. A
// failed sample stores nothing that is sent: its error fails the frame.
func (r *inferResult) classes(n int, predict func(i int) (serve.CVResult, error)) func(int) error {
	r.Classes, r.Logits = make([]int, n), make([][]float32, n)
	return func(i int) error {
		c, err := predict(i)
		r.Classes[i], r.Logits[i] = c.Class, c.Logits
		return err
	}
}

func (r *inferResult) nextTokens(n int, predict func(i int) (serve.LMResult, error)) func(int) error {
	r.Tokens, r.LogProbs = make([][]int, n), make([][]float32, n)
	return func(i int) error {
		t, err := predict(i)
		r.Tokens[i], r.LogProbs[i] = t.Tokens, t.LogProbs
		return err
	}
}

// readInferTensor decodes a [N, per] body tensor.
func readInferTensor(body []byte) (*tensor.Tensor, error) {
	t, err := serialize.ReadTensor(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cloudsim: bad infer body: %v: %w", err, ErrBadRequest)
	}
	// A zero width would let a few header bytes claim millions of samples,
	// each of which fans out as a goroutine.
	if t.Dims() != 2 || t.Dim(0) == 0 || t.Dim(1) == 0 {
		return nil, fmt.Errorf("cloudsim: infer body wants a non-empty [N, width] tensor: %w", ErrBadRequest)
	}
	return t, nil
}

// InferConn is a client connection for inference: one dial, then any
// number of prediction exchanges. Calls from concurrent goroutines
// serialize on the connection (the wire is strictly request/response);
// for client-side parallelism open several conns.
type InferConn struct {
	sem  chan struct{} // capacity 1: one in-flight exchange
	conn *deadlineConn
}

// DialInfer connects to a service. The returned conn is ready for Predict
// calls and must be Closed.
func DialInfer(ctx context.Context, addr string, net_ NetConfig) (*InferConn, error) {
	conn, err := dialFrames(ctx, addr, net_)
	if err != nil {
		return nil, err
	}
	return &InferConn{sem: make(chan struct{}, 1), conn: conn}, nil
}

// Close releases the connection.
func (c *InferConn) Close() error { return c.conn.Close() }

// roundTrip sends one msgInfer frame and decodes its answer.
func (c *InferConn) roundTrip(h inferHeader, body []byte) (inferResult, error) {
	payload, err := encodeInferFrame(h, body)
	if err != nil {
		return inferResult{}, err
	}
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	if err := writeFrame(c.conn, msgInfer, payload); err != nil {
		return inferResult{}, err
	}
	kind, resp, err := c.conn.readFrame()
	if err != nil {
		return inferResult{}, err
	}
	switch kind {
	case msgInferResult:
		var res inferResult
		if err := json.Unmarshal(resp, &res); err != nil {
			return inferResult{}, fmt.Errorf("cloudsim: bad infer result: %v: %w", err, ErrUnknownFrame)
		}
		return res, nil
	case msgError:
		return inferResult{}, decodeErrorFrame(resp)
	default:
		return inferResult{}, fmt.Errorf("cloudsim: unexpected response type %d: %w", kind, ErrUnknownFrame)
	}
}

// tensorBody serializes a [n, per] float32 body.
func tensorBody(rows [][]float32, per int) ([]byte, error) {
	t := tensor.New(len(rows), per)
	for i, r := range rows {
		if len(r) != per {
			return nil, fmt.Errorf("cloudsim: sample %d has %d values, want %d: %w", i, len(r), per, ErrBadRequest)
		}
		copy(t.Data[i*per:(i+1)*per], r)
	}
	var buf bytes.Buffer
	if err := serialize.WriteTensor(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func intBody(samples [][]int) ([]byte, []int, error) {
	lens := make([]int, len(samples))
	for i, s := range samples {
		lens[i] = len(s)
	}
	var buf bytes.Buffer
	if err := serialize.WriteIntSlice(&buf, flattenSamples(samples)); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), lens, nil
}

// classify runs one classification exchange of n samples; score is the
// same for next-token scorings.
func (c *InferConn) classify(h inferHeader, body []byte, n int) ([]serve.CVResult, error) {
	res, err := c.roundTrip(h, body)
	if err != nil {
		return nil, err
	}
	if len(res.Classes) != n || len(res.Logits) != n {
		return nil, fmt.Errorf("cloudsim: infer result carries %d answers for %d samples: %w", len(res.Classes), n, ErrUnknownFrame)
	}
	out := make([]serve.CVResult, n)
	for i := range out {
		out[i] = serve.CVResult{Class: res.Classes[i], Logits: res.Logits[i]}
	}
	return out, nil
}

func (c *InferConn) score(h inferHeader, body []byte, n int) ([]serve.LMResult, error) {
	res, err := c.roundTrip(h, body)
	if err != nil {
		return nil, err
	}
	if len(res.Tokens) != n || len(res.LogProbs) != n {
		return nil, fmt.Errorf("cloudsim: infer result carries %d answers for %d samples: %w", len(res.Tokens), n, ErrUnknownFrame)
	}
	out := make([]serve.LMResult, n)
	for i := range out {
		out[i] = serve.LMResult{Tokens: res.Tokens[i], LogProbs: res.LogProbs[i]}
	}
	return out, nil
}

// classifyRows ships equal-width dense rows as one [N, width] body.
func (c *InferConn) classifyRows(h inferHeader, rows [][]float32) ([]serve.CVResult, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	body, err := tensorBody(rows, len(rows[0]))
	if err != nil {
		return nil, err
	}
	return c.classify(h, body, len(rows))
}

// PredictCV classifies a batch of flattened images (all the same
// registered geometry) in one wire exchange.
func (c *InferConn) PredictCV(model string, images [][]float32) ([]serve.CVResult, error) {
	return c.classifyRows(inferHeader{Model: model, Modality: "cv"}, images)
}

// PredictText classifies a batch of token sequences (ragged lengths are
// fine) in one wire exchange.
func (c *InferConn) PredictText(model string, samples [][]int) ([]serve.TextResult, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	body, lens, err := intBody(samples)
	if err != nil {
		return nil, err
	}
	return c.classify(inferHeader{Model: model, Modality: "text", Lens: lens}, body, len(samples))
}

// PredictTextSplit classifies a batch of locally-pooled embeddings — the
// split-inference path: raw tokens never leave the client.
func (c *InferConn) PredictTextSplit(model string, pooled [][]float32) ([]serve.TextResult, error) {
	return c.classifyRows(inferHeader{Model: model, Modality: "text", Split: true}, pooled)
}

// PredictLM scores the next token after each context, returning each
// context's topK most probable tokens with log probabilities.
func (c *InferConn) PredictLM(model string, contexts [][]int, topK int) ([]serve.LMResult, error) {
	if len(contexts) == 0 {
		return nil, nil
	}
	body, lens, err := intBody(contexts)
	if err != nil {
		return nil, err
	}
	return c.score(inferHeader{Model: model, Modality: "lm", Lens: lens, TopK: topK}, body, len(contexts))
}

// PredictLMSplit scores next tokens from locally-embedded activations
// (sample i is seqLens[i]×dim floats, row-major) — the LM split path.
func (c *InferConn) PredictLMSplit(model string, acts [][]float32, seqLens []int, dim, topK int) ([]serve.LMResult, error) {
	if len(acts) == 0 {
		return nil, nil
	}
	if len(seqLens) != len(acts) {
		return nil, fmt.Errorf("cloudsim: %d activation samples but %d lengths: %w", len(acts), len(seqLens), ErrBadRequest)
	}
	total := 0
	for _, l := range seqLens {
		total += l
	}
	flat := tensor.New(total * dim)
	off := 0
	for i, a := range acts {
		if len(a) != seqLens[i]*dim {
			return nil, fmt.Errorf("cloudsim: sample %d has %d floats, want %d×%d: %w", i, len(a), seqLens[i], dim, ErrBadRequest)
		}
		copy(flat.Data[off:off+len(a)], a)
		off += len(a)
	}
	var buf bytes.Buffer
	if err := serialize.WriteTensor(&buf, flat); err != nil {
		return nil, err
	}
	h := inferHeader{Model: model, Modality: "lm", Split: true, Lens: seqLens, Dim: dim, TopK: topK}
	return c.score(h, buf.Bytes(), len(acts))
}
