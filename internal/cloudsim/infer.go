package cloudsim

// Inference serving: a msgInfer frame is one serve.Group on the wire,
// answered by msgInferResult. Each layer has one entry: the client's
// InferConn.Predict encodes the group (encodeGroup), the server decodes
// it (decodeGroup), answers it with one serve.Server.Predict call and
// lays the results out (answerOf) — so this file names no prediction
// path; serve alone knows what each path reads. Split-inference frames
// carry only activations the client computed from its own inputs
// (Leroux-style offloading), never raw pixels or token ids. A frame's
// samples reach the backend as one group in one call, so the batcher
// queues them together — one wire frame becomes one forward pass per
// shape (MaxBatch permitting), and predictions from unrelated connections
// share batches too.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"amalgam/internal/serialize"
	"amalgam/internal/serve"
	"amalgam/internal/tensor"
)

// inferHeader is the JSON half of a msgInfer payload; the binary body
// that follows carries the group's samples (a serialized tensor of dense
// rows, or a flattened int slice of token lists).
type inferHeader struct {
	Model string `json:"model"`
	// Modality and Split name the group's path: the modality ("cv",
	// "text", "lm"), plus "/split" when Split is set.
	Modality string `json:"modality"`
	Split    bool   `json:"split,omitempty"`
	// Lens gives each sample's token count (an int body) or position
	// count (a tensor body with Dim); bodies are flattened row-major.
	Lens []int `json:"lens,omitempty"`
	// Dim is the activation width per position of a tensor body whose
	// samples are sequences (lm/split).
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

// encodeGroup lays a group out as a msgInfer payload, the inverse of
// decodeGroup: token lists flattened with their lengths; rows with
// sequence lengths as one flat tensor of positions × Dim activations;
// other rows as one [N, width] tensor. A group carrying token lists
// beside rows or lengths has no layout and is refused.
func encodeGroup(model string, g serve.Group) ([]byte, error) {
	mod, split := strings.CutSuffix(g.Path, "/split")
	h := inferHeader{Model: model, Modality: mod, Split: split, TopK: g.TopK}
	var buf bytes.Buffer
	var err error
	switch {
	case len(g.IDs) > 0 && len(g.Rows)+len(g.SeqLens) > 0:
		return nil, fmt.Errorf("cloudsim: a %s group carries token lists beside rows or lengths: %w", g.Path, ErrBadRequest)
	case len(g.IDs) > 0:
		h.Lens = make([]int, len(g.IDs))
		for i, ids := range g.IDs {
			h.Lens[i] = len(ids)
		}
		err = serialize.WriteIntSlice(&buf, flattenSamples(g.IDs))
	case len(g.SeqLens) > 0:
		if len(g.Rows) == len(g.SeqLens) && g.SeqLens[0] > 0 {
			h.Lens, h.Dim = g.SeqLens, len(g.Rows[0])/g.SeqLens[0]
		}
		if h.Dim == 0 {
			return nil, fmt.Errorf("cloudsim: %d activation rows do not divide into their %d sequence lengths: %w",
				len(g.Rows), len(g.SeqLens), ErrBadRequest)
		}
		var flat []float32
		if flat, err = flatRows(g.Rows, func(i int) int { return g.SeqLens[i] * h.Dim }); err == nil {
			err = serialize.WriteTensor(&buf, tensor.FromSlice(flat, len(flat)))
		}
	default:
		width := 0
		if len(g.Rows) > 0 {
			width = len(g.Rows[0])
		}
		var flat []float32
		if flat, err = flatRows(g.Rows, func(int) int { return width }); err == nil {
			err = serialize.WriteTensor(&buf, tensor.FromSlice(flat, len(g.Rows), width))
		}
	}
	if err != nil {
		return nil, err
	}
	return encodeInferFrame(h, buf.Bytes())
}

// flatRows copies rows end to end into one slice, refusing a row whose
// length is not want(i).
func flatRows(rows [][]float32, want func(i int) int) ([]float32, error) {
	total := 0
	for i, r := range rows {
		if len(r) != want(i) {
			return nil, fmt.Errorf("cloudsim: sample %d has %d values, want %d: %w", i, len(r), want(i), ErrBadRequest)
		}
		total += len(r)
	}
	flat := make([]float32, 0, total)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	return flat, nil
}

// decodeGroup reads a msgInfer payload into the model it names and the
// group it asks about. The header alone says how the body lays out the
// samples (see encodeGroup); whether that is the layout the path reads is
// the backend's call. Every refusal wraps ErrBadRequest.
func decodeGroup(payload []byte) (string, serve.Group, error) {
	var h inferHeader
	if len(payload) < 4 {
		return "", serve.Group{}, fmt.Errorf("cloudsim: truncated infer frame: %w", ErrBadRequest)
	}
	n := binary.LittleEndian.Uint32(payload)
	if uint64(n) > uint64(len(payload)-4) {
		return "", serve.Group{}, fmt.Errorf("cloudsim: infer header length %d exceeds frame: %w", n, ErrBadRequest)
	}
	if err := json.Unmarshal(payload[4:4+n], &h); err != nil {
		return "", serve.Group{}, fmt.Errorf("cloudsim: bad infer header: %v: %w", err, ErrBadRequest)
	}
	body := bytes.NewReader(payload[4+n:])
	g := serve.Group{Path: h.Modality, TopK: h.TopK}
	if h.Split {
		g.Path += "/split"
	}
	var err error
	switch {
	case h.Dim > 0:
		var t *tensor.Tensor
		if t, err = serialize.ReadTensor(body); err == nil {
			g.Rows, err = cut(t.Data, h.Lens, h.Dim)
			g.SeqLens = h.Lens
		}
	case h.Lens != nil:
		var flat []int
		if flat, err = serialize.ReadIntSlice(body); err == nil {
			g.IDs, err = cut(flat, h.Lens, 1)
		}
	default:
		var t *tensor.Tensor
		if t, err = serialize.ReadTensor(body); err == nil {
			// A zero width would let a few header bytes claim millions of
			// samples, each of which becomes a queued call.
			if t.Dims() != 2 || t.Dim(1) == 0 && t.Dim(0) > 0 {
				return "", serve.Group{}, fmt.Errorf("cloudsim: infer body wants an [N, width] tensor: %w", ErrBadRequest)
			}
			per := t.Dim(1)
			g.Rows = make([][]float32, t.Dim(0))
			for i := range g.Rows {
				g.Rows[i] = t.Data[i*per : (i+1)*per]
			}
		}
	}
	if err != nil && !errors.Is(err, ErrBadRequest) {
		err = fmt.Errorf("cloudsim: bad infer body: %v: %w", err, ErrBadRequest)
	}
	return h.Model, g, err
}

// cut splits a flat body into samples of lens[i]×width values each,
// refusing lengths that do not tile it exactly.
func cut[T any](flat []T, lens []int, width int) ([][]T, error) {
	out, off := make([][]T, len(lens)), 0
	for i, l := range lens {
		// Bounding each length by the body keeps l×width from wrapping
		// round to a "matching" size with offsets past the end.
		if l <= 0 || l > len(flat)/width || off+l*width > len(flat) {
			return nil, fmt.Errorf("cloudsim: infer sample length %d: %w", l, ErrBadRequest)
		}
		out[i], off = flat[off:off+l*width], off+l*width
	}
	if off != len(flat) {
		return nil, fmt.Errorf("cloudsim: infer body has %d values, lengths × %d make %d: %w", len(flat), width, off, ErrBadRequest)
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

// inferAnswer decodes a frame into its group, answers the group with one
// backend call — its lowest-indexed failure fails the frame — and lays
// the results out as the frame's answer.
func (s *Server) inferAnswer(payload []byte) (inferResult, error) {
	if s.cfg.Infer == nil {
		return inferResult{}, fmt.Errorf("cloudsim: this server does not serve inference: %w", ErrBadRequest)
	}
	model, g, err := decodeGroup(payload)
	if err != nil {
		return inferResult{}, err
	}
	rs, err := s.cfg.Infer.Predict(model, g)
	if err != nil {
		return inferResult{}, inferWireErr(err)
	}
	return answerOf(rs), nil
}

// answerOf lays a group's results out as a frame's answer, indexed like
// the request's samples: classes and logit rows, or next tokens and their
// log-probabilities — whichever the path filled. results reads it back.
func answerOf(rs []serve.Result) inferResult {
	var res inferResult
	for _, r := range rs {
		if r.Tokens != nil {
			res.Tokens, res.LogProbs = append(res.Tokens, r.Tokens), append(res.LogProbs, r.LogProbs)
		} else {
			res.Classes, res.Logits = append(res.Classes, r.Class), append(res.Logits, r.Logits)
		}
	}
	return res
}

func (res inferResult) results(n int) ([]serve.Result, error) {
	out := make([]serve.Result, n)
	switch {
	case len(res.Classes) == n && len(res.Logits) == n:
		for i := range out {
			out[i].Class, out[i].Logits = res.Classes[i], res.Logits[i]
		}
	case len(res.Tokens) == n && len(res.LogProbs) == n:
		for i := range out {
			out[i].Tokens, out[i].LogProbs = res.Tokens[i], res.LogProbs[i]
		}
	default:
		return nil, fmt.Errorf("cloudsim: infer result carries %d answers for %d samples: %w",
			max(len(res.Classes), len(res.Tokens)), n, ErrUnknownFrame)
	}
	return out, nil
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

// Predict sends a group in one msgInfer frame and returns the backend's
// answers in the group's order.
func (c *InferConn) Predict(model string, g serve.Group) ([]serve.Result, error) {
	payload, err := encodeGroup(model, g)
	if err != nil {
		return nil, err
	}
	res, err := c.roundTrip(payload)
	if err != nil {
		return nil, err
	}
	return res.results(len(g.Rows) + len(g.IDs))
}

// PredictLM is Predict on the lm path: each context's topK most probable
// next tokens with their log probabilities.
func (c *InferConn) PredictLM(model string, contexts [][]int, topK int) ([]serve.Result, error) {
	return c.Predict(model, serve.Group{Path: "lm", IDs: contexts, TopK: topK})
}

// roundTrip sends one msgInfer payload and decodes its answer.
func (c *InferConn) roundTrip(payload []byte) (inferResult, error) {
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
