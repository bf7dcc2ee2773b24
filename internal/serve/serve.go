// Package serve is the inference half of the obfuscation story: a
// high-throughput prediction server over extracted (or still-augmented)
// models. Predictions arrive in groups (a wire frame's samples, or one
// in-process request) and are coalesced by a work-conserving batcher: a
// free worker takes up to MaxBatch waiting calls that share a shape and
// runs them at once, so a lone request on an idle server never waits,
// and calls that arrive while the workers are busy leave together. The
// workers' forward passes reuse the tensor scratch pool and release
// every graph root, so steady-state serving allocates nothing per
// request beyond the result copies.
//
// Because every forward kernel is row-independent (matmul rows, eval-mode
// batch norm, per-image convolution, per-row embedding pooling), batching
// N single requests is bit-identical to N sequential calls: the batcher
// changes throughput, never numerics. That invariant is test-pinned under
// the race detector, and the package reads no clock: it sits inside the
// determinism contract that detcheck enforces.
//
// A registered model is a set of paths, and a path is data (type path):
// admit — the admission check on one request's payload, plus the key of
// the batch queue it may share; pack — how coalesced requests become one
// input (dense rows copied into a pooled tensor, or token-id lists used
// in place); forward — the model's Forward/ForwardIDs, or a split tail;
// fan — how the output rows become results (argmax class + logit row, or
// top-K next tokens). One driver, path.run, executes every path. A
// request is a Group — a path name and that path's samples, as dense rows
// or token lists — and Server.Predict is its one entry; the Register*
// configs only choose which paths a model offers. A wire frame decodes
// into the same Group, so no layer above this one chooses among paths.
//
// Split inference (Leroux et al.'s privacy-aware offloading) is two more
// such paths: the client runs the gather/embedding layers locally and
// ships only dense activations, so raw pixels and token ids never reach
// the server. Registrations expose it by attaching a tail — the server
// half of the model — alongside the full-input path.
package serve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"amalgam/internal/autodiff"
)

// Typed serving errors. ErrOverloaded and ErrClosed are the transient
// ones: the caller can retry against the same (or another) server.
var (
	// ErrUnknownModel rejects a prediction for a name never registered.
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrBadInput rejects a request whose payload does not fit the
	// registered model (wrong image size, empty token list, out-of-range
	// ids, wrong activation shape, no split tail registered, …).
	ErrBadInput = errors.New("serve: invalid request")
	// ErrOverloaded rejects a group whose samples would take the pending
	// count past QueueDepth — admission control instead of unbounded
	// queueing.
	ErrOverloaded = errors.New("serve: server overloaded")
	// ErrClosed rejects requests on (or interrupted by) Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrModelPanic reports a forward pass that panicked; every request in
	// the affected batch fails with it.
	ErrModelPanic = errors.New("serve: model panicked")
	// ErrDuplicateModel rejects registering a name twice.
	ErrDuplicateModel = errors.New("serve: model already registered")
)

// Config tunes the batcher and the worker pool. The zero value of any
// field falls back to its default.
type Config struct {
	// MaxBatch caps the calls one forward pass takes from a queue
	// (default 32). 1 disables coalescing — every request runs alone.
	MaxBatch int
	// Workers is the number of inference workers running batches
	// (default 2).
	Workers int
	// QueueDepth bounds the number of admitted-but-unfinished samples
	// (default 1024); a group that would pass it fails fast with
	// ErrOverloaded, so a group larger than QueueDepth never runs.
	QueueDepth int
}

// CVForwarder is the forward surface of an image model — zoo models and
// augmented models alike.
type CVForwarder interface {
	Forward(x *autodiff.Node) *autodiff.Node
	SetTraining(training bool)
}

// IDForwarder is the forward surface of a token model (text classifiers
// and LMs, plain or augmented).
type IDForwarder interface {
	ForwardIDs(ids [][]int) *autodiff.Node
	SetTraining(training bool)
}

// CVConfig describes a registered image model's fixed input geometry.
type CVConfig struct {
	C, H, W int
}

// TextConfig describes a registered text classifier.
type TextConfig struct {
	// FixedLen > 0 requires every request to carry exactly that many
	// tokens — augmented classifiers gather fixed positions out of
	// AugLen-token sequences. 0 accepts any non-empty length (the
	// mean-pooled embedding handles ragged batches).
	FixedLen int
	// Vocab > 0 validates token ids at admission, so one bad request
	// cannot poison the batch it would have been coalesced into.
	Vocab int
	// SplitTail, when non-nil, additionally serves split inference: it
	// receives pooled activations [N, SplitDim] and returns class logits.
	SplitTail func(pooled *autodiff.Node) *autodiff.Node
	// SplitDim is the per-request activation width (required with
	// SplitTail).
	SplitDim int
}

// LMConfig describes a registered language model.
type LMConfig struct {
	// MaxContext bounds the request context length (required; plain
	// models are bounded by their positional table).
	MaxContext int
	// FixedContext > 0 requires exactly that many context tokens —
	// augmented LMs gather fixed positions out of AugLen-token windows.
	FixedContext int
	// Vocab > 0 validates token ids at admission.
	Vocab int
	// SplitTail, when non-nil, additionally serves split inference: it
	// receives embedded activations [N, T, SplitDim] and returns
	// next-token logits [N*rows, vocab].
	SplitTail func(h *autodiff.Node) *autodiff.Node
	// SplitDim is the activation width per position (required with
	// SplitTail).
	SplitDim int
}

// CVResult is one classification, of an image or of a token sequence.
type CVResult struct {
	// Class is the argmax class.
	Class int
	// Logits are the raw class logits, copied out of the pooled graph.
	Logits []float32
}

// TextResult is one text-classification prediction.
type TextResult = CVResult

// LMResult is one next-token prediction.
type LMResult struct {
	// Tokens are the top-K next-token ids, most probable first (ties
	// break toward the lower id, deterministically).
	Tokens []int
	// LogProbs are the matching natural-log probabilities under a
	// log-softmax of the final position's logits.
	LogProbs []float32
}

// Group is one prediction request: samples for one of a model's paths,
// answered together. The paths and the fields they read:
//
//	cv          Rows: flat [C*H*W] images
//	text        IDs: token sequences (ragged lengths are fine)
//	text/split  Rows: client-pooled embeddings, [SplitDim] each
//	lm          IDs: contexts, scored for their TopK next tokens
//	lm/split    Rows: client-embedded activations, SeqLens[i]×SplitDim
//	            floats each, scored for their TopK next tokens
//
// A group with no samples, or with samples or sequence lengths its path
// does not read, is refused with ErrBadInput. The slices must stay
// untouched until Predict returns.
type Group struct {
	Path    string
	Rows    [][]float32
	SeqLens []int
	IDs     [][]int
	// TopK asks the next-token paths for the K most probable tokens
	// (<= 0 means 1).
	TopK int
}

// Result is one sample's answer: the CVResult on the classification
// paths (cv, text, text/split), the LMResult on the next-token paths
// (lm, lm/split).
type Result struct {
	CVResult
	LMResult
}

// Server batches and executes predictions. Construct with New, register
// models, predict from any number of goroutines, Close when done.
type Server struct {
	cfg Config
	wg  sync.WaitGroup
	// pending counts admitted-but-unfinished samples; workers release it
	// without taking mu.
	pending atomic.Int64

	// mu guards the registrations with their queues, the ready list and
	// closed; idle workers park on cond.
	mu     sync.Mutex
	cond   *sync.Cond
	regs   map[string]*registration
	ready  []*queue
	closed bool
}

// registration is one served model: the prediction paths its modality
// (and split tail, when attached) offers, with per-shape batch queues
// created on demand under Server.mu.
type registration struct {
	name   string
	paths  map[string]*path
	queues map[string]*queue
}

// path is one way of predicting against a registered model, as data (see
// the package comment); path.admit and path.run are its interpreters.
type path struct {
	// fan writes every call's result from the batch output.
	fan func(out *autodiff.Node, calls []*call)

	// Token paths forward the coalesced id lists as they are. A call is
	// admitted with 1..maxLen ids (0: no bound), exactly fixedLen of them
	// (0: any count — a pooled embedding averages ragged rows), all below
	// vocab (0: unchecked). perLen gives every length its own queue: a
	// transformer needs a uniform sequence length per batch.
	forwardIDs              func(ids [][]int) *autodiff.Node
	maxLen, fixedLen, vocab int
	perLen                  bool

	// Dense paths pack the coalesced rows into one pooled tensor shaped
	// [n, dims...] — or, with seq, [n, seqLen, dims...]: a call then
	// carries 1..maxLen positions of dims values each, one queue per
	// seqLen.
	forward func(x *autodiff.Node) *autodiff.Node
	dims    []int
	seq     bool
}

// admit checks one call's payload against the registration — so a bad
// request fails alone instead of poisoning the batch it would have been
// coalesced into — and completes kind into the key of the queue the call
// may join: calls sharing a key pack into one input.
func (p *path) admit(model, kind string, cl *call) (key string, err error) {
	if p.forwardIDs != nil {
		n := len(cl.ids)
		switch {
		case n == 0:
			return "", fmt.Errorf("%w: empty token sequence", ErrBadInput)
		case p.maxLen > 0 && n > p.maxLen:
			return "", fmt.Errorf("%w: %d tokens exceed model %q's max %d", ErrBadInput, n, model, p.maxLen)
		case p.fixedLen > 0 && n != p.fixedLen:
			return "", fmt.Errorf("%w: model %q wants exactly %d tokens, got %d", ErrBadInput, model, p.fixedLen, n)
		}
		if p.perLen {
			kind += "/" + strconv.Itoa(n)
		}
		return kind, checkTokens(cl.ids, p.vocab)
	}
	want := 1
	for _, d := range p.dims {
		want *= d
	}
	if p.seq {
		if cl.seqLen <= 0 || cl.seqLen > p.maxLen {
			return "", fmt.Errorf("%w: sequence length %d out of (0,%d]", ErrBadInput, cl.seqLen, p.maxLen)
		}
		want *= cl.seqLen
		kind += "/" + strconv.Itoa(cl.seqLen)
	}
	if len(cl.row) != want {
		return "", fmt.Errorf("%w: input has %d values, model %q wants %d", ErrBadInput, len(cl.row), model, want)
	}
	return kind, nil
}

// calls splits a group into one call per sample. The group must carry
// samples, in the one layout the path reads — token lists or dense rows —
// with a sequence length per row on a sequence path and none elsewhere.
func (p *path) calls(g Group) ([]call, error) {
	n, other, layout := len(g.Rows), len(g.IDs), "dense rows"
	if p.forwardIDs != nil {
		n, other, layout = len(g.IDs), len(g.Rows), "token lists"
	}
	lens := 0
	if p.seq {
		lens = n
	}
	switch {
	case other > 0:
		return nil, fmt.Errorf("%w: the %s path reads %s", ErrBadInput, g.Path, layout)
	case n == 0:
		return nil, fmt.Errorf("%w: empty %s group", ErrBadInput, g.Path)
	case len(g.SeqLens) != lens:
		return nil, fmt.Errorf("%w: %d sequence lengths for %d %s samples", ErrBadInput, len(g.SeqLens), n, g.Path)
	}
	calls := make([]call, n)
	for i := range calls {
		cl := &calls[i]
		cl.topK = g.TopK
		if p.forwardIDs != nil {
			cl.ids = g.IDs[i]
		} else {
			cl.row = g.Rows[i]
		}
		if p.seq {
			cl.seqLen = g.SeqLens[i]
		}
	}
	return calls, nil
}

// call is one in-flight prediction. Exactly one of row/ids is the
// payload; the Result and err are written by the worker before done, its
// group's countdown, is released.
type call struct {
	row    []float32
	ids    []int
	seqLen int
	topK   int

	Result
	err  error
	done *sync.WaitGroup
}

// New starts a server with Config defaults applied.
func New(cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	s := &Server{cfg: cfg, regs: make(map[string]*registration)}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// register adds a named model, switching it to eval mode permanently:
// workers may run batches of the same model concurrently, which is safe
// only while forward passes are read-only (eval-mode batch norm reads
// running statistics, eval-mode dropout is the identity).
func (s *Server) register(name string, m interface{ SetTraining(bool) }, paths map[string]*path) error {
	m.SetTraining(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.regs[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateModel, name)
	}
	s.regs[name] = &registration{name: name, paths: paths, queues: make(map[string]*queue)}
	return nil
}

// Predict runs a group down one of a model's paths: lookup, the group's
// layout check, admission of every sample in index order (the first
// failure answers for the group, and nothing of it runs), one enqueue of
// the whole group, then a wait for all of it. The lowest-indexed sample
// that failed in its batch answers likewise; otherwise the results come
// back in the group's order.
func (s *Server) Predict(model string, g Group) ([]Result, error) {
	s.mu.Lock()
	reg, ok := s.regs[model]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	p := reg.paths[g.Path]
	if p == nil {
		return nil, fmt.Errorf("%w: %q serves no %s path", ErrBadInput, model, g.Path)
	}
	calls, err := p.calls(g)
	if err != nil {
		return nil, err
	}
	var done sync.WaitGroup
	keys := make([]string, len(calls))
	for i := range calls {
		key, err := p.admit(model, g.Path, &calls[i])
		if err != nil {
			return nil, err
		}
		keys[i], calls[i].done = key, &done
	}
	done.Add(len(calls))
	if err := s.enqueue(reg, p, keys, calls); err != nil {
		return nil, err
	}
	done.Wait()
	out := make([]Result, len(calls))
	for i := range calls {
		if err := calls[i].err; err != nil {
			return nil, err
		}
		out[i] = calls[i].Result
	}
	return out, nil
}

// RegisterCV serves an image model with the given input geometry. The
// model is switched to eval mode and must not be trained while serving.
func (s *Server) RegisterCV(name string, m CVForwarder, cfg CVConfig) error {
	if cfg.C <= 0 || cfg.H <= 0 || cfg.W <= 0 {
		return fmt.Errorf("%w: CV geometry %dx%dx%d", ErrBadInput, cfg.C, cfg.H, cfg.W)
	}
	return s.register(name, m, map[string]*path{
		"cv": {forward: m.Forward, dims: []int{cfg.C, cfg.H, cfg.W}, fan: fanOutClasses},
	})
}

// RegisterText serves a text classifier. The model is switched to eval
// mode and must not be trained while serving.
func (s *Server) RegisterText(name string, m IDForwarder, cfg TextConfig) error {
	if cfg.SplitTail != nil && cfg.SplitDim <= 0 {
		return fmt.Errorf("%w: text split tail needs SplitDim", ErrBadInput)
	}
	paths := map[string]*path{
		"text": {forwardIDs: m.ForwardIDs, fixedLen: cfg.FixedLen, vocab: cfg.Vocab, fan: fanOutClasses},
	}
	if cfg.SplitTail != nil {
		paths["text/split"] = &path{forward: cfg.SplitTail, dims: []int{cfg.SplitDim}, fan: fanOutClasses}
	}
	return s.register(name, m, paths)
}

// RegisterLM serves a language model for next-token scoring. The model is
// switched to eval mode and must not be trained while serving.
func (s *Server) RegisterLM(name string, m IDForwarder, cfg LMConfig) error {
	if cfg.MaxContext <= 0 {
		return fmt.Errorf("%w: LM registration needs MaxContext", ErrBadInput)
	}
	if cfg.SplitTail != nil && cfg.SplitDim <= 0 {
		return fmt.Errorf("%w: LM split tail needs SplitDim", ErrBadInput)
	}
	paths := map[string]*path{
		"lm": {forwardIDs: m.ForwardIDs, maxLen: cfg.MaxContext, fixedLen: cfg.FixedContext, vocab: cfg.Vocab, perLen: true, fan: fanOutNextToken},
	}
	if cfg.SplitTail != nil {
		paths["lm/split"] = &path{forward: cfg.SplitTail, dims: []int{cfg.SplitDim}, seq: true, maxLen: cfg.MaxContext, fan: fanOutNextToken}
	}
	return s.register(name, m, paths)
}

// checkTokens validates ids against a vocabulary size (0 skips), so one
// out-of-range id fails its own request instead of panicking the batch
// it would have been coalesced into.
func checkTokens(ids []int, vocab int) error {
	if vocab <= 0 {
		return nil
	}
	for _, id := range ids {
		if id < 0 || id >= vocab {
			return fmt.Errorf("%w: token id %d out of vocabulary [0,%d)", ErrBadInput, id, vocab)
		}
	}
	return nil
}
