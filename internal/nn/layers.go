package nn

import (
	"fmt"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

// Linear is a fully connected layer: y = x·W + b, x [N, In].
type Linear struct {
	In, Out int
	W, B    *autodiff.Node
}

// NewLinear builds a Linear layer with Kaiming-uniform weights.
func NewLinear(rng *tensor.RNG, in, out int) *Linear {
	w := tensor.New(in, out)
	tensor.KaimingUniform(rng, w, in)
	b := tensor.New(out)
	tensor.KaimingUniform(rng, b, in)
	return &Linear{In: in, Out: out, W: autodiff.Leaf(w), B: autodiff.Leaf(b)}
}

// Forward computes x·W + b as one node, the bias added in place over the
// matmul output.
func (l *Linear) Forward(x *autodiff.Node) *autodiff.Node { return l.ForwardAct(x, tensor.ActNone) }

// ForwardAct computes act(x·W + b) with the bias+activation epilogue fused
// into the matmul output pass — use it wherever a Linear feeds straight
// into an activation.
func (l *Linear) ForwardAct(x *autodiff.Node, act tensor.Act) *autodiff.Node {
	return l.ForwardResidual(x, nil, act)
}

// ForwardResidual computes act(x·W + b + r) as one node with one buffer,
// shaped as r — a residual block's tail; r is nil for none.
func (l *Linear) ForwardResidual(x, r *autodiff.Node, act tensor.Act) *autodiff.Node {
	return autodiff.Linear(x, l.W, l.B, act, r)
}

// Params returns the weight and bias.
func (l *Linear) Params() []Param {
	return []Param{{Name: "weight", Node: l.W}, {Name: "bias", Node: l.B}}
}

// SetTraining is a no-op for Linear.
func (l *Linear) SetTraining(bool) {}

var _ Module = (*Linear)(nil)

// Conv2d is a 2-D convolution with square kernel.
type Conv2d struct {
	InC, OutC, Kernel, Stride, Pad int
	W, B                           *autodiff.Node // B nil when bias disabled
}

// NewConv2d builds a convolution with bias.
func NewConv2d(rng *tensor.RNG, inC, outC, kernel, stride, pad int) *Conv2d {
	c := newConv2d(rng, inC, outC, kernel, stride, pad)
	fanIn := inC * kernel * kernel
	b := tensor.New(outC)
	tensor.KaimingUniform(rng, b, fanIn)
	c.B = autodiff.Leaf(b)
	return c
}

// NewConv2dNoBias builds a convolution without bias (the usual choice
// before batch norm).
func NewConv2dNoBias(rng *tensor.RNG, inC, outC, kernel, stride, pad int) *Conv2d {
	return newConv2d(rng, inC, outC, kernel, stride, pad)
}

func newConv2d(rng *tensor.RNG, inC, outC, kernel, stride, pad int) *Conv2d {
	w := tensor.New(outC, inC, kernel, kernel)
	tensor.KaimingUniform(rng, w, inC*kernel*kernel)
	return &Conv2d{InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad, W: autodiff.Leaf(w)}
}

// Forward applies the convolution.
func (c *Conv2d) Forward(x *autodiff.Node) *autodiff.Node { return c.ForwardAct(x, tensor.ActNone) }

// ForwardAct applies the convolution with the bias+activation epilogue run
// in place over its output — use it wherever a Conv2d feeds straight into
// an activation (a ReLU, or the sigmoid of a convolutional attention gate).
func (c *Conv2d) ForwardAct(x *autodiff.Node, act tensor.Act) *autodiff.Node {
	return autodiff.Conv2d(x, c.W, c.B, c.Stride, c.Pad, act)
}

// Params returns weight (and bias when present).
func (c *Conv2d) Params() []Param {
	out := []Param{{Name: "weight", Node: c.W}}
	if c.B != nil {
		out = append(out, Param{Name: "bias", Node: c.B})
	}
	return out
}

// SetTraining is a no-op for Conv2d.
func (c *Conv2d) SetTraining(bool) {}

var _ Module = (*Conv2d)(nil)

// BatchNorm2d normalises activations per channel with running statistics.
type BatchNorm2d struct {
	C                       int
	Gamma, Beta             *autodiff.Node
	RunningMean, RunningVar *tensor.Tensor
	Momentum, Eps           float32
	training                bool
}

// NewBatchNorm2d builds a batch-norm layer in training mode.
func NewBatchNorm2d(c int) *BatchNorm2d {
	return &BatchNorm2d{
		C:           c,
		Gamma:       autodiff.Leaf(tensor.Ones(c)),
		Beta:        autodiff.Leaf(tensor.New(c)),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
		Momentum:    0.1,
		Eps:         1e-5,
		training:    true,
	}
}

// Forward normalises x [N, C, H, W].
func (b *BatchNorm2d) Forward(x *autodiff.Node) *autodiff.Node {
	return b.ForwardAct(x, tensor.ActNone)
}

// ForwardAct normalises x and applies act as one node with one buffer — use
// it wherever a BatchNorm2d feeds straight into an activation.
func (b *BatchNorm2d) ForwardAct(x *autodiff.Node, act tensor.Act) *autodiff.Node {
	return b.ForwardResidual(x, nil, act)
}

// ForwardResidual computes act(norm(x) + r) as one node with one buffer — a
// residual block's tail; r is nil for none.
func (b *BatchNorm2d) ForwardResidual(x, r *autodiff.Node, act tensor.Act) *autodiff.Node {
	return autodiff.BatchNorm2d(x, b.Gamma, b.Beta, b.RunningMean, b.RunningVar, b.Momentum, b.Eps, b.training, act, r)
}

// Params returns the layer's full state dict: trainable gamma/beta plus
// the running statistics wrapped as non-trainable constants. Optimisers
// skip the latter (they never accumulate gradients) while extraction and
// serialisation copy them, so a de-obfuscated model evaluates identically
// in eval mode. Use NumParams for trainable-only counting.
func (b *BatchNorm2d) Params() []Param {
	return []Param{
		{Name: "gamma", Node: b.Gamma},
		{Name: "beta", Node: b.Beta},
		{Name: "running_mean", Node: autodiff.Constant(b.RunningMean)},
		{Name: "running_var", Node: autodiff.Constant(b.RunningVar)},
	}
}

// SetTraining switches between batch and running statistics.
func (b *BatchNorm2d) SetTraining(training bool) { b.training = training }

// Training reports the layer's current mode, so eval helpers can restore
// it instead of assuming the model came from a training loop.
func (b *BatchNorm2d) Training() bool { return b.training }

var _ Module = (*BatchNorm2d)(nil)

// Dropout zeroes activations during training.
type Dropout struct {
	P        float32
	rng      *tensor.RNG
	training bool
}

// NewDropout builds a dropout layer with its own RNG stream.
func NewDropout(rng *tensor.RNG, p float32) *Dropout {
	return &Dropout{P: p, rng: rng.Split(0xd209), training: true}
}

// Forward applies inverted dropout in training mode.
func (d *Dropout) Forward(x *autodiff.Node) *autodiff.Node { return d.ForwardResidual(x, nil) }

// ForwardResidual computes r + dropout(x) as one node with one buffer,
// shaped as r — the mask drawn as Forward draws it; r is nil for none.
// Where the dropout is the identity, fold the add into x's producer
// instead (Linear.ForwardResidual): here it would be an Add node.
func (d *Dropout) ForwardResidual(x, r *autodiff.Node) *autodiff.Node {
	return autodiff.Dropout(x, d.P, d.rng, d.training, r)
}

// identity reports whether Forward returns its input: in eval mode or at
// p = 0, where it draws nothing.
func (d *Dropout) identity() bool { return !d.training || d.P <= 0 }

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []Param { return nil }

// SetTraining toggles dropout on/off.
func (d *Dropout) SetTraining(training bool) { d.training = training }

// Training reports whether the layer currently applies dropout.
func (d *Dropout) Training() bool { return d.training }

var _ Module = (*Dropout)(nil)

// LayerNorm normalises the last dimension.
type LayerNorm struct {
	D           int
	Gamma, Beta *autodiff.Node
	Eps         float32
}

// NewLayerNorm builds a layer norm over dimension d.
func NewLayerNorm(d int) *LayerNorm {
	return &LayerNorm{
		D:     d,
		Gamma: autodiff.Leaf(tensor.Ones(d)),
		Beta:  autodiff.Leaf(tensor.New(d)),
		Eps:   1e-5,
	}
}

// Forward normalises x.
func (l *LayerNorm) Forward(x *autodiff.Node) *autodiff.Node {
	return autodiff.LayerNorm(x, l.Gamma, l.Beta, l.Eps)
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []Param {
	return []Param{{Name: "gamma", Node: l.Gamma}, {Name: "beta", Node: l.Beta}}
}

// SetTraining is a no-op for LayerNorm.
func (l *LayerNorm) SetTraining(bool) {}

var _ Module = (*LayerNorm)(nil)

// Embedding holds a [Vocab, D] lookup table. It is not a Module (its input
// is token ids, not a tensor node); NLP models call Lookup directly.
type Embedding struct {
	Vocab, D int
	W        *autodiff.Node
}

// NewEmbedding builds an embedding table with N(0, 0.1²) init.
func NewEmbedding(rng *tensor.RNG, vocab, d int) *Embedding {
	w := tensor.New(vocab, d)
	tensor.NormalInit(rng, w, 0.1)
	return &Embedding{Vocab: vocab, D: d, W: autodiff.Leaf(w)}
}

// Lookup returns [N, T, D] embeddings for the given id batch.
func (e *Embedding) Lookup(ids [][]int) *autodiff.Node { return autodiff.Embedding(e.W, ids) }

// LookupMean returns mean-pooled [N, D] embeddings (EmbeddingBag "mean").
func (e *Embedding) LookupMean(ids [][]int) *autodiff.Node { return autodiff.EmbeddingMean(e.W, ids) }

// Params returns the table.
func (e *Embedding) Params() []Param { return []Param{{Name: "weight", Node: e.W}} }

// SetTraining is a no-op for Embedding.
func (e *Embedding) SetTraining(bool) {}

// CheckImageInput panics with a clear message unless x is [N, C, H, W]
// with the expected channel count. Models use it to fail fast on
// mis-shaped datasets.
func CheckImageInput(x *autodiff.Node, wantC int) {
	s := x.Val.Shape()
	if len(s) != 4 || s[1] != wantC {
		panic(fmt.Sprintf("nn: expected input [N,%d,H,W], got %v", wantC, s))
	}
}
