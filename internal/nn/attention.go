package nn

import (
	"math"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

// MultiHeadAttention is scaled dot-product self-attention with H heads over
// [N, T, D]: four projections around one autodiff.Attention node.
type MultiHeadAttention struct {
	Children
	D, Heads       int
	Wq, Wk, Wv, Wo *Linear
}

// NewMultiHeadAttention builds the four projection layers.
func NewMultiHeadAttention(rng *tensor.RNG, d, heads int) *MultiHeadAttention {
	if d%heads != 0 {
		panic("nn: attention dimension must divide heads")
	}
	m := &MultiHeadAttention{
		D: d, Heads: heads,
		Wq: NewLinear(rng.Split(1), d, d),
		Wk: NewLinear(rng.Split(2), d, d),
		Wv: NewLinear(rng.Split(3), d, d),
		Wo: NewLinear(rng.Split(4), d, d),
	}
	m.Add("wq", m.Wq)
	m.Add("wk", m.Wk)
	m.Add("wv", m.Wv)
	m.Add("wo", m.Wo)
	return m
}

// ForwardSelf applies causal self-attention to x [N, T, D]: the query, key
// and value projections, one autodiff.Attention over them (no position
// attends to a later one) and the output projection.
func (m *MultiHeadAttention) ForwardSelf(x *autodiff.Node) *autodiff.Node {
	n, t := x.Val.Dim(0), x.Val.Dim(1)
	return autodiff.Reshape(m.Wo.Forward(m.context(x)), n, t, m.D)
}

// context is ForwardSelf before the output projection: the heads' context
// rows [N·T, D].
func (m *MultiHeadAttention) context(x *autodiff.Node) *autodiff.Node {
	n, t := x.Val.Dim(0), x.Val.Dim(1)
	flat := autodiff.Reshape(x, n*t, m.D)
	proj := func(l *Linear) *autodiff.Node { return autodiff.Reshape(l.Forward(flat), n, t, m.D) }
	ctx := autodiff.Attention(proj(m.Wq), proj(m.Wk), proj(m.Wv), m.Heads)
	return autodiff.Reshape(ctx, n*t, m.D)
}

// TransformerEncoderLayer is a post-norm transformer block: self-attention
// and a position-wise feed-forward network, each wrapped with residual
// connection and layer norm (matching nn.TransformerEncoderLayer defaults).
type TransformerEncoderLayer struct {
	Children
	D        int
	Attn     *MultiHeadAttention
	FF1, FF2 *Linear
	Norm1    *LayerNorm
	Norm2    *LayerNorm
	Drop     *Dropout
}

// NewTransformerEncoderLayer builds a block with the given model dimension,
// head count, and feed-forward width.
func NewTransformerEncoderLayer(rng *tensor.RNG, d, heads, ffDim int, dropout float32) *TransformerEncoderLayer {
	l := &TransformerEncoderLayer{
		D:     d,
		Attn:  NewMultiHeadAttention(rng.Split(1), d, heads),
		FF1:   NewLinear(rng.Split(2), d, ffDim),
		FF2:   NewLinear(rng.Split(3), ffDim, d),
		Norm1: NewLayerNorm(d),
		Norm2: NewLayerNorm(d),
		Drop:  NewDropout(rng.Split(4), dropout),
	}
	l.Add("attn", l.Attn)
	l.Add("ff1", l.FF1)
	l.Add("ff2", l.FF2)
	l.Add("norm1", l.Norm1)
	l.Add("norm2", l.Norm2)
	l.Add("drop", l.Drop)
	return l
}

// ForwardSeq applies the block to x [N, T, D] under causal attention; the
// feed-forward's ReLU runs as FF1's fused epilogue. Each residual add is the
// epilogue of the op that produces its summand, so neither sum leaves an
// [N·T, D] value behind that only the add read: FF2's, and the attention
// output projection's while the attention dropout is the identity; an
// active dropout takes that add instead (x + mask⊙Wo(ctx)), keeping only
// its mask. Values, gradients and dropout draws are those of the Add
// composition, bit for bit, at any dropout (nn_test.go keeps it as the
// referee).
func (l *TransformerEncoderLayer) ForwardSeq(x *autodiff.Node) *autodiff.Node {
	n, t := x.Val.Dim(0), x.Val.Dim(1)
	ctx := l.Attn.context(x)
	if l.Drop.identity() {
		x = l.Attn.Wo.ForwardResidual(ctx, x, tensor.ActNone)
	} else {
		x = l.Drop.ForwardResidual(l.Attn.Wo.Forward(ctx), x)
	}
	x = l.Norm1.Forward(x)
	ff := l.Drop.Forward(l.FF1.ForwardAct(autodiff.Reshape(x, n*t, l.D), tensor.ActReLU))
	return l.Norm2.Forward(l.FF2.ForwardResidual(ff, x, tensor.ActNone))
}

// PositionalEncoding returns the sinusoidal [maxT, D] table from
// "Attention Is All You Need". Each column pair's wavelength is computed
// once, not once per position.
func PositionalEncoding(maxT, d int) *tensor.Tensor {
	pe := tensor.New(maxT, d)
	for i := 0; i < d; i += 2 {
		wavelength := math.Pow(10000, float64(i)/float64(d))
		for pos := 0; pos < maxT; pos++ {
			angle := float64(pos) / wavelength
			pe.Data[pos*d+i] = float32(math.Sin(angle))
			if i+1 < d {
				pe.Data[pos*d+i+1] = float32(math.Cos(angle))
			}
		}
	}
	return pe
}

// CBAM is a Convolutional Block Attention Module (Woo et al., ECCV'18):
// channel attention followed by spatial attention. The paper's transfer-
// learning experiment inserts CBAMs into a pre-trained VGG16.
type CBAM struct {
	Children
	C, Reduction int
	FC1, FC2     *Linear // shared MLP for channel attention
	SpatialConv  *Conv2d // 7x7 conv over [mean;max] maps
}

// NewCBAM builds a CBAM for c channels with the standard reduction of 16
// (clamped so the bottleneck is at least 1 unit wide).
func NewCBAM(rng *tensor.RNG, c int) *CBAM {
	r := 16
	hidden := c / r
	if hidden < 1 {
		hidden = 1
	}
	m := &CBAM{
		C: c, Reduction: r,
		FC1:         NewLinear(rng.Split(1), c, hidden),
		FC2:         NewLinear(rng.Split(2), hidden, c),
		SpatialConv: NewConv2d(rng.Split(3), 2, 1, 7, 1, 3),
	}
	m.Add("fc1", m.FC1)
	m.Add("fc2", m.FC2)
	m.Add("spatial", m.SpatialConv)
	return m
}

// Forward applies channel then spatial attention to x [N, C, H, W].
func (m *CBAM) Forward(x *autodiff.Node) *autodiff.Node {
	// Channel attention: sigmoid(MLP(avgpool) + MLP(maxpool)).
	avg := autodiff.GlobalAvgPool(x)
	mx := autodiff.GlobalMaxPool(x)
	att := autodiff.Activate(autodiff.Add(
		m.FC2.Forward(m.FC1.ForwardAct(avg, tensor.ActReLU)),
		m.FC2.Forward(m.FC1.ForwardAct(mx, tensor.ActReLU)),
	), tensor.ActSigmoid)
	x = autodiff.Mul(x, autodiff.Reshape(att, att.Val.Dim(0), m.C, 1, 1))
	// Spatial attention: sigmoid(conv7x7([mean;max] over channels)), with
	// the bias+sigmoid epilogue fused into the conv output pass; its
	// [N, 1, H, W] map scales every channel.
	sp := m.SpatialConv.ForwardAct(autodiff.ChannelMeanMax(x), tensor.ActSigmoid)
	return autodiff.Mul(x, sp)
}

var _ Module = (*CBAM)(nil)
