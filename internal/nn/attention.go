package nn

import (
	"math"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product self-attention with H
// heads over inputs of shape [N, T, D].
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

// ForwardSelf applies self-attention to x [N, T, D]. mask, when non-nil,
// is an additive [T, T] tensor (use CausalMask for autoregressive LMs).
func (m *MultiHeadAttention) ForwardSelf(x *autodiff.Node, mask *tensor.Tensor) *autodiff.Node {
	s := x.Val.Shape()
	n, t := s[0], s[1]
	hd := m.D / m.Heads

	flat := autodiff.Reshape(x, n*t, m.D)
	q := autodiff.SplitHeads(autodiff.Reshape(m.Wq.Forward(flat), n, t, m.D), m.Heads)
	k := autodiff.SplitHeads(autodiff.Reshape(m.Wk.Forward(flat), n, t, m.D), m.Heads)
	v := autodiff.SplitHeads(autodiff.Reshape(m.Wv.Forward(flat), n, t, m.D), m.Heads)

	scores := autodiff.BatchedMatMul(q, autodiff.Transpose12(k)) // [N*H, T, T]
	scores = autodiff.Scale(scores, float32(1/math.Sqrt(float64(hd))))
	if mask != nil {
		scores = autodiff.AddConstBroadcast(scores, mask)
	}
	attn := autodiff.Reshape(autodiff.SoftmaxLastDim(autodiff.Reshape(scores, n*m.Heads*t, t)), n*m.Heads, t, t)
	ctx := autodiff.BatchedMatMul(attn, v) // [N*H, T, hd]
	merged := autodiff.MergeHeads(ctx, m.Heads)
	out := m.Wo.Forward(autodiff.Reshape(merged, n*t, m.D))
	return autodiff.Reshape(out, n, t, m.D)
}

// CausalMask returns a [T, T] additive mask with -1e9 above the diagonal,
// preventing attention to future positions.
func CausalMask(t int) *tensor.Tensor {
	m := tensor.New(t, t)
	for i := 0; i < t; i++ {
		for j := i + 1; j < t; j++ {
			m.Data[i*t+j] = -1e9
		}
	}
	return m
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
	// FFAct is the feed-forward activation, ReLU unless set otherwise; it
	// runs as FF1's fused epilogue, so any choice costs one pass over the
	// hidden activations.
	FFAct tensor.Act
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
		FFAct: tensor.ActReLU,
	}
	l.Add("attn", l.Attn)
	l.Add("ff1", l.FF1)
	l.Add("ff2", l.FF2)
	l.Add("norm1", l.Norm1)
	l.Add("norm2", l.Norm2)
	l.Add("drop", l.Drop)
	return l
}

// ForwardSeq applies the block to x [N, T, D] with an optional mask.
func (l *TransformerEncoderLayer) ForwardSeq(x *autodiff.Node, mask *tensor.Tensor) *autodiff.Node {
	s := x.Val.Shape()
	n, t := s[0], s[1]
	att := l.Drop.Forward(l.Attn.ForwardSelf(x, mask))
	x = l.Norm1.Forward(autodiff.Add(x, att))
	flat := autodiff.Reshape(x, n*t, l.D)
	ff := l.FF2.Forward(l.Drop.Forward(l.FF1.ForwardAct(flat, l.FFAct)))
	ff3 := autodiff.Reshape(ff, n, t, l.D)
	return l.Norm2.Forward(autodiff.Add(x, ff3))
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
	x = autodiff.MulChannelScale(x, att)
	// Spatial attention: sigmoid(conv7x7([mean;max] over channels)), with
	// the bias+sigmoid epilogue fused into the conv output pass.
	sp := m.SpatialConv.ForwardAct(autodiff.ChannelMeanMax(x), tensor.ActSigmoid)
	return autodiff.MulSpatialScale(x, sp)
}

var _ Module = (*CBAM)(nil)
