package models

import (
	"fmt"
	"math"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// TextClassifier is the paper's AG News model: a mean-pooled embedding bag
// followed by one linear layer (6.13M parameters at the real AG News
// vocabulary of 95,812 and embedding width 64 — Table 4's original row).
type TextClassifier struct {
	nn.Children
	Vocab, EmbedDim, Classes int
	Embed                    *nn.Embedding
	FC                       *nn.Linear
}

// NewTextClassifier builds the classifier.
func NewTextClassifier(rng *tensor.RNG, vocab, embedDim, classes int) *TextClassifier {
	m := &TextClassifier{
		Vocab: vocab, EmbedDim: embedDim, Classes: classes,
		Embed: nn.NewEmbedding(rng.Split(1), vocab, embedDim),
		FC:    nn.NewLinear(rng.Split(2), embedDim, classes),
	}
	m.Add("embed", m.Embed)
	m.Add("fc", m.FC)
	return m
}

// ForwardIDs maps token batches to class logits.
func (m *TextClassifier) ForwardIDs(ids [][]int) *autodiff.Node {
	logits, _ := m.ForwardIDsFeatures(ids)
	return logits
}

// ForwardIDsFeatures additionally returns the pooled embedding (the tap
// point for decoy sub-networks).
func (m *TextClassifier) ForwardIDsFeatures(ids [][]int) (*autodiff.Node, *autodiff.Node) {
	pooled := m.Embed.LookupMean(ids)
	return m.ForwardPooled(pooled), pooled
}

// ForwardPooled maps already-pooled embeddings [N, EmbedDim] to class
// logits — the server half of split inference. A client that runs
// Embed.LookupMean locally ships only the dense pooled activations; the
// token ids never cross the wire.
func (m *TextClassifier) ForwardPooled(pooled *autodiff.Node) *autodiff.Node {
	return m.FC.Forward(pooled)
}

var _ TextModel = (*TextClassifier)(nil)

// TransformerLM is the paper's WikiText-2 language model, following the
// PyTorch word-LM tutorial configuration the paper's parameter count
// implies: d_model 200, 2 heads, 2 encoder layers, FFN width 200 —
// 12.03M parameters at the 28,782-token vocabulary (Table 4).
type TransformerLM struct {
	nn.Children
	Vocab, D, Heads, Layers int
	Embed                   *nn.Embedding
	Blocks                  []*nn.TransformerEncoderLayer
	Decoder                 *nn.Linear
	Drop                    *nn.Dropout
	pe                      *tensor.Tensor
	maxT                    int

	// Cfg is the configuration the model was built from, retained so a
	// remote job spec can rebuild the identical architecture.
	Cfg TransformerLMConfig
	// BuildSeed records the RNG seed a seed-taking builder (the public
	// BuildLMModel) used, so a rebuild reproduces not just the
	// architecture but the dropout streams — required for bit-identical
	// local/remote training when Dropout > 0.
	BuildSeed uint64
}

// TransformerLMConfig mirrors the PyTorch tutorial hyper-parameters.
// GELUFF switches the encoder feed-forward activation from the tutorial's
// ReLU to GELU (either way FF1's fused epilogue); the default stays ReLU
// for paper parity.
type TransformerLMConfig struct {
	Vocab, D, Heads, FF, Layers, MaxT int
	Dropout                           float32
	GELUFF                            bool
}

// DefaultTransformerLMConfig returns the paper-scale configuration.
func DefaultTransformerLMConfig(vocab int) TransformerLMConfig {
	return TransformerLMConfig{Vocab: vocab, D: 200, Heads: 2, FF: 200, Layers: 2, MaxT: 512, Dropout: 0.2}
}

// NewTransformerLM builds the language model.
func NewTransformerLM(rng *tensor.RNG, cfg TransformerLMConfig) *TransformerLM {
	m := &TransformerLM{
		Vocab: cfg.Vocab, D: cfg.D, Heads: cfg.Heads, Layers: cfg.Layers,
		Embed:   nn.NewEmbedding(rng.Split(1), cfg.Vocab, cfg.D),
		Decoder: nn.NewLinear(rng.Split(2), cfg.D, cfg.Vocab),
		Drop:    nn.NewDropout(rng.Split(3), cfg.Dropout),
		pe:      nn.PositionalEncoding(cfg.MaxT, cfg.D),
		maxT:    cfg.MaxT,
		Cfg:     cfg,
	}
	m.Add("embed", m.Embed)
	m.Add("drop", m.Drop)
	for i := 0; i < cfg.Layers; i++ {
		blk := nn.NewTransformerEncoderLayer(rng.Split(uint64(10+i)), cfg.D, cfg.Heads, cfg.FF, cfg.Dropout)
		if cfg.GELUFF {
			blk.FFAct = tensor.ActGELU
		}
		m.Add(fmt.Sprintf("block%d", i), blk)
		m.Blocks = append(m.Blocks, blk)
	}
	m.Add("decoder", m.Decoder)
	return m
}

// ForwardIDs maps token batches [N][T] to next-token logits [N*T, Vocab],
// applying a causal mask. It composes the split-inference halves, so the
// full path and EmbedIDs→ForwardEmbedded are bit-identical by
// construction.
func (m *TransformerLM) ForwardIDs(ids [][]int) *autodiff.Node {
	return m.ForwardEmbedded(m.EmbedIDs(ids))
}

// Features maps token batches [N][T] to the [N*T, D] activations the
// decoder projects: ForwardIDs without its last step. Training losses take
// these plus Decoder, so the [N*T, Vocab] logits exist only inside the fused
// loss head.
func (m *TransformerLM) Features(ids [][]int) *autodiff.Node {
	return m.encode(m.EmbedIDs(ids))
}

// EmbedIDs runs the client half of split inference: token embedding, √D
// scaling, positional encodings, and the embedding-path dropout,
// producing the [N, T, D] activations that cross the wire. Token ids
// never leave this half.
func (m *TransformerLM) EmbedIDs(ids [][]int) *autodiff.Node {
	t := len(ids[0])
	if t > m.maxT {
		panic(fmt.Sprintf("models: sequence length %d exceeds positional table %d", t, m.maxT))
	}
	h := m.Embed.Lookup(ids) // [N, T, D]
	h = autodiff.Scale(h, float32(math.Sqrt(float64(m.D))))
	// The first T rows of the positional table, broadcast over the batch.
	pe := tensor.FromSlice(m.pe.Data[:t*m.D], t, m.D)
	return m.Drop.Forward(autodiff.AddConstBroadcast(h, pe))
}

// ForwardEmbedded runs the server half of split inference: the encoder
// blocks under a causal mask and the decoder projection, over activations
// [N, T, D] produced by EmbedIDs, returning next-token logits
// [N*T, Vocab].
func (m *TransformerLM) ForwardEmbedded(h *autodiff.Node) *autodiff.Node {
	return m.Decoder.Forward(m.encode(h))
}

// encode runs the encoder blocks under a causal mask over [N, T, D]
// activations, flattened to the decoder's [N*T, D] input.
func (m *TransformerLM) encode(h *autodiff.Node) *autodiff.Node {
	n, t := h.Val.Dim(0), h.Val.Dim(1)
	mask := nn.CausalMask(t)
	for _, blk := range m.Blocks {
		h = blk.ForwardSeq(h, mask)
	}
	return autodiff.Reshape(h, n*t, m.D)
}

var _ TextModel = (*TransformerLM)(nil)

// FlattenTargets turns [N][T] target ids into the flat []int label layout
// matching TransformerLM.ForwardIDs's [N*T, Vocab] logits.
func FlattenTargets(targets [][]int) []int {
	if len(targets) == 0 {
		return nil
	}
	t := len(targets[0])
	out := make([]int, 0, len(targets)*t)
	for _, row := range targets {
		out = append(out, row...)
	}
	return out
}
