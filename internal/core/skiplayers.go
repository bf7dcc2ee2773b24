package core

import (
	"fmt"
	"sort"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// SkipGather2d is the input stage of Amalgam's custom convolution layer
// (Eq. 1): it selects a secret index subset from each channel plane of the
// augmented input and reassembles a dense H×W image, after which the
// sub-network's own first convolution runs unchanged. Gathering the
// key's positions reconstructs the original image exactly; decoy
// sub-networks use random subsets instead.
//
// See MaskedSkipConv2d for the literal masked-summation form of Eq. 1 —
// the two are verified equivalent in tests and benchmarked as an ablation.
type SkipGather2d struct {
	Idx        []int // flat positions within one channel plane, len OutH*OutW
	OutH, OutW int
	AugH, AugW int
}

// NewSkipGather2dFromKey builds the original sub-network's gather from the
// dataset key.
func NewSkipGather2dFromKey(key *ImageAugKey) *SkipGather2d {
	return &SkipGather2d{
		Idx:  append([]int(nil), key.Keep...),
		OutH: key.OrigH, OutW: key.OrigW,
		AugH: key.AugH, AugW: key.AugW,
	}
}

// NewRandomSkipGather2d builds a decoy gather: a random subset of the
// augmented plane with the same output geometry. Subsets overlap the
// original positions and each other (§4.2: "randomized subsets can be
// overlapping and repeating" — overlap holds across decoys). Each decoy
// set is drawn exactly like a genuine keep set (distinct positions, sorted
// ascending): anything else is statistically distinguishable from the
// original — the identification attack in internal/attacks defeats
// repeated or unsorted decoy sets at 100% accuracy, which is why this
// hardening exists.
func NewRandomSkipGather2d(rng *tensor.RNG, key *ImageAugKey) *SkipGather2d {
	n := key.OrigH * key.OrigW
	na := key.AugH * key.AugW
	idx := rng.SampleIndices(na, n)
	sort.Ints(idx)
	return &SkipGather2d{
		Idx:  idx,
		OutH: key.OrigH, OutW: key.OrigW,
		AugH: key.AugH, AugW: key.AugW,
	}
}

// Forward maps [N, C, AugH, AugW] to [N, C, OutH, OutW].
func (s *SkipGather2d) Forward(x *autodiff.Node) *autodiff.Node {
	sh := x.Val.Shape()
	if len(sh) != 4 || sh[2] != s.AugH || sh[3] != s.AugW {
		panic(fmt.Sprintf("core: SkipGather2d input %v, want [N,C,%d,%d]", sh, s.AugH, s.AugW))
	}
	n, c := sh[0], sh[1]
	flat := autodiff.Reshape(x, n*c, s.AugH*s.AugW)
	g := autodiff.GatherCols(flat, s.Idx)
	return autodiff.Reshape(g, n, c, s.OutH, s.OutW)
}

// Params returns nil: the gather is pure structure (the secret), carrying
// no trainable weights.
func (s *SkipGather2d) Params() []nn.Param { return nil }

// SetTraining is a no-op.
func (s *SkipGather2d) SetTraining(bool) {}

var _ nn.Module = (*SkipGather2d)(nil)

// MaskedSkipConv2d evaluates Eq. 1 literally: a convolution over the
// augmented plane that skips positions in the key's insert set, indexing
// kernel taps by the *logical* (original-raster) coordinates of kept
// pixels. It is forward-only (the ablation baseline); the production path
// composes SkipGather2d with a regular convolution, which is
// mathematically identical and benchmarked faster.
type MaskedSkipConv2d struct {
	gather *SkipGather2d
	// posOf maps original flat position → augmented flat position.
	posOf []int
}

// NewMaskedSkipConv2d builds the ablation layer from a gather.
func NewMaskedSkipConv2d(g *SkipGather2d) *MaskedSkipConv2d {
	return &MaskedSkipConv2d{gather: g, posOf: g.Idx}
}

// Forward convolves x [N, C, AugH, AugW] with w [OC, C, KH, KW] (stride 1,
// symmetric padding) by summing, for each logical output pixel, only the
// kernel taps whose logical source position is in the keep set — i.e.
// ∀δx∉x_a, ∀δy∉y_a in Eq. 1's notation.
func (m *MaskedSkipConv2d) Forward(x, w *tensor.Tensor, pad int) *tensor.Tensor {
	xs, ws := x.Shape(), w.Shape()
	n, c := xs[0], xs[1]
	oc, kh, kw := ws[0], ws[2], ws[3]
	oh := m.gather.OutH + 2*pad - kh + 1
	ow := m.gather.OutW + 2*pad - kw + 1
	out := tensor.New(n, oc, oh, ow)
	augPlane := m.gather.AugH * m.gather.AugW
	for b := 0; b < n; b++ {
		for o := 0; o < oc; o++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					var s float32
					for ch := 0; ch < c; ch++ {
						for dy := 0; dy < kh; dy++ {
							ly := y - pad + dy
							if ly < 0 || ly >= m.gather.OutH {
								continue
							}
							for dx := 0; dx < kw; dx++ {
								lx := xx - pad + dx
								if lx < 0 || lx >= m.gather.OutW {
									continue
								}
								// Logical pixel (ly,lx) lives at a secret
								// augmented position; everything else is
								// skipped, exactly as Eq. 1 prescribes.
								ap := m.posOf[ly*m.gather.OutW+lx]
								s += x.Data[(b*c+ch)*augPlane+ap] * w.At(o, ch, dy, dx)
							}
						}
					}
					out.Set(s, b, o, y, xx)
				}
			}
		}
	}
	return out
}

// SkipTokenGather is Amalgam's custom embedding layer's input stage
// (Eq. 2): it drops the ignore-set x_a from each augmented token sequence
// before the embedding lookup. Token ids are integers (not differentiable),
// so the gather happens outside the autodiff graph.
type SkipTokenGather struct {
	Idx    []int // positions to keep within each augmented window
	AugLen int
}

// NewSkipTokenGatherFromKey builds the original sub-network's gather.
func NewSkipTokenGatherFromKey(key *TextAugKey) *SkipTokenGather {
	return &SkipTokenGather{Idx: append([]int(nil), key.Keep...), AugLen: key.AugLen}
}

// NewRandomSkipTokenGather builds a decoy gather (distinct sorted
// positions, for the same plausibility reason as NewRandomSkipGather2d).
func NewRandomSkipTokenGather(rng *tensor.RNG, key *TextAugKey) *SkipTokenGather {
	idx := rng.SampleIndices(key.AugLen, key.OrigLen)
	sort.Ints(idx)
	return &SkipTokenGather{Idx: idx, AugLen: key.AugLen}
}

// Apply selects the kept positions from every sequence in the batch.
func (s *SkipTokenGather) Apply(ids [][]int) [][]int {
	out := make([][]int, len(ids))
	for b, seq := range ids {
		if len(seq) != s.AugLen {
			panic(fmt.Sprintf("core: SkipTokenGather sequence length %d, want %d", len(seq), s.AugLen))
		}
		sel := make([]int, len(s.Idx))
		for i, p := range s.Idx {
			sel[i] = seq[p]
		}
		out[b] = sel
	}
	return out
}
