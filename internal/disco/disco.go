// Package disco implements the DISCO-style baseline of Fig. 14 (Singh et
// al., CVPR'21): dynamic sensitive-channel obfuscation. A secret channel
// permutation plus a pruning mask is applied to an intermediate feature
// map before it would leave the trusted boundary; training runs on the
// obfuscated features, costing extra compute for the obfuscation layer and
// the redundancy needed to recover accuracy.
package disco

import (
	"fmt"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// ChannelObfuscator permutes feature channels with a secret permutation
// and zeroes a secret subset ("pruned" sensitive channels), then mixes
// with a learned 1×1 convolution so downstream layers can adapt.
type ChannelObfuscator struct {
	C      int
	Perm   []int
	Pruned []bool
	Mix    *nn.Conv2d
}

// NewChannelObfuscator draws the secret permutation and prune mask
// (pruneFrac in [0,1)) and builds the mixing convolution.
func NewChannelObfuscator(rng *tensor.RNG, c int, pruneFrac float64) (*ChannelObfuscator, error) {
	if pruneFrac < 0 || pruneFrac >= 1 {
		return nil, fmt.Errorf("disco: pruneFrac must be in [0,1), got %v", pruneFrac)
	}
	perm := rng.Perm(c)
	pruned := make([]bool, c)
	for _, i := range rng.SampleIndices(c, int(float64(c)*pruneFrac)) {
		pruned[i] = true
	}
	return &ChannelObfuscator{
		C: c, Perm: perm, Pruned: pruned,
		Mix: nn.NewConv2d(rng.Split(1), c, c, 1, 1, 0),
	}, nil
}

// Forward obfuscates x [N, C, H, W].
func (o *ChannelObfuscator) Forward(x *autodiff.Node) *autodiff.Node {
	sh := x.Val.Shape()
	if len(sh) != 4 || sh[1] != o.C {
		panic(fmt.Sprintf("disco: input %v, want C=%d", sh, o.C))
	}
	n, hw := sh[0], sh[2]*sh[3]
	// Permute+prune channels via a gather over the flattened [N, C*H*W]
	// layout (differentiable through GatherCols).
	idx := make([]int, o.C*hw)
	for cOut := 0; cOut < o.C; cOut++ {
		src := o.Perm[cOut]
		for i := 0; i < hw; i++ {
			idx[cOut*hw+i] = src*hw + i
		}
	}
	flat := autodiff.Reshape(x, n, o.C*hw)
	perm := autodiff.Reshape(autodiff.GatherCols(flat, idx), n, o.C, sh[2], sh[3])
	// Prune: multiply by the 0/1 channel mask (per-sample constant scale).
	mask := tensor.New(n, o.C, 1, 1)
	for b := 0; b < n; b++ {
		for c := 0; c < o.C; c++ {
			if !o.Pruned[o.Perm[c]] {
				mask.Data[b*o.C+c] = 1
			}
		}
	}
	masked := autodiff.Mul(perm, autodiff.Constant(mask))
	return o.Mix.Forward(masked)
}

// Params exposes the mixing convolution.
func (o *ChannelObfuscator) Params() []nn.Param { return nn.PrefixParams("mix", o.Mix.Params()) }

// SetTraining is a no-op.
func (o *ChannelObfuscator) SetTraining(bool) {}

var _ nn.Module = (*ChannelObfuscator)(nil)
