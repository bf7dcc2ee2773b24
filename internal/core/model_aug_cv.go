package core

import (
	"fmt"

	"amalgam/internal/autodiff"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// ModelAugmentOptions configures the NN Model Augmenter (§4.2).
type ModelAugmentOptions struct {
	// Amount is the augmentation amount α: synthetic parameters are added
	// until the augmented model holds ≈ (1+α)·P trainable parameters
	// (Table 3's scaling).
	Amount float64
	// SubNets is the number of decoy sub-networks n_s; 0 draws a random
	// count in [2,4] (the paper's default is a random number).
	SubNets int
	// Seed drives decoy architecture generation and initialisation.
	Seed uint64
	// DisableTaps turns off original→decoy activation taps (ablation).
	DisableTaps bool
	// UndetachedTaps feeds taps without gradient detachment. This is an
	// ablation that deliberately BREAKS Amalgam's exactness invariant — the
	// test suite uses it to show detachment is load-bearing. Never enable
	// it in real use.
	UndetachedTaps bool
	// DecoyGathers, when non-empty, pins the first decoys' gather sets
	// (each must have origH·origW entries within the augmented plane).
	// Used with cover-image augmentation: pointing a decoy at the embedded
	// cover makes its reconstruction a real image, defeating smoothness
	// identification (see internal/core/cover.go).
	DecoyGathers [][]int
	// ForLoad builds the decoys on a tensor.RNG.ForLoad stream: same
	// architecture, gathers and taps, weights left zero. Only for a caller
	// that loads a full state dict over the augmented model before using it
	// (cloudsim's admission under a client's init state).
	ForLoad bool
}

// subNetsSalt decorrelates the decoy-count draw from every other
// seed-derived stream.
const subNetsSalt = 0x5ab7e75

// ResolveSubNets returns the effective decoy count: SubNets when pinned
// (> 0), otherwise a deterministic draw in [2,4] from Seed alone (the
// paper's default is a random number). The draw deliberately does NOT
// consume the augmentation RNG stream: augmenting with {SubNets: 0,
// Seed: s} is bit-identical to augmenting with the resolved count pinned
// explicitly. That is what lets a remote rebuild — which always sees the
// resolved count in the wire spec — match an unpinned client job without
// the client having to pin SubNets itself.
func (o ModelAugmentOptions) ResolveSubNets() int {
	if o.SubNets > 0 {
		return o.SubNets
	}
	return 2 + tensor.NewRNG(o.Seed^subNetsSalt).IntN(3)
}

// decoyBudgets splits the synthetic-parameter budget Amount·total over the
// resolved decoy count; the last decoy takes the remainder.
func (o ModelAugmentOptions) decoyBudgets(total int) []int {
	ns := o.ResolveSubNets()
	budget := int(float64(total) * o.Amount)
	per := budget / ns
	out := make([]int, ns)
	for i := range out {
		out[i] = per
	}
	out[ns-1] = budget - per*(ns-1)
	return out
}

// subNets is what the three augmented models share: the module tree —
// the original under "orig", decoys under "decoy<i>" (§4.2) — every
// sub-network's input gather set, and the one place they are forwarded. The
// "orig." prefix is what the extractor strips. Serialisation neither
// reorders sub-networks nor strips names: every state dict on the wire
// carries the "orig.*" and "decoy<i>.*" names as registered, so today the
// names tell the provider which sub-network is the original (ROADMAP item
// 10 is the key-free wire that would hide it). Only the original carries
// mode state or dropout streams. Sharing no parameter and (taps being
// detached) no gradient path, sub-networks train side by side.
type subNets struct {
	nn.Children
	opts    ModelAugmentOptions
	gathers [][]int // each sub-network's live gather index, original first
}

// newSubNets validates the dataset key and the shared options, and
// registers the original.
func newSubNets(key interface{ Validate() error }, orig nn.Child, origGather []int, opts ModelAugmentOptions) (subNets, error) {
	if err := key.Validate(); err != nil {
		return subNets{}, err
	}
	if opts.Amount < 0 {
		return subNets{}, fmt.Errorf("core: model augmentation amount must be ≥ 0, got %v", opts.Amount)
	}
	s := subNets{opts: opts, gathers: [][]int{origGather}}
	s.Add("orig", orig)
	return s, nil
}

func (s *subNets) addDecoy(d nn.Child, gather []int) {
	s.Add(fmt.Sprintf("decoy%d", len(s.gathers)-1), d)
	s.gathers = append(s.gathers, gather)
}

// forward runs orig (branch 0, the caller's) and each decoy's trunk — what
// reads nothing of the original — side by side, none waiting on another;
// then, in decoy order, finish(i, trunk i's result): taps, head.
func (s *subNets) forward(orig func(), trunk func(i int) *autodiff.Node, finish func(i int, h *autodiff.Node) *autodiff.Node) []*autodiff.Node {
	outs := make([]*autodiff.Node, len(s.gathers)-1)
	tensor.ParallelBranches(len(s.gathers), func(i int) {
		if i == 0 {
			orig()
			return
		}
		outs[i-1] = trunk(i - 1)
	})
	for i, h := range outs {
		outs[i] = finish(i, h)
	}
	return outs
}

// tap is an original activation as a decoy reads it: detached, so no gradient
// flows back (§4.2) — load-bearing, as the UndetachedTaps ablation shows.
func (s *subNets) tap(a *autodiff.Node) *autodiff.Node {
	if s.opts.UndetachedTaps {
		return a
	}
	return autodiff.Detach(a)
}

// GatherSets returns every sub-network's input gather set (original
// sub-network first, then decoys). These sets are visible inside the
// shipped graph (the real prototype bakes them into TorchScript); the
// cloud simulator's provider view shuffles them before exposure.
func (s *subNets) GatherSets() [][]int {
	out := make([][]int, len(s.gathers))
	for i, g := range s.gathers {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// TotalParams returns the trainable parameter count of the whole augmented
// model (Table 3's "after augmentation" column).
func (s *subNets) TotalParams() int { return nn.NumParams(s) }

// cvDecoy is one synthetic sub-network: a secret (random) input gather, a
// small CNN with a width solved to hit its parameter budget, an optional
// tap projection from a detached original activation, and its own head.
type cvDecoy struct {
	nn.Children
	gather       *SkipGather2d
	conv1, conv2 *nn.Conv2d
	mid          *nn.Linear
	head         *nn.Linear
	tapFC        *nn.Linear // nil when taps are disabled
	tapIdx       int
}

// AugmentedCVModel is the obfuscated form of a computer-vision model: the
// untouched original network behind a secret input gather, plus decoy
// sub-networks that all consume the same augmented input. Each sub-network
// has its own loss head (Algorithm 1); taps from original layers into
// decoys are gradient-detached, so original weights train exactly as they
// would unaugmented.
type AugmentedCVModel struct {
	subNets
	Orig       models.CVModel
	OrigGather *SkipGather2d
	Decoys     []*cvDecoy
	Classes    int
}

// AugmentCVModel wraps orig (built for the original input geometry) into an
// augmented model bound to the dataset key. classes is the label count;
// inC the input channel count.
func AugmentCVModel(orig models.CVModel, key *ImageAugKey, inC, classes int, opts ModelAugmentOptions) (*AugmentedCVModel, error) {
	gather := NewSkipGather2dFromKey(key)
	base, err := newSubNets(key, orig, gather.Idx, opts)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(opts.Seed ^ 0xa06a16a9).ForLoad(opts.ForLoad)
	m := &AugmentedCVModel{subNets: base, Orig: orig, OrigGather: gather, Classes: classes}
	if opts.Amount == 0 {
		return m, nil
	}

	// The original states its tap widths; augmentation runs no forward, so
	// it never touches the original's mode or batch-norm statistics.
	var tapC []int
	if !opts.DisableTaps {
		tapC = orig.TapChannels()
	}

	for i, b := range opts.decoyBudgets(nn.NumParams(orig)) {
		d := newCVDecoy(rng.Split(uint64(i+1)), key, inC, classes, b, tapC)
		if i < len(opts.DecoyGathers) {
			pinned := opts.DecoyGathers[i]
			if len(pinned) != key.OrigH*key.OrigW {
				return nil, fmt.Errorf("core: pinned decoy gather %d has %d entries, want %d", i, len(pinned), key.OrigH*key.OrigW)
			}
			d.gather.Idx = append([]int(nil), pinned...)
		}
		m.Decoys = append(m.Decoys, d)
		m.addDecoy(d, d.gather.Idx)
	}
	return m, nil
}

// newCVDecoy builds a decoy whose trainable parameter count is as close as
// possible to budget. Architecture: gather → avgpool/2 → conv3×3 stride 2
// (C→c1) → ReLU → conv3×3(c1→c1) → ReLU → GAP → linear(c1→m) → ReLU →
// [⊕ tap] → linear(→classes); m is solved in closed form from the budget.
//
// The budget deliberately lands in the FC layer, not the convolutions:
// parameters there are compute-cheap, keeping the training overhead
// proportional to α as the paper reports (§4.5, Table 3) — a decoy that
// spent its budget on wide spatial convolutions would cost far more
// compute per parameter than the original network.
func newCVDecoy(rng *tensor.RNG, key *ImageAugKey, inC, classes, budget int, tapChannels []int) *cvDecoy {
	d := &cvDecoy{gather: NewRandomSkipGather2d(rng.Split(1), key)}
	tapDim := 0
	tapC := 0
	if len(tapChannels) > 0 {
		d.tapIdx = rng.IntN(len(tapChannels))
		tapC = tapChannels[d.tapIdx]
		tapDim = 16
	}
	convStride := 2
	if key.OrigH < 8 || key.OrigW < 8 {
		convStride = 1 // tiny inputs: stride-2 stacking would underflow
	}
	// Tiny budget fallback: a single minimal conv plus head, no tap.
	c1, m, found := 1, 4, false
	for _, c := range []int{32, 16, 8, 4, 2, 1} {
		fixed := 9*inC*c + c + // conv1 (+bias)
			9*c*c + c + // conv2 (+bias)
			classes // head bias
		if tapDim > 0 {
			fixed += tapC*tapDim + tapDim // tap projection
			fixed += tapDim * classes     // tap slice of head weight
		}
		// mid: c*m + m; head weight from mid: m*classes.
		if fit := (budget - fixed) / (c + 1 + classes); fit >= 4 {
			c1, m, found = c, fit, true
			break
		}
	}
	if !found {
		tapDim = 0
	}
	d.conv1 = nn.NewConv2d(rng.Split(2), inC, c1, 3, convStride, 1)
	d.conv2 = nn.NewConv2d(rng.Split(3), c1, c1, 3, 1, 1)
	d.mid = nn.NewLinear(rng.Split(4), c1, m)
	d.head = nn.NewLinear(rng.Split(5), m+tapDim, classes)
	d.Add("conv1", d.conv1)
	d.Add("conv2", d.conv2)
	d.Add("mid", d.mid)
	d.Add("head", d.head)
	if tapDim > 0 {
		d.tapFC = nn.NewLinear(rng.Split(6), tapC, tapDim)
		d.Add("tap", d.tapFC)
	}
	return d
}

// Forward returns the original sub-network's logits for an augmented
// input — the path used to validate the augmented model on the augmented
// test set (§5.4).
func (m *AugmentedCVModel) Forward(x *autodiff.Node) *autodiff.Node {
	logits, _ := m.ForwardAll(x)
	return logits
}

// ForwardAll runs every sub-network on the augmented input [N, C, H', W'],
// returning the original logits and each decoy's logits.
func (m *AugmentedCVModel) ForwardAll(x *autodiff.Node) (*autodiff.Node, []*autodiff.Node) {
	var origLogits *autodiff.Node
	var feats []*autodiff.Node
	decoyLogits := m.forward(func() {
		origLogits, feats = m.Orig.ForwardFeatures(m.OrigGather.Forward(x))
	}, func(i int) *autodiff.Node {
		d := m.Decoys[i]
		h := d.gather.Forward(x)
		// Cheap early downsampling: decoy compute stays proportional to
		// its parameter share (see newCVDecoy).
		if h.Val.Dim(2) >= 4 && h.Val.Dim(3) >= 4 {
			h = autodiff.AvgPool2d(h, 2, 2, 0)
		}
		h = d.conv1.ForwardAct(h, tensor.ActReLU)
		h = d.conv2.ForwardAct(h, tensor.ActReLU)
		return d.mid.ForwardAct(autodiff.GlobalAvgPool(h), tensor.ActReLU)
	}, func(i int, g *autodiff.Node) *autodiff.Node {
		d := m.Decoys[i]
		if d.tapFC != nil {
			// The tap projection runs on the fused Linear→Tanh epilogue:
			// tanh bounds the injected feature to [-1, 1], so a decoy's
			// head sees tap activations on the same scale as its own
			// pooled features regardless of how hot the original's feature
			// maps run. Tap layers exist only inside decoys, so the
			// activation choice adds no fingerprint beyond the cross-
			// sub-network edge itself. Decoy internals are code-versioned,
			// not spec-versioned: the local/remote bit-identity contract
			// assumes both sides run the same build (as with every kernel
			// round, which changes numerics the spec cannot describe).
			tv := d.tapFC.ForwardAct(autodiff.GlobalAvgPool(m.tap(feats[d.tapIdx])), tensor.ActTanh)
			g = autodiff.ConcatFeatures(g, tv)
		}
		return d.head.Forward(g)
	})
	return origLogits, decoyLogits
}

// Loss computes Algorithm 1's joint objective: the sum of every
// sub-network's cross-entropy against the (shared) labels. It returns the
// total and the original sub-network's own loss (the curve the paper
// plots).
func (m *AugmentedCVModel) Loss(x *autodiff.Node, labels []int) (total, orig *autodiff.Node) {
	o, ds := m.ForwardAll(x)
	orig = autodiff.SoftmaxCrossEntropy(o, labels)
	losses := []*autodiff.Node{orig}
	for _, dl := range ds {
		losses = append(losses, autodiff.SoftmaxCrossEntropy(dl, labels))
	}
	return autodiff.AddN(losses...), orig
}

var _ nn.Module = (*AugmentedCVModel)(nil)
