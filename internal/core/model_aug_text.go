package core

import (
	"amalgam/internal/autodiff"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// textDecoy is a decoy sub-network for text models: a secret random token
// gather, its own embedding table sized to the parameter budget, and a
// linear head. Eq. 2's custom embedding is the composition gather∘lookup.
type textDecoy struct {
	nn.Children
	gather *SkipTokenGather
	embed  *nn.Embedding
	head   *nn.Linear
	tapFC  *nn.Linear // projection of the detached original pooled feature
}

// newTextDecoy draws a decoy's gather, embedding (width d) and head from
// rng; tapDim > 0 adds the tap projection from tapIn original features.
func newTextDecoy(rng *tensor.RNG, key *TextAugKey, vocab, d, tapIn, tapDim, out int) *textDecoy {
	dec := &textDecoy{
		gather: NewRandomSkipTokenGather(rng.Split(1), key),
		embed:  nn.NewEmbedding(rng.Split(2), vocab, d),
		head:   nn.NewLinear(rng.Split(3), d+tapDim, out),
	}
	dec.Add("embed", dec.embed)
	dec.Add("head", dec.head)
	if tapDim > 0 {
		dec.tapFC = nn.NewLinear(rng.Split(4), tapIn, tapDim)
		dec.Add("tap", dec.tapFC)
	}
	return dec
}

// AugmentedTextClassifier obfuscates the AG News-style classifier.
type AugmentedTextClassifier struct {
	subNets
	Orig       *models.TextClassifier
	OrigGather *SkipTokenGather
	Decoys     []*textDecoy
}

// AugmentTextClassifier wraps the original classifier with decoy
// sub-networks bound to the dataset key.
func AugmentTextClassifier(orig *models.TextClassifier, key *TextAugKey, opts ModelAugmentOptions) (*AugmentedTextClassifier, error) {
	gather := NewSkipTokenGatherFromKey(key)
	base, err := newSubNets(key, orig, gather.Idx, opts)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(opts.Seed ^ 0x7e87a63).ForLoad(opts.ForLoad)
	m := &AugmentedTextClassifier{subNets: base, Orig: orig, OrigGather: gather}
	if opts.Amount == 0 {
		return m, nil
	}
	tapDim := 0
	if !opts.DisableTaps {
		tapDim = 8
	}
	for i, b := range opts.decoyBudgets(nn.NumParams(orig)) {
		// embed: vocab·d + head: (d+tapDim)·classes + classes + tap: 64·tapDim+tapDim.
		fixed := orig.Classes + tapDim*orig.Classes + orig.EmbedDim*tapDim + tapDim
		d := max((b-fixed)/(orig.Vocab+orig.Classes), 1)
		dec := newTextDecoy(rng.Split(uint64(i+1)), key, orig.Vocab, d, orig.EmbedDim, tapDim, orig.Classes)
		m.Decoys = append(m.Decoys, dec)
		m.addDecoy(dec, dec.gather.Idx)
	}
	return m, nil
}

// ForwardAll runs every sub-network on augmented token batches.
func (m *AugmentedTextClassifier) ForwardAll(ids [][]int) (*autodiff.Node, []*autodiff.Node) {
	var origLogits, pooled *autodiff.Node
	decoyLogits := m.forward(func() {
		origLogits, pooled = m.Orig.ForwardIDsFeatures(m.OrigGather.Apply(ids))
	}, func(i int) *autodiff.Node {
		d := m.Decoys[i]
		return d.embed.LookupMean(d.gather.Apply(ids))
	}, func(i int, h *autodiff.Node) *autodiff.Node {
		d := m.Decoys[i]
		if d.tapFC != nil {
			// Fused Linear→Tanh tap projection: bounded tap features keep
			// the concat on the embedding's scale (see the CV decoy).
			h = autodiff.ConcatFeatures(h, d.tapFC.ForwardAct(m.tap(pooled), tensor.ActTanh))
		}
		return d.head.Forward(h)
	})
	return origLogits, decoyLogits
}

// ForwardIDs returns the original sub-network's logits (augmented-testset
// validation path).
func (m *AugmentedTextClassifier) ForwardIDs(ids [][]int) *autodiff.Node {
	logits, _ := m.ForwardAll(ids)
	return logits
}

// Loss is Algorithm 1's joint objective for text classification.
func (m *AugmentedTextClassifier) Loss(ids [][]int, labels []int) (total, orig *autodiff.Node) {
	o, ds := m.ForwardAll(ids)
	orig = autodiff.SoftmaxCrossEntropy(o, labels)
	losses := []*autodiff.Node{orig}
	for _, dl := range ds {
		losses = append(losses, autodiff.SoftmaxCrossEntropy(dl, labels))
	}
	return autodiff.AddN(losses...), orig
}

// AugmentedTransformerLM obfuscates the WikiText-2-style language model.
// Training operates on non-overlapping windows of the augmented stream
// (window length = key.AugLen); the original sub-network gathers the key's
// positions, recovering exactly the original windows, and predicts the
// next original token at each position. Decoys run their own gathers
// through their own (small) embedding+decoder stacks.
type AugmentedTransformerLM struct {
	subNets
	Orig       *models.TransformerLM
	OrigGather *SkipTokenGather
	Decoys     []*textDecoy
}

// AugmentTransformerLM wraps the original LM with decoys bound to the key.
func AugmentTransformerLM(orig *models.TransformerLM, key *TextAugKey, opts ModelAugmentOptions) (*AugmentedTransformerLM, error) {
	gather := NewSkipTokenGatherFromKey(key)
	base, err := newSubNets(key, orig, gather.Idx, opts)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(opts.Seed ^ 0x11a6).ForLoad(opts.ForLoad)
	m := &AugmentedTransformerLM{subNets: base, Orig: orig, OrigGather: gather}
	if opts.Amount == 0 {
		return m, nil
	}
	for i, b := range opts.decoyBudgets(nn.NumParams(orig)) {
		// Decoy LM: embedding vocab·d + decoder d·vocab + vocab; no tap.
		d := max((b-orig.Vocab)/(2*orig.Vocab), 1)
		dec := newTextDecoy(rng.Split(uint64(i+1)), key, orig.Vocab, d, 0, 0, orig.Vocab)
		m.Decoys = append(m.Decoys, dec)
		m.addDecoy(dec, dec.gather.Idx)
	}
	return m, nil
}

// LossWindows computes the joint LM objective over a batch of augmented
// windows (each of length key.AugLen). Every sub-network gathers its own
// positions w and trains on (w[:L-1] → w[1:]) next-token pairs.
func (m *AugmentedTransformerLM) LossWindows(windows [][]int) (total, orig *autodiff.Node) {
	decoys := m.forward(func() {
		orig = m.ValidateLoss(windows)
	}, func(i int) *autodiff.Node {
		// Decoy "LM": per-position embedding → decoder (no attention);
		// synthetic parameters that participate fully in gradient
		// descent, as §6.3's DLG analysis requires. No tap: all of it runs
		// beside the original.
		d := m.Decoys[i]
		return lmWindowLoss(func(ids [][]int) *autodiff.Node {
			emb := d.embed.Lookup(ids)
			n, t, dd := emb.Val.Dim(0), emb.Val.Dim(1), emb.Val.Dim(2)
			return autodiff.Reshape(emb, n*t, dd)
		}, d.head, d.gather.Apply(windows))
	}, func(_ int, loss *autodiff.Node) *autodiff.Node { return loss })
	return autodiff.AddN(append([]*autodiff.Node{orig}, decoys...)...), orig
}

// ValidateLoss returns the original sub-network's loss on augmented
// windows without decoy terms (the §5.4 validation path).
func (m *AugmentedTransformerLM) ValidateLoss(windows [][]int) *autodiff.Node {
	return LMWindowLoss(m.Orig, m.OrigGather.Apply(windows))
}

// ForwardIDs scores a batch of still-augmented windows — each exactly
// key.AugLen tokens — with the original sub-network: the secret gather
// selects the hidden original subsequence and the original LM maps it to
// next-token logits [N*OrigLen, Vocab]; the last row of each window's
// block is the distribution over the token following the context. This
// is the serving path for obfuscated LM deployments: the
// provider-visible input stays augmented, the key stays inside the
// model.
func (m *AugmentedTransformerLM) ForwardIDs(windows [][]int) *autodiff.Node {
	return m.Orig.ForwardIDs(m.OrigGather.Apply(windows))
}

// lmWindowLoss slices windows into (input, shifted-target) pairs and
// returns the mean next-token cross-entropy of head over features(inputs)
// [N*T, D]. The projection and the loss are one fused node, so each
// sub-network holds a single [N*T, vocab] buffer for the whole step.
func lmWindowLoss(features func([][]int) *autodiff.Node, head *nn.Linear, windows [][]int) *autodiff.Node {
	inputs := make([][]int, len(windows))
	targets := make([][]int, len(windows))
	for i, w := range windows {
		inputs[i] = w[:len(w)-1]
		targets[i] = w[1:]
	}
	return autodiff.LinearSoftmaxCrossEntropy(features(inputs), head.W, head.B, models.FlattenTargets(targets))
}

// LMWindowLoss is the un-augmented counterpart used for baseline training:
// mean next-token cross-entropy of a plain model over original windows.
func LMWindowLoss(m *models.TransformerLM, windows [][]int) *autodiff.Node {
	return lmWindowLoss(m.Features, m.Decoder, windows)
}
