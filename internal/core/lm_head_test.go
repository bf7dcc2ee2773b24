package core

import (
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// lmHeadFixture builds an augmented LM at a small geometry plus one batch
// of augmented windows. At batch 4, window 12 and vocab 512 the [N·T,
// vocab] logits (44·512 floats) are the only buffers of the step in their
// pool size bucket: the next largest, the [vocab, D] tables, are a quarter
// of it.
func lmHeadFixture(t *testing.T, amount float64) (am *AugmentedTransformerLM, batch [][]int, logitNumel int) {
	t.Helper()
	const vocab, window, batchN = 512, 12, 4
	stream := data.GenerateTokenStream(data.TextConfig{Name: "lmhead", Tokens: window * batchN, Vocab: vocab, Seed: 3})
	aug, err := AugmentTokenStream(stream, TextAugmentOptions{Amount: amount, WindowLen: window, Noise: DefaultTextNoise(vocab), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.TransformerLMConfig{Vocab: vocab, D: 16, Heads: 2, FF: 24, Layers: 1, MaxT: 32}
	am, err = AugmentTransformerLM(models.NewTransformerLM(tensor.NewRNG(9), cfg), aug.Key, ModelAugmentOptions{Amount: amount, SubNets: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	am.SetTraining(true)
	for lo := 0; lo+aug.Key.AugLen <= len(aug.Stream.Tokens); lo += aug.Key.AugLen {
		batch = append(batch, aug.Stream.Tokens[lo:lo+aug.Key.AugLen])
	}
	if len(batch) != batchN {
		t.Fatalf("%d augmented windows, want %d", len(batch), batchN)
	}
	return am, batch, batchN * (window - 1) * vocab
}

// unfusedLossWindows is LossWindows as it was composed before the loss head
// was fused: every sub-network projects its features to logits with MatMul
// → AddRowBias (two nodes, two logit-sized values) and hands them to
// SoftmaxCrossEntropy (a third buffer for the probabilities).
func unfusedLossWindows(m *AugmentedTransformerLM, windows [][]int) *autodiff.Node {
	loss := func(features func([][]int) *autodiff.Node, head *nn.Linear, ws [][]int) *autodiff.Node {
		inputs, targets := make([][]int, len(ws)), make([][]int, len(ws))
		for i, w := range ws {
			inputs[i], targets[i] = w[:len(w)-1], w[1:]
		}
		logits := autodiff.AddRowBias(autodiff.MatMul(features(inputs), head.W), head.B, tensor.ActNone)
		return autodiff.SoftmaxCrossEntropy(logits, models.FlattenTargets(targets))
	}
	losses := []*autodiff.Node{loss(m.Orig.Features, m.Orig.Decoder, m.OrigGather.Apply(windows))}
	for _, d := range m.Decoys {
		losses = append(losses, loss(func(ids [][]int) *autodiff.Node {
			emb := d.embed.Lookup(ids)
			return autodiff.Reshape(emb, emb.Val.Dim(0)*emb.Val.Dim(1), emb.Val.Dim(2))
		}, d.head, d.gather.Apply(windows)))
	}
	return autodiff.AddN(losses...)
}

// TestLossWindowsMatchesUnfusedHead: the fused Linear→cross-entropy head
// changes how many buffers a sub-network holds, not one bit of what it
// computes — joint loss and every parameter gradient, plain arm (amount 0)
// and augmented.
func TestLossWindowsMatchesUnfusedHead(t *testing.T) {
	for _, amount := range []float64{0, 0.5} {
		fused, batch, _ := lmHeadFixture(t, amount)
		plain, _, _ := lmHeadFixture(t, amount)
		if (amount > 0) != (len(fused.Decoys) > 0) {
			t.Fatalf("amount %v: %d decoys", amount, len(fused.Decoys))
		}
		total, _ := fused.LossWindows(batch)
		ref := unfusedLossWindows(plain, batch)
		if !total.Val.Equal(ref.Val) {
			t.Fatalf("amount %v: LossWindows = %v, unfused composition = %v", amount, total.Scalar(), ref.Scalar())
		}
		autodiff.Backward(total)
		autodiff.Backward(ref)
		fp, pp := fused.Params(), plain.Params()
		if len(fp) != len(pp) {
			t.Fatalf("amount %v: %d vs %d parameters", amount, len(fp), len(pp))
		}
		for i := range fp {
			fg, pg := fp[i].Node.Grad, pp[i].Node.Grad
			if (fg == nil) != (pg == nil) || (fg != nil && !fg.Equal(pg)) {
				t.Fatalf("amount %v: gradient of %q differs from the unfused composition", amount, fp[i].Name)
			}
		}
		autodiff.Release(total)
		autodiff.Release(ref)
	}
}

// TestLossWindowsLogitFootprint is the allocation pin for the LM step, the
// counterpart of autodiff's TestSoftmaxStepAllocs one level up: on a warmed
// pool a LossWindows → Backward → Release step misses the pool nowhere and
// asks for a logit-sized buffer at most once per sub-network. The unfused
// head asked five times (matmul value, bias-add value, probabilities, and
// a gradient for each of the two values), which is what the lm_local
// peak_rss_mb measures at full size.
func TestLossWindowsLogitFootprint(t *testing.T) {
	for _, amount := range []float64{0, 0.5} {
		am, batch, logitNumel := lmHeadFixture(t, amount)
		step := func() {
			nn.ZeroGrads(am)
			total, _ := am.LossWindows(batch)
			autodiff.Backward(total)
			autodiff.Release(total)
		}
		step() // parameter gradients come to life
		step() // the pool is warm
		_, miss0 := tensor.PoolStats()
		h0, m0 := tensor.PoolBucketStats(logitNumel)
		step()
		h1, m1 := tensor.PoolBucketStats(logitNumel)
		_, miss1 := tensor.PoolStats()
		subNets := 1 + len(am.Decoys)
		if gets := int((h1 - h0) + (m1 - m0)); gets > subNets {
			t.Errorf("amount %v: %d logit-sized Gets in one step for %d sub-networks, want at most one each", amount, gets, subNets)
		}
		if miss1 != miss0 && !raceEnabled {
			t.Errorf("amount %v: a warmed step missed the pool %d times", amount, miss1-miss0)
		}
	}
}
