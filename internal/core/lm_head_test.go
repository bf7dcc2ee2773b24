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
// of augmented windows: batch 4, window 12, vocab 512.
func lmHeadFixture(t *testing.T, amount float64) (am *AugmentedTransformerLM, batch [][]int, logitNumel int) {
	return lmHeadFixtureAt(t, amount, 512)
}

// lmHeadFixtureAt is lmHeadFixture over a vocab-word vocabulary. At vocab
// 16384 the [N·T, vocab] logits (44·16384 floats, a 2²⁰ pool bucket) span
// three of the loss head's 16-row blocks (2¹⁸ floats each), and nothing
// else of the step lives in their bucket: the next largest buffers, the
// [vocab, D] tables, fill the blocks' own.
func lmHeadFixtureAt(t *testing.T, amount float64, vocab int) (am *AugmentedTransformerLM, batch [][]int, logitNumel int) {
	t.Helper()
	const window, batchN = 12, 4
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
// pool a LossWindows → Backward → Release step misses the pool nowhere and,
// on a geometry whose logits span several of the loss head's row blocks,
// never asks for a logit-sized buffer. The head forms its logits a block at
// a time, forward and again in backward; a head that kept them whole (one
// logit-sized buffer per sub-network, or five when it was unfused) is what
// the lm_local peak_rss_mb measures at full size.
func TestLossWindowsLogitFootprint(t *testing.T) {
	for _, amount := range []float64{0, 0.5} {
		am, batch, logitNumel := lmHeadFixtureAt(t, amount, 16384)
		if logitNumel < 2<<18 {
			t.Fatalf("%d logits fit in fewer than two of the head's 2¹⁸-float blocks", logitNumel)
		}
		step := func() {
			nn.ZeroGrads(am)
			total, _ := am.LossWindows(batch)
			autodiff.Backward(total)
			autodiff.Release(total)
		}
		// One kernel worker from the warm-up on: sub-networks interleaved by
		// preemption may hold more buffers at once than in the warm-up, and
		// a miss of that kind is not the step's.
		workers := tensor.SetMaxWorkers(1)
		step() // parameter gradients come to life
		step() // the pool is warm
		_, miss0 := tensor.PoolStats()
		h0, m0 := tensor.PoolBucketStats(logitNumel)
		step()
		h1, m1 := tensor.PoolBucketStats(logitNumel)
		_, miss1 := tensor.PoolStats()
		tensor.SetMaxWorkers(workers)
		if gets := (h1 - h0) + (m1 - m0); gets != 0 {
			t.Errorf("amount %v: %d logit-sized Gets in one step, want none", amount, gets)
		}
		if miss1 != miss0 {
			t.Errorf("amount %v: a warmed step missed the pool %d times", amount, miss1-miss0)
		}
	}
}

// TestAugmentedLMForwardIsLastRowOfAllPositions: an augmented LM serves
// augmented windows with row i of its [N, vocab] logits bit for bit row
// (i+1)·T−1 of the original's all-position logits over the gathered
// windows, Decoder.Forward(Features), at odd and even N, every worker
// count and both kernel backends. At D·vocab = 2¹⁴ the GEMMs split rows
// over the workers.
func TestAugmentedLMForwardIsLastRowOfAllPositions(t *testing.T) {
	am, windows, _ := lmHeadFixtureAt(t, 0.5, 1024)
	am.SetTraining(false)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	defer tensor.SetSIMD(tensor.SetSIMD(false))
	for _, simd := range []bool{false, true} {
		if tensor.SetSIMD(simd); simd && !tensor.SIMDEnabled() {
			t.Log("AVX2 not available; SIMD dispatch not exercised")
			continue
		}
		for _, wk := range []int{1, 2, 3, 8} {
			tensor.SetMaxWorkers(wk)
			for _, n := range []int{1, 2, 3, 5} {
				batch := make([][]int, n)
				for i := range batch {
					batch[i] = windows[(i+n)%len(windows)]
				}
				gathered := am.OrigGather.Apply(batch)
				all := am.Orig.Decoder.Forward(am.Orig.Features(gathered))
				got := am.ForwardIDs(batch)
				vocab, tt := am.Orig.Vocab, len(gathered[0])
				if got.Val.Dim(0) != n || got.Val.Dim(1) != vocab {
					t.Fatalf("simd=%v workers=%d N=%d: logits %v, want [%d %d]", simd, wk, n, got.Val.Shape(), n, vocab)
				}
				for i := 0; i < n; i++ {
					want := all.Val.Data[((i+1)*tt-1)*vocab : (i+1)*tt*vocab]
					if !tensor.FromSlice(got.Val.Data[i*vocab:(i+1)*vocab], vocab).Equal(tensor.FromSlice(want, vocab)) {
						t.Errorf("simd=%v workers=%d N=%d: row %d is not the all-position logits' row %d", simd, wk, n, i, (i+1)*tt-1)
					}
				}
				autodiff.Release(all)
				autodiff.Release(got)
			}
		}
	}
}
