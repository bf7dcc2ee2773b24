package cloudsim

import (
	"slices"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/tensor"
)

// lmScoreFixture builds an augmented LM over a 16384-word vocabulary and
// eight augmented windows of 12 original tokens. A batch of four scores
// 4·11 rows of logits (720896 floats, a 2²⁰ pool bucket): three of the
// loss head's 16-row blocks (2¹⁸ floats each), and nothing else of the
// pass lives in their bucket.
func lmScoreFixture(t *testing.T) (am *core.AugmentedTransformerLM, ws *data.WindowSet, batch, logitNumel int) {
	t.Helper()
	const vocab, window, windows = 16384, 12, 8
	batch = 4
	stream := data.GenerateTokenStream(data.TextConfig{Name: "lmscore", Tokens: window * windows, Vocab: vocab, Seed: 5})
	aug, err := core.AugmentTokenStream(stream, core.TextAugmentOptions{Amount: 0.5, WindowLen: window, Noise: core.DefaultTextNoise(vocab), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.TransformerLMConfig{Vocab: vocab, D: 16, Heads: 2, FF: 24, Layers: 1, MaxT: 32}
	am, err = core.AugmentTransformerLM(models.NewTransformerLM(tensor.NewRNG(7), cfg), aug.Key, core.ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ws = aug.Stream.WindowSet(aug.Key.AugLen)
	if ws.N() != windows {
		t.Fatalf("%d augmented windows, want %d", ws.N(), windows)
	}
	return am, ws, batch, batch * (window - 1) * vocab
}

// TestLMScoreMatchesForwardIDs: the accuracy pass's blocked scoring predicts
// what the argmax of the original's all-position logits,
// Decoder.Forward(Features), does, row for row, on a batch whose logits
// span several row blocks.
func TestLMScoreMatchesForwardIDs(t *testing.T) {
	am, ws, batch, _ := lmScoreFixture(t)
	am.SetTraining(false)
	score := lmScore(am, ws)
	for lo := 0; lo < ws.N(); lo += batch {
		idx := []int{lo, lo + 1, lo + 2, lo + 3}
		pred, labels := score(idx)
		gathered := am.OrigGather.Apply(ws.Batch(idx))
		inputs, targets := make([][]int, len(gathered)), make([][]int, len(gathered))
		for i, w := range gathered {
			inputs[i], targets[i] = w[:len(w)-1], w[1:]
		}
		logits := am.Orig.Decoder.Forward(am.Orig.Features(inputs))
		want := tensor.ArgmaxRows(logits.Val)
		autodiff.Release(logits)
		if !slices.Equal(pred, want) {
			t.Fatalf("windows %v: blocked predictions differ from ArgmaxRows of the all-position logits\n got %v\nwant %v", idx, pred, want)
		}
		if !slices.Equal(labels, models.FlattenTargets(targets)) {
			t.Fatalf("windows %v: labels are not the original windows' shifted tokens", idx)
		}
	}
}

// TestLMAccuracyLogitFootprint is TestLossWindowsLogitFootprint (internal/core)
// for the epoch's accuracy pass: warmed, LMAccuracy misses the pool nowhere
// and never asks for a logit-sized buffer — the all-position logits,
// Decoder.Forward(Features), would take one per batch. One kernel worker, as
// there: sub-networks interleaved by preemption may hold more buffers at once
// than in the warm-up.
func TestLMAccuracyLogitFootprint(t *testing.T) {
	am, ws, batch, logitNumel := lmScoreFixture(t)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	LMAccuracy(am, ws, batch) // the pool is warm
	_, miss0 := tensor.PoolStats()
	h0, m0 := tensor.PoolBucketStats(logitNumel)
	LMAccuracy(am, ws, batch)
	h1, m1 := tensor.PoolBucketStats(logitNumel)
	_, miss1 := tensor.PoolStats()
	if gets := (h1 - h0) + (m1 - m0); gets != 0 {
		t.Errorf("%d logit-sized Gets in one accuracy pass, want none", gets)
	}
	if miss1 != miss0 {
		t.Errorf("a warmed accuracy pass missed the pool %d times", miss1-miss0)
	}
}
