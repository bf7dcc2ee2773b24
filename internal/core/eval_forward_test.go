package core

import (
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/tensor"
)

// poolGets returns how many buffers f asks the tensor pool for, hits and
// misses together: the same graph asks for the same buffers whatever the
// pool holds.
func poolGets(f func() *autodiff.Node) (*autodiff.Node, int64) {
	h0, m0 := tensor.PoolStats()
	out := f()
	h1, m1 := tensor.PoolStats()
	return out, h1 - h0 + m1 - m0
}

// checkEvalForward holds an augmented model's eval forward — per-epoch
// accuracy, Predict, every served prediction — to the original sub-network
// alone: its logits are ForwardAll's first output bit for bit, and it asks
// the pool for exactly the buffers the original's own forward on the
// gathered input asks for, so no decoy ran.
func checkEvalForward(t *testing.T, forward, all, orig func() *autodiff.Node) {
	t.Helper()
	ref, origGets := poolGets(orig)
	autodiff.Release(ref)
	got, gets := poolGets(forward)
	if want := all(); !got.Val.Equal(want.Val) {
		t.Fatal("eval forward's logits differ from ForwardAll's original logits")
	}
	if gets != origGets {
		t.Fatalf("eval forward took %d pool buffers, the original alone %d: decoys ran", gets, origGets)
	}
	autodiff.Release(got)
}

func TestAugmentedEvalForwardRunsOnlyTheOriginal(t *testing.T) {
	ds := data.GenerateImages(data.ImageConfig{Name: "eval", N: 4, C: 3, H: 8, W: 8, Classes: 4, Seed: 51, Noise: 0.05})
	augImgs, err := AugmentImages(ds, ImageAugmentOptions{Amount: 0.5, Noise: DefaultImageNoise(), Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := augImgs.Dataset.Batch([]int{0, 1, 2, 3})
	for _, name := range models.CVModelNames() {
		t.Run(name, func(t *testing.T) {
			orig, err := models.BuildCV(name, tensor.NewRNG(53), models.CVConfig{InC: 3, InH: 8, InW: 8, Classes: 4})
			if err != nil {
				t.Fatal(err)
			}
			am, err := AugmentCVModel(orig, augImgs.Key, 3, 4, ModelAugmentOptions{Amount: 0.5, SubNets: 3, Seed: 54})
			if err != nil {
				t.Fatal(err)
			}
			am.SetTraining(false)
			checkEvalForward(t,
				func() *autodiff.Node { return am.Forward(autodiff.Constant(x)) },
				func() *autodiff.Node { o, _ := am.ForwardAll(autodiff.Constant(x)); return o },
				func() *autodiff.Node { return am.Orig.Forward(am.OrigGather.Forward(autodiff.Constant(x))) })
		})
	}

	t.Run("textclassifier", func(t *testing.T) {
		text := data.GenerateClassifiedText(data.ClassTextConfig{Name: "eval", N: 8, SeqLen: 16, Vocab: 300, Classes: 3, Seed: 55})
		augText, err := AugmentTextDataset(text, TextAugmentOptions{Amount: 0.5, Noise: DefaultTextNoise(300), Seed: 56})
		if err != nil {
			t.Fatal(err)
		}
		ids, _ := augText.Dataset.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
		am, err := AugmentTextClassifier(models.NewTextClassifier(tensor.NewRNG(57), 300, 12, 3), augText.Key,
			ModelAugmentOptions{Amount: 0.5, SubNets: 3, Seed: 58})
		if err != nil {
			t.Fatal(err)
		}
		am.SetTraining(false)
		checkEvalForward(t,
			func() *autodiff.Node { return am.ForwardIDs(ids) },
			func() *autodiff.Node { o, _ := am.ForwardAll(ids); return o },
			func() *autodiff.Node { return am.Orig.ForwardIDs(am.OrigGather.Apply(ids)) })
	})
}
