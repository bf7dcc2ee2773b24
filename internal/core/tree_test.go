package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// §4.4 transfer learning hands Amalgam a pre-trained batch-norm model in
// eval mode. Augmentation must give it back in the mode (and with the
// running statistics) it came in: it never touches either.
func TestAugmentationPreservesOriginalMode(t *testing.T) {
	cfg := models.CVConfig{InC: 3, InH: 8, InW: 8, Classes: 4}
	key, err := NewImageAugKey(tensor.NewRNG(1), 8, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, training := range []bool{false, true} {
		orig := models.NewResNet18(tensor.NewRNG(2), cfg)
		orig.SetTraining(training)
		before := map[string]*tensor.Tensor{}
		for name, v := range nn.StateDict(orig) {
			before[name] = v.Clone()
		}
		am, err := AugmentCVModel(orig, key, 3, 4, ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got := nn.TrainingMode(orig); got != training {
			t.Fatalf("original handed over with training=%v came back with training=%v", training, got)
		}
		if got := nn.TrainingMode(am); got != training {
			t.Fatalf("augmented model reports training=%v, its original is in training=%v", got, training)
		}
		for name, v := range nn.StateDict(orig) {
			if !v.Equal(before[name]) {
				t.Fatalf("augmentation moved %q (training=%v)", name, training)
			}
		}
	}
}

// Each zoo model states its tap widths, so augmentation sizes the decoys'
// taps without a forward pass through the original: one augmentation of a
// resnet18 neither takes a pooled buffer nor misses the pool.
func TestAugmentationRunsNoForward(t *testing.T) {
	key, err := NewImageAugKey(tensor.NewRNG(1), 8, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	orig := models.NewResNet18(tensor.NewRNG(2), models.CVConfig{InC: 3, InH: 8, InW: 8, Classes: 4})
	hit0, miss0 := tensor.PoolStats()
	if _, err := AugmentCVModel(orig, key, 3, 4, ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if hit1, miss1 := tensor.PoolStats(); hit1 != hit0 || miss1 != miss0 {
		t.Errorf("augmentation took %d pooled buffers and missed %d times; want 0 and 0", hit1-hit0, miss1-miss0)
	}
}

func augmentedLM(t *testing.T, dropout float32) *AugmentedTransformerLM {
	t.Helper()
	cfg := models.TransformerLMConfig{Vocab: 20, D: 8, Heads: 2, FF: 16, Layers: 2, MaxT: 8, Dropout: dropout}
	key, err := NewTextAugKey(tensor.NewRNG(4), 6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	am, err := AugmentTransformerLM(models.NewTransformerLM(tensor.NewRNG(5), cfg), key, ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return am
}

// The dropout cursors a checkpoint carries are found by walking the
// augmented model's tree: exactly the original LM's streams, under the
// state dict's "orig." naming; nothing for a model without dropout.
func TestRNGStatesOfAugmentedModels(t *testing.T) {
	am := augmentedLM(t, 0.2)
	states, err := nn.RNGStates(am)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), "orig.block0.drop orig.block1.drop orig.drop"; got != want {
		t.Fatalf("augmented LM streams %q, want %q", got, want)
	}

	imgKey, err := NewImageAugKey(tensor.NewRNG(7), 8, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lenet := models.NewLeNet5(tensor.NewRNG(8), models.CVConfig{InC: 1, InH: 8, InW: 8, Classes: 3})
	cv, err := AugmentCVModel(lenet, imgKey, 1, 3, ModelAugmentOptions{Amount: 0.5, SubNets: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := nn.RNGStates(cv); err != nil || len(s) != 0 {
		t.Fatalf("a LeNet job has no random streams, got %v, %v", s, err)
	}
	if err := nn.LoadRNGStates(cv, map[string][]byte{"orig.drop": states["orig.drop"]}); err == nil {
		t.Fatal("a cursor shipped for a model without dropout must be rejected")
	}

	// Run one training-mode step so every stream advances, then restore
	// only one cursor into a fresh build: missing entries stay untouched.
	windows := [][]int{{1, 2, 3, 4, 5, 6, 7, 8, 9}, {9, 8, 7, 6, 5, 4, 3, 2, 1}}
	am.LossWindows(windows)
	moved, err := nn.RNGStates(am)
	if err != nil {
		t.Fatal(err)
	}
	for name := range states {
		if bytes.Equal(moved[name], states[name]) {
			t.Fatalf("stream %q did not advance over a training step", name)
		}
	}
	fresh := augmentedLM(t, 0.2)
	if err := nn.LoadRNGStates(fresh, map[string][]byte{"orig.block1.drop": moved["orig.block1.drop"]}); err != nil {
		t.Fatal(err)
	}
	got, err := nn.RNGStates(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["orig.block1.drop"], moved["orig.block1.drop"]) || !bytes.Equal(got["orig.drop"], states["orig.drop"]) {
		t.Fatal("LoadRNGStates must restore present entries and leave missing ones untouched")
	}
	for _, bad := range []string{"drop", "decoy0.drop", "orig.block2.drop", "orig.block0.attn"} {
		if err := nn.LoadRNGStates(fresh, map[string][]byte{bad: moved["orig.drop"]}); err == nil {
			t.Fatalf("stream name %q is outside the tree and must be rejected", bad)
		}
	}
}

// Both key kinds share one partition check, and a key rebuilt from its
// wire keep set is validated on the way in.
func TestKeyPartitionCheck(t *testing.T) {
	key, err := NewTextAugKey(tensor.NewRNG(10), 6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(edit func(k *TextAugKey)) error {
		k := &TextAugKey{OrigLen: key.OrigLen, AugLen: key.AugLen, Keep: append([]int(nil), key.Keep...), Insert: append([]int(nil), key.Insert...)}
		edit(k)
		return k.Validate()
	}
	for name, edit := range map[string]func(k *TextAugKey){
		"keep out of range":   func(k *TextAugKey) { k.Keep[len(k.Keep)-1] = k.AugLen },
		"insert negative":     func(k *TextAugKey) { k.Insert[0] = -1 },
		"duplicate position":  func(k *TextAugKey) { k.Insert[0] = k.Keep[0] },
		"unsorted keep":       func(k *TextAugKey) { k.Keep[0], k.Keep[1] = k.Keep[1], k.Keep[0] },
		"short insert":        func(k *TextAugKey) { k.Insert = k.Insert[1:] },
		"aug shorter than in": func(k *TextAugKey) { k.AugLen = k.OrigLen - 1 },
	} {
		if corrupt(edit) == nil {
			t.Errorf("text key with %s passed validation", name)
		}
	}

	rebuilt, err := TextAugKeyFromKeep(key.OrigLen, key.AugLen, key.Keep)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rebuilt.Insert) != fmt.Sprint(key.Insert) {
		t.Fatalf("rebuilt insert set %v, want %v", rebuilt.Insert, key.Insert)
	}
	imgKey, err := NewImageAugKey(tensor.NewRNG(11), 4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	img, err := ImageAugKeyFromKeep(4, 4, 6, 6, imgKey.Keep)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(img.Insert) != fmt.Sprint(imgKey.Insert) {
		t.Fatalf("rebuilt image insert set %v, want %v", img.Insert, imgKey.Insert)
	}
	for name, keep := range map[string][]int{
		"unsorted":     {1, 0, 2, 3, 4, 5},
		"duplicate":    {0, 1, 1, 3, 4, 5},
		"out of range": {0, 1, 2, 3, 4, 99},
		"negative":     {-1, 1, 2, 3, 4, 5},
		"too few":      {0, 1, 2},
		"too many":     {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	} {
		if _, err := TextAugKeyFromKeep(6, 9, keep); err == nil {
			t.Errorf("%s keep set %v built a key", name, keep)
		}
	}
	if _, err := TextAugKeyFromKeep(6, -3, key.Keep); err == nil {
		t.Error("negative augmented length built a key")
	}
	if _, err := ImageAugKeyFromKeep(4, 4, 2, 2, imgKey.Keep); err == nil {
		t.Error("augmented plane smaller than the original built a key")
	}
}
