package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// Sub-networks train side by side (subNets.forward, autodiff.Backward's
// components). Where a sub-network runs must never show in what it
// computes: this table trains every kind of augmented model for two
// optimiser steps at several worker counts, many times each — pool
// schedules differ from run to run — and demands the one-worker result,
// which is the sequential program, bit for bit.

// stepPrint is everything a training run leaves behind, folded to hashes:
// weights and buffers, dropout cursors, every leaf gradient of every step,
// both loss scalars of every step, and how many buffers the pool handed out.
type stepPrint struct {
	state, rng, grads uint64
	losses            [4]uint32
	gets              int64
}

// fold is FNV-1a over the bit patterns of data: NaN payloads and the sign
// of zero count, as they do in Tensor.Equal.
func fold(h uint64, data []float32) uint64 {
	for _, v := range data {
		h = (h ^ uint64(math.Float32bits(v))) * 0x100000001b3
	}
	return h
}

// sideBySideModel is what the three augmented models have in common here.
type sideBySideModel interface {
	Params() []nn.Param
	SetTraining(bool)
}

// trainTwoSteps restores m to init, trains two steps under a fresh
// optimiser at the given worker count and returns what that left behind.
func trainTwoSteps(t *testing.T, m sideBySideModel, init map[string]*tensor.Tensor, cursors map[string][]byte,
	loss func() (total, orig *autodiff.Node), adam bool, workers int) stepPrint {
	t.Helper()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))
	if err := nn.LoadStateDict(m, init); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadRNGStates(m, cursors); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		p.Node.Grad = nil // a fresh job: the first Backward allocates them
	}
	var opt interface{ Step() }
	if adam {
		opt = optim.NewAdam(m.Params(), 1e-3)
	} else {
		opt = optim.NewSGD(m.Params(), 0.05, 0.9, 5e-4)
	}
	var p stepPrint
	h0, m0 := tensor.PoolStats()
	for step := 0; step < 2; step++ {
		nn.ZeroGrads(m)
		total, orig := loss()
		autodiff.Backward(total)
		if grads, scratch := autodiff.Retained(total); grads != 0 || scratch != 0 {
			t.Fatalf("%d workers: %d gradients and %d scratch holders alive after Backward", workers, grads, scratch)
		}
		p.losses[2*step], p.losses[2*step+1] = math.Float32bits(total.Scalar()), math.Float32bits(orig.Scalar())
		for _, q := range m.Params() {
			if q.Node.RequiresGrad() {
				if q.Node.Grad == nil {
					t.Fatalf("%d workers: parameter %s has no gradient", workers, q.Name)
				}
				p.grads = fold(p.grads, q.Node.Grad.Data)
			}
		}
		opt.Step()
		autodiff.Release(total)
	}
	h1, m1 := tensor.PoolStats()
	p.gets = (h1 - h0) + (m1 - m0)
	for _, q := range m.Params() {
		p.state = fold(p.state, q.Node.Val.Data)
	}
	after, err := nn.RNGStates(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(after)) {
		for _, b := range after[name] {
			p.rng = (p.rng ^ uint64(b)) * 0x100000001b3
		}
	}
	return p
}

// checkSideBySide runs the table's body for one built model: the sequential
// print under each optimiser, then every worker count, reps times each.
func checkSideBySide(t *testing.T, m sideBySideModel, loss func() (total, orig *autodiff.Node), reps int, adamToo bool) {
	t.Helper()
	m.SetTraining(true)
	init := map[string]*tensor.Tensor{}
	for name, v := range nn.StateDict(m) {
		init[name] = v.Clone()
	}
	cursors, err := nn.RNGStates(m)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		reps = min(reps, 3)
	}
	kinds := []bool{false}
	if adamToo {
		kinds = append(kinds, true)
	}
	for _, adam := range kinds {
		want := trainTwoSteps(t, m, init, cursors, loss, adam, 1)
		if want.losses[0] == want.losses[2] {
			t.Fatal("two optimiser steps left the loss where it was: nothing trained")
		}
		for _, workers := range []int{2, 3, 8} {
			for rep := 0; rep < reps; rep++ {
				if got := trainTwoSteps(t, m, init, cursors, loss, adam, workers); got != want {
					t.Fatalf("adam=%v, %d workers, repeat %d: %+v, sequential run %+v", adam, workers, rep, got, want)
				}
			}
		}
	}
}

func TestSideBySideTrainingIsTheSequentialProgram(t *testing.T) {
	const amount = 0.5
	subNets := []int{1, 2, 3, 4}

	// Computer vision: every zoo model on 3×8×8, taps on and off, and once
	// with the first decoy's gather pinned (the cover defence's path).
	ds := data.GenerateImages(data.ImageConfig{Name: "side", N: 4, C: 3, H: 8, W: 8, Classes: 4, Seed: 31, Noise: 0.05})
	augImgs, err := AugmentImages(ds, ImageAugmentOptions{Amount: amount, Noise: DefaultImageNoise(), Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	x, labels := augImgs.Dataset.Batch([]int{0, 1, 2, 3})
	pinned := make([]int, 8*8) // any 64 distinct positions of the augmented plane
	for i := range pinned {
		pinned[i] = i
	}
	for _, name := range models.CVModelNames() {
		// The table is about branches, not about the original's insides, which
		// run on the caller either way: LeNet gets the whole cross — decoy
		// count × taps, a pinned gather, both optimisers, ten repeats per
		// worker count. The other zoo models show that their taps and
		// batch-norm statistics change nothing, in one configuration at
		// three repeats; the three ten-million-parameter ones under SGD
		// only (momentum, gradients and the restore point are already four
		// copies of their weights). The race detector, fifty times slower
		// on their scalar loops, sees LeNet's cross and DenseNet.
		heavy := name == "resnet18" || name == "vgg16" || name == "vgg16cbam"
		if raceEnabled && name != "lenet" && name != "densenet121" {
			continue
		}
		type cfg struct {
			ns            int
			noTaps, pinIt bool
		}
		cfgs, reps := []cfg{{ns: 3}}, 3
		if name == "lenet" {
			cfgs, reps = []cfg{{ns: 2, pinIt: true}}, 10
			for _, ns := range subNets {
				cfgs = append(cfgs, cfg{ns: ns}, cfg{ns: ns, noTaps: true})
			}
		}
		for _, c := range cfgs {
			t.Run(fmt.Sprintf("%s/decoys=%d/notaps=%v/pinned=%v", name, c.ns, c.noTaps, c.pinIt), func(t *testing.T) {
				orig, err := models.BuildCV(name, tensor.NewRNG(33), models.CVConfig{InC: 3, InH: 8, InW: 8, Classes: 4})
				if err != nil {
					t.Fatal(err)
				}
				opts := ModelAugmentOptions{Amount: amount, SubNets: c.ns, Seed: 34, DisableTaps: c.noTaps}
				if c.pinIt {
					opts.DecoyGathers = [][]int{pinned}
				}
				am, err := AugmentCVModel(orig, augImgs.Key, 3, 4, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(am.Decoys) != c.ns {
					t.Fatalf("%d decoys, want %d", len(am.Decoys), c.ns)
				}
				checkSideBySide(t, am, func() (*autodiff.Node, *autodiff.Node) {
					return am.Loss(autodiff.Constant(x), labels)
				}, reps, !heavy && !(raceEnabled && name != "lenet"))
			})
		}
	}

	// Text classifier: the tap is the original's pooled feature.
	text := data.GenerateClassifiedText(data.ClassTextConfig{Name: "side", N: 8, SeqLen: 16, Vocab: 300, Classes: 3, Seed: 35})
	augText, err := AugmentTextDataset(text, TextAugmentOptions{Amount: amount, Noise: DefaultTextNoise(300), Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	ids, textLabels := augText.Dataset.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, ns := range subNets {
		for _, noTaps := range []bool{false, true} {
			t.Run(fmt.Sprintf("textclassifier/decoys=%d/notaps=%v", ns, noTaps), func(t *testing.T) {
				am, err := AugmentTextClassifier(models.NewTextClassifier(tensor.NewRNG(37), 300, 12, 3), augText.Key,
					ModelAugmentOptions{Amount: amount, SubNets: ns, Seed: 38, DisableTaps: noTaps})
				if err != nil {
					t.Fatal(err)
				}
				checkSideBySide(t, am, func() (*autodiff.Node, *autodiff.Node) { return am.Loss(ids, textLabels) }, 10, true)
			})
		}
	}

	// Language model, with dropout on so the original's random streams are
	// part of what must not move (decoys draw nothing).
	stream := data.GenerateTokenStream(data.TextConfig{Name: "side", Tokens: 12 * 4, Vocab: 80, Seed: 39})
	augStream, err := AugmentTokenStream(stream, TextAugmentOptions{Amount: amount, WindowLen: 12, Noise: DefaultTextNoise(80), Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	windows := augStream.Stream.WindowSet(augStream.Key.AugLen).Windows
	lmCfg := models.TransformerLMConfig{Vocab: 80, D: 16, Heads: 2, FF: 24, Layers: 2, MaxT: 32, Dropout: 0.1}
	for _, ns := range subNets {
		t.Run(fmt.Sprintf("lm/decoys=%d", ns), func(t *testing.T) {
			am, err := AugmentTransformerLM(models.NewTransformerLM(tensor.NewRNG(41), lmCfg), augStream.Key,
				ModelAugmentOptions{Amount: amount, SubNets: ns, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			checkSideBySide(t, am, func() (*autodiff.Node, *autodiff.Node) { return am.LossWindows(windows) }, 10, true)
		})
	}
}
