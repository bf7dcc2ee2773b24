package models

import (
	"reflect"
	"strings"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// runningStats copies every batch-norm running mean out of the state dict.
func runningStats(m nn.Module) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, p := range m.Params() {
		if strings.HasSuffix(p.Name, ".running_mean") {
			out[p.Name] = p.Node.Val.Clone()
		}
	}
	return out
}

// TestSetTrainingReachesEveryLayer pins the derived mode switch from the
// outside, for every zoo model: in eval mode a forward pass moves no
// batch-norm running statistic and draws no dropout mask; back in
// training mode it moves every one of them.
func TestSetTrainingReachesEveryLayer(t *testing.T) {
	cfg := CVConfig{InC: 3, InH: 8, InW: 8, Classes: 4}
	x := tensor.New(4, 3, 8, 8)
	tensor.NewRNG(1).FillUniform(x, 0.5, 1.5)
	for _, name := range CVModelNames() {
		t.Run(name, func(t *testing.T) {
			m, err := BuildCV(name, tensor.NewRNG(2), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !nn.TrainingMode(m) {
				t.Fatal("models are built in training mode")
			}
			m.SetTraining(false)
			if name != "lenet" && nn.TrainingMode(m) {
				t.Fatal("Training() still true after SetTraining(false)")
			}
			before := runningStats(m)
			a := m.Forward(autodiff.Constant(x)).Val.Clone()
			b := m.Forward(autodiff.Constant(x)).Val
			if !a.Equal(b) {
				t.Fatal("eval forward is not repeatable: a dropout is still live")
			}
			for n, v := range runningStats(m) {
				if !v.Equal(before[n]) {
					t.Fatalf("eval forward moved %s: SetTraining(false) did not reach it", n)
				}
			}
			m.SetTraining(true)
			m.Forward(autodiff.Constant(x))
			for n, v := range runningStats(m) {
				if v.Equal(before[n]) {
					t.Fatalf("training forward left %s untouched: SetTraining(true) did not reach it", n)
				}
			}
		})
	}

	// Dropout-only trees: the VGG ImageNet head and the transformer LM.
	vgg := NewVGG16CBAM(tensor.NewRNG(3), cfg)
	if a, b := vgg.Forward(autodiff.Constant(x)).Val.Clone(), vgg.Forward(autodiff.Constant(x)).Val; a.Equal(b) {
		t.Fatal("training-mode VGG head should draw a fresh dropout mask per forward")
	}
	lm := NewTransformerLM(tensor.NewRNG(4), TransformerLMConfig{Vocab: 20, D: 8, Heads: 2, FF: 16, Layers: 2, MaxT: 8, Dropout: 0.5})
	ids := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	if a, b := lm.ForwardIDs(ids).Val.Clone(), lm.ForwardIDs(ids).Val; a.Equal(b) {
		t.Fatal("training-mode LM should draw fresh dropout masks per forward")
	}
	lm.SetTraining(false)
	if lm.Training() || lm.Blocks[0].Training() {
		t.Fatal("LM and its blocks must report eval mode (the block's first child, attention, has no mode)")
	}
	if a, b := lm.ForwardIDs(ids).Val.Clone(), lm.ForwardIDs(ids).Val; !a.Equal(b) {
		t.Fatal("eval-mode LM forward is not repeatable: a dropout is still live")
	}
}

// TestBackwardDrainsEveryZooGraph pins buffer lifetimes from the outside,
// for every zoo model: after Backward no interior node of the training
// graph holds a gradient or backward scratch (they went back to the pool as
// the pass moved on), every parameter has its gradient, and Release —
// called twice — hands each remaining buffer back exactly once, so the next
// step makes the same pool requests.
func TestBackwardDrainsEveryZooGraph(t *testing.T) {
	cfg := CVConfig{InC: 3, InH: 8, InW: 8, Classes: 4}
	x := tensor.New(4, 3, 8, 8)
	tensor.NewRNG(5).FillUniform(x, 0.5, 1.5)
	labels := []int{0, 1, 2, 3}

	check := func(t *testing.T, m interface{ Params() []nn.Param }, loss func() *autodiff.Node) {
		t.Helper()
		gets := func() int64 {
			h0, m0 := tensor.PoolStats()
			nn.ZeroGrads(m)
			root := loss()
			if grads, scratch := autodiff.Retained(root); grads != 0 {
				t.Fatalf("%d gradients before Backward (%d scratch holders)", grads, scratch)
			}
			autodiff.Backward(root)
			if grads, scratch := autodiff.Retained(root); grads != 0 || scratch != 0 {
				t.Fatalf("after Backward %d interior nodes still hold a gradient and %d hold scratch", grads, scratch)
			}
			for _, p := range m.Params() {
				if p.Node.RequiresGrad() && p.Node.Grad == nil {
					t.Fatalf("parameter %s has no gradient", p.Name)
				}
			}
			autodiff.Release(root)
			autodiff.Release(root)
			h1, m1 := tensor.PoolStats()
			return (h1 - h0) + (m1 - m0)
		}
		first, second := gets(), gets()
		if first != second {
			t.Fatalf("pool requests per step drifted: %d then %d", first, second)
		}
		// A buffer put back twice would now be handed out twice.
		a, b := tensor.Get(4, 3, 8, 8), tensor.Get(4, 3, 8, 8)
		if &a.Data[0] == &b.Data[0] {
			t.Fatal("double Release returned a buffer to the pool twice")
		}
		tensor.Put(a)
		tensor.Put(b)
	}

	for _, name := range CVModelNames() {
		t.Run(name, func(t *testing.T) {
			m, err := BuildCV(name, tensor.NewRNG(6), cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, m, func() *autodiff.Node {
				return autodiff.SoftmaxCrossEntropy(m.Forward(autodiff.Constant(x)), labels)
			})
		})
	}
	t.Run("transformer-lm", func(t *testing.T) {
		lm := NewTransformerLM(tensor.NewRNG(8), TransformerLMConfig{Vocab: 20, D: 8, Heads: 2, FF: 16, Layers: 2, MaxT: 8, Dropout: 0.1})
		ids := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
		targets := []int{2, 3, 4, 5, 6, 7, 8, 9}
		check(t, lm, func() *autodiff.Node {
			return autodiff.SoftmaxCrossEntropy(lm.ForwardIDs(ids), targets)
		})
	})
}

// TestBuildForLoadIsANormalBuildOnceLoaded: a model built on a
// tensor.RNG.ForLoad stream draws no weights, and once the state of a
// normally built twin is loaded it cannot be told from that twin — the same
// state dict, the same dropout-stream cursors, and a training step (loss and
// every gradient, dropout live) bit for bit the twin's. Every zoo model, the
// text classifier, and a language model with Dropout > 0.
func TestBuildForLoadIsANormalBuildOnceLoaded(t *testing.T) {
	cfg := CVConfig{InC: 3, InH: 8, InW: 8, Classes: 4}
	x := tensor.New(4, 3, 8, 8)
	tensor.NewRNG(5).FillUniform(x, 0.5, 1.5)
	labels := []int{0, 1, 2, 3}
	ids := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}

	type model interface{ Params() []nn.Param }
	check := func(t *testing.T, build func(rng *tensor.RNG) model, loss func(m model) *autodiff.Node) {
		t.Helper()
		normal, loaded := build(tensor.NewRNG(6)), build(tensor.NewRNG(6).ForLoad(true))
		drawn := 0
		for _, p := range loaded.Params() {
			// Batch norm's γ = 1 and running variance = 1 are constants, not draws.
			if v := p.Node.Val; !v.Equal(tensor.New(v.Shape()...)) && !v.Equal(tensor.Ones(v.Shape()...)) {
				drawn++
			}
		}
		if drawn != 0 {
			t.Fatalf("%d parameters of the model built for load were drawn", drawn)
		}
		if err := nn.LoadStateDict(loaded, nn.StateDict(normal)); err != nil {
			t.Fatal(err)
		}
		step := func(m model) map[string]*tensor.Tensor {
			nn.ZeroGrads(m)
			root := loss(m)
			out := map[string]*tensor.Tensor{"loss": root.Val.Clone()}
			autodiff.Backward(root)
			for _, p := range m.Params() {
				if p.Node.Grad != nil {
					out["grad "+p.Name] = p.Node.Grad.Clone()
				}
			}
			autodiff.Release(root)
			for name, v := range nn.StateDict(m) { // running statistics moved too
				out[name] = v
			}
			return out
		}
		for round := 0; round < 2; round++ { // the second step draws fresh dropout masks
			ns, err1 := nn.RNGStates(normal)
			ls, err2 := nn.RNGStates(loaded)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(ns, ls) {
				t.Fatalf("round %d: dropout-stream cursors differ (%v, %v)", round, err1, err2)
			}
			want, got := step(normal), step(loaded)
			if len(got) != len(want) {
				t.Fatalf("round %d: %d results, want %d", round, len(got), len(want))
			}
			for name, w := range want {
				if g, ok := got[name]; !ok || !g.Equal(w) {
					t.Fatalf("round %d: %s differs from the normally built model's", round, name)
				}
			}
		}
	}

	for _, name := range CVModelNames() {
		t.Run(name, func(t *testing.T) {
			check(t, func(rng *tensor.RNG) model {
				m, err := BuildCV(name, rng, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}, func(m model) *autodiff.Node {
				return autodiff.SoftmaxCrossEntropy(m.(CVModel).Forward(autodiff.Constant(x)), labels)
			})
		})
	}
	t.Run("text-classifier", func(t *testing.T) {
		check(t, func(rng *tensor.RNG) model { return NewTextClassifier(rng, 20, 6, 2) },
			func(m model) *autodiff.Node {
				return autodiff.SoftmaxCrossEntropy(m.(*TextClassifier).ForwardIDs(ids), []int{0, 1})
			})
	})
	t.Run("transformer-lm", func(t *testing.T) {
		lmCfg := TransformerLMConfig{Vocab: 20, D: 8, Heads: 2, FF: 16, Layers: 2, MaxT: 8, Dropout: 0.3}
		check(t, func(rng *tensor.RNG) model { return NewTransformerLM(rng, lmCfg) },
			func(m model) *autodiff.Node {
				return autodiff.SoftmaxCrossEntropy(m.(*TransformerLM).ForwardIDs(ids), []int{2, 3, 4, 5, 6, 7, 8, 9})
			})
	})
}
