package models

import (
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
