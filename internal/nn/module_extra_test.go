package nn

import (
	"bytes"
	"strings"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

// block is a composite the way models write them: Children embedded,
// parts registered once, forward hand-written.
type block struct {
	Children
	attn *MultiHeadAttention // mode-less, listed first
	bn   *BatchNorm2d
	proj *Conv2d // optional, under a dotted name
	drop *Dropout
}

func newBlock(rng *tensor.RNG, withProj bool) *block {
	b := &block{attn: NewMultiHeadAttention(rng.Split(1), 4, 2), bn: NewBatchNorm2d(2), drop: NewDropout(rng.Split(3), 0.5)}
	b.Add("attn", b.attn)
	b.Add("bn", b.bn)
	if withProj {
		b.proj = NewConv2d(rng.Split(2), 2, 2, 1, 1, 0)
		b.Add("down.conv", b.proj)
	}
	b.Add("drop", b.drop)
	return b
}

func paramNames(m interface{ Params() []Param }) []string {
	var out []string
	for _, p := range m.Params() {
		out = append(out, p.Name)
	}
	return out
}

func TestChildrenParamsPrefixedInAddOrder(t *testing.T) {
	want := []string{
		"attn.wq.weight", "attn.wq.bias", "attn.wk.weight", "attn.wk.bias",
		"attn.wv.weight", "attn.wv.bias", "attn.wo.weight", "attn.wo.bias",
		"bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var",
		"down.conv.weight", "down.conv.bias",
	}
	if got := paramNames(newBlock(tensor.NewRNG(1), true)); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("params %v, want %v", got, want)
	}
	if got := paramNames(newBlock(tensor.NewRNG(1), false)); len(got) != len(want)-2 {
		t.Fatalf("an optional child that was never added still contributes params: %v", got)
	}
	// Two Params() calls hand out the same live nodes (ZeroGrads and the
	// optimiser rely on it).
	b := newBlock(tensor.NewRNG(1), true)
	if b.Params()[0].Node != b.Params()[0].Node || b.Params()[0].Node != b.attn.Wq.W {
		t.Fatal("Params must return the live parameter nodes")
	}
}

func TestChildrenModeReachesEveryLayerAndSkipsModeless(t *testing.T) {
	outer := &struct{ Children }{}
	inner := newBlock(tensor.NewRNG(2), true)
	outer.Add("inner", inner)
	if !outer.Training() || !TrainingMode(outer) {
		t.Fatal("layers are built in training mode")
	}
	outer.SetTraining(false)
	if inner.bn.Training() || inner.drop.Training() {
		t.Fatal("SetTraining(false) must reach every batch norm and dropout in the tree")
	}
	// attn is listed first and has no mode of its own: it must not answer
	// "training" for the block.
	if inner.Training() || outer.Training() || TrainingMode(outer) {
		t.Fatal("Training() must skip mode-less subtrees")
	}
	if !inner.attn.Training() || !TrainingMode(NewLinear(tensor.NewRNG(3), 2, 2)) {
		t.Fatal("a mode-less module reports true, the mode every layer is built in")
	}
	outer.SetTraining(true)
	if !inner.bn.Training() || !inner.drop.Training() || !outer.Training() {
		t.Fatal("SetTraining(true) must switch the tree back")
	}

	enc := NewTransformerEncoderLayer(tensor.NewRNG(4), 8, 2, 16, 0.1)
	enc.SetTraining(false)
	if enc.Training() {
		t.Fatal("encoder layer: attention is listed before the dropout and must not answer for it")
	}
}

func TestRNGStatesWalkTheTree(t *testing.T) {
	build := func() (*struct{ Children }, *block) {
		outer, a := &struct{ Children }{}, newBlock(tensor.NewRNG(5), false)
		outer.Add("a", a)
		outer.Add("top", NewDropout(tensor.NewRNG(6), 0.5))
		return outer, a
	}
	m, a := build()
	if s, err := RNGStates(NewLinear(tensor.NewRNG(1), 2, 2)); err != nil || s != nil {
		t.Fatalf("a model without dropout has no streams, got %v, %v", s, err)
	}
	fresh, err := RNGStates(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 2 || fresh["a.drop"] == nil || fresh["top"] == nil {
		t.Fatalf("streams %v, want exactly a.drop and top", fresh)
	}
	// Advance a.drop, capture, and restore into a fresh build: only the
	// stream present in the map moves.
	x := autodiff.Constant(tensor.Ones(64))
	a.drop.Forward(x)
	moved, err := RNGStates(m)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(moved["a.drop"], fresh["a.drop"]) || !bytes.Equal(moved["top"], fresh["top"]) {
		t.Fatal("a forward pass must advance exactly the dropout it ran through")
	}
	m2, _ := build()
	if err := LoadRNGStates(m2, map[string][]byte{"a.drop": moved["a.drop"]}); err != nil {
		t.Fatal(err)
	}
	got, _ := RNGStates(m2)
	if !bytes.Equal(got["a.drop"], moved["a.drop"]) || !bytes.Equal(got["top"], fresh["top"]) {
		t.Fatal("missing entry = untouched, present entry = restored")
	}
	if err := LoadRNGStates(m2, map[string][]byte{"a.bn": moved["a.drop"]}); err == nil || !strings.Contains(err.Error(), "unknown dropout stream") {
		t.Fatalf("a name outside the tree must be rejected, got %v", err)
	}
	if err := LoadRNGStates(m2, map[string][]byte{"top": {1, 2, 3}}); err == nil {
		t.Fatal("undecodable cursor bytes must be rejected")
	}
}

func TestParamByName(t *testing.T) {
	rng := tensor.NewRNG(43)
	l := NewLinear(rng, 3, 2)
	if _, ok := ParamByName(l, "weight"); !ok {
		t.Fatal("weight should be found")
	}
	if _, ok := ParamByName(l, "nonexistent"); ok {
		t.Fatal("nonexistent should not be found")
	}
}

func TestBatchNormStateInParams(t *testing.T) {
	bn := NewBatchNorm2d(3)
	names := map[string]bool{}
	trainable := 0
	for _, p := range bn.Params() {
		names[p.Name] = true
		if p.Node.RequiresGrad() {
			trainable += p.Node.Val.Numel()
		}
	}
	for _, want := range []string{"gamma", "beta", "running_mean", "running_var"} {
		if !names[want] {
			t.Fatalf("BatchNorm state dict missing %q", want)
		}
	}
	if trainable != 6 { // gamma+beta only
		t.Fatalf("trainable params %d, want 6", trainable)
	}
	if NumParams(bn) != 6 {
		t.Fatal("NumParams must exclude running statistics")
	}
}
