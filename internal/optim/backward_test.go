package optim

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// stepModel is a small training problem for the fused-step tests: its
// parameters and the loss of step s (0, 1, 2), rebuilt from the same seed
// for each arm.
type stepModel struct {
	params []nn.Param
	loss   func(s int) *autodiff.Node
}

// stepModels are the graphs the fused step must get right: a buffer
// reused between same-shape parameters, a parameter with two consumers, a
// parameter the walk stops reaching, gradients carried in from an earlier
// Backward, components updated side by side, and a component reading
// another's activation through Detach.
var stepModels = []struct {
	name  string
	build func() stepModel
}{
	// Two same-shape Linears in a row: one weight's freed gradient buffer
	// is the next one's, so it must be cleared or wholly overwritten.
	{"same-shape-linears", func() stepModel {
		rng := tensor.NewRNG(1)
		l1, l2 := nn.NewLinear(rng, 8, 8), nn.NewLinear(rng, 8, 8)
		x := constInput(rng, 4, 8)
		return stepModel{
			params: append(nn.PrefixParams("l1", l1.Params()), nn.PrefixParams("l2", l2.Params())...),
			loss: func(int) *autodiff.Node {
				return autodiff.SoftmaxCrossEntropy(l2.Forward(l1.ForwardAct(x, tensor.ActReLU)), []int{0, 1, 2, 3})
			},
		}
	}},
	// One Linear applied twice: its gradient is final only after both
	// applications' backwards, and the first of them reads its weights.
	{"shared-weights", func() stepModel {
		rng := tensor.NewRNG(5)
		l := nn.NewLinear(rng, 8, 8)
		x := constInput(rng, 4, 8)
		return stepModel{
			params: l.Params(),
			loss: func(int) *autodiff.Node {
				return autodiff.SoftmaxCrossEntropy(l.Forward(l.ForwardAct(x, tensor.ActReLU)), []int{4, 5, 6, 7})
			},
		}
	}},
	// head is reached in step 0 only: steps 1 and 2 give it the update
	// of a zero gradient.
	{"reached-then-not", func() stepModel {
		rng := tensor.NewRNG(2)
		body, head := nn.NewLinear(rng, 6, 4), nn.NewLinear(rng, 4, 4)
		x := constInput(rng, 3, 6)
		return stepModel{
			params: append(nn.PrefixParams("body", body.Params()), nn.PrefixParams("head", head.Params())...),
			loss: func(s int) *autodiff.Node {
				h := body.ForwardAct(x, tensor.ActTanh)
				if s == 0 {
					h = head.Forward(h)
				}
				return autodiff.SoftmaxCrossEntropy(h, []int{0, 1, 2})
			},
		}
	}},
	// Every parameter carries a gradient from an earlier Backward; side is
	// never reached again, so it counts as touched from the start.
	{"carried-gradients", func() stepModel {
		rng := tensor.NewRNG(3)
		main, side := nn.NewLinear(rng, 5, 3), nn.NewLinear(rng, 5, 3)
		x := constInput(rng, 2, 5)
		stale := autodiff.Add(
			autodiff.SoftmaxCrossEntropy(main.Forward(x), []int{2, 0}),
			autodiff.SoftmaxCrossEntropy(side.Forward(x), []int{1, 1}))
		autodiff.Backward(stale)
		autodiff.Release(stale)
		return stepModel{
			params: append(nn.PrefixParams("main", main.Params()), nn.PrefixParams("side", side.Params())...),
			loss: func(int) *autodiff.Node {
				return autodiff.SoftmaxCrossEntropy(main.Forward(x), []int{0, 1})
			},
		}
	}},
	// Three disjoint sub-networks under one root: Backward walks them as
	// parallel components, each updating its own parameters.
	{"components", func() stepModel {
		rng := tensor.NewRNG(4)
		var params []nn.Param
		var nets []*nn.Linear
		for i := range 3 {
			l := nn.NewLinear(rng, 8, 8)
			nets = append(nets, l)
			params = append(params, nn.PrefixParams(fmt.Sprint("net", i), l.Params())...)
		}
		x := constInput(rng, 4, 8)
		return stepModel{
			params: params,
			loss: func(int) *autodiff.Node {
				var losses []*autodiff.Node
				for _, l := range nets {
					losses = append(losses, autodiff.SoftmaxCrossEntropy(l.ForwardAct(x, tensor.ActReLU), []int{3, 2, 1, 0}))
				}
				return autodiff.AddN(losses...)
			},
		}
	}},
	// A decoy reads a residual block's output through Detach of a view, as
	// Amalgam's taps do, from its own component: the fused step hands
	// activations back as it walks and must keep that one.
	{"detached-tap", func() stepModel {
		rng := tensor.NewRNG(6)
		conv1, conv2 := nn.NewConv2dNoBias(rng, 2, 2, 3, 1, 1), nn.NewConv2dNoBias(rng, 2, 2, 3, 1, 1)
		bn := nn.NewBatchNorm2d(2)
		head, decoy := nn.NewLinear(rng, 32, 4), nn.NewLinear(rng, 32, 4)
		x := tensor.New(4, 2, 4, 4)
		rng.FillNormal(x, 0, 1)
		return stepModel{
			params: slices.Concat(nn.PrefixParams("conv1", conv1.Params()), nn.PrefixParams("conv2", conv2.Params()),
				nn.PrefixParams("bn", bn.Params()), nn.PrefixParams("head", head.Params()), nn.PrefixParams("decoy", decoy.Params())),
			loss: func(int) *autodiff.Node {
				c := conv1.Forward(autodiff.Constant(x))
				h := autodiff.Flatten(bn.ForwardResidual(conv2.Forward(c), c, tensor.ActReLU))
				labels := []int{0, 1, 2, 3}
				return autodiff.AddN(autodiff.SoftmaxCrossEntropy(head.Forward(h), labels),
					autodiff.SoftmaxCrossEntropy(decoy.ForwardAct(autodiff.Detach(h), tensor.ActTanh), labels))
			},
		}
	}},
}

// stepSpecs are the optimisers the fused step must reproduce.
var stepSpecs = []struct {
	name string
	spec OptimSpec
}{
	{"sgd-decay", OptimSpec{Kind: KindSGD, LR: 0.1, WeightDecay: 0.01}},
	{"sgd-momentum", OptimSpec{Kind: KindSGD, LR: 0.1, Momentum: 0.9, WeightDecay: 0.001}},
	{"adam", OptimSpec{Kind: KindAdam, LR: 0.01}},
	{"adamw", OptimSpec{Kind: KindAdam, LR: 0.01, WeightDecay: 0.1}},
}

func constInput(rng *tensor.RNG, n, d int) *autodiff.Node {
	x := tensor.New(n, d)
	rng.FillNormal(x, 0, 1)
	return autodiff.Constant(x)
}

// TestStepInBackwardMatchesBackwardThenStep trains every model under every
// optimiser for three steps twice — Optimizer.Backward, and ZeroGrads →
// autodiff.Backward → Step — and wants the weights and the optimiser state
// equal bit for bit, with no gradient left on any parameter of the fused
// arm. Components run on up to four kernel-pool workers.
func TestStepInBackwardMatchesBackwardThenStep(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(4))
	for _, m := range stepModels {
		for _, sp := range stepSpecs {
			t.Run(m.name+"/"+sp.name, func(t *testing.T) {
				fused, unfused := m.build(), m.build()
				fo, uo := newOptimizer(sp.spec, fused.params), newOptimizer(sp.spec, unfused.params)
				for s := range 3 {
					root := fused.loss(s)
					fo.Backward(root)
					autodiff.Release(root)

					for _, p := range unfused.params {
						p.Node.ZeroGrad()
					}
					root = unfused.loss(s)
					autodiff.Backward(root)
					uo.Step()
					autodiff.Release(root)
				}
				for i, p := range fused.params {
					if p.Node.Grad != nil {
						t.Errorf("%s keeps a gradient after the fused step", p.Name)
					}
					if !p.Node.Val.Equal(unfused.params[i].Node.Val) {
						t.Errorf("%s: fused weights differ from Backward then Step", p.Name)
					}
				}
				equalStates(t, fo.StateDict(), uo.StateDict())
			})
		}
	}
}

// equalStates fails t unless a and b are the same resume state bit for bit.
func equalStates(t *testing.T, a, b *State) {
	t.Helper()
	if a.Empty() || b.Empty() {
		if a.Empty() != b.Empty() {
			t.Fatalf("state empty: fused %v, unfused %v", a.Empty(), b.Empty())
		}
		return
	}
	if a.Kind != b.Kind || a.Step != b.Step {
		t.Fatalf("state %s step %d, want %s step %d", a.Kind, a.Step, b.Kind, b.Step)
	}
	keys := slices.Sorted(maps.Keys(a.Buffers))
	if !slices.Equal(keys, slices.Sorted(maps.Keys(b.Buffers))) {
		t.Fatalf("state buffers %v, want %v", keys, slices.Sorted(maps.Keys(b.Buffers)))
	}
	for _, k := range keys {
		if !a.Buffers[k].Equal(b.Buffers[k]) {
			t.Errorf("state buffer %q differs", k)
		}
	}
}
