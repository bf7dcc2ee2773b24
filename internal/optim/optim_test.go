package optim

import (
	"math"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// quadratic builds a single-parameter problem: minimise (w - target)².
func quadratic(t *testing.T, opt func(params []nn.Param) *Optimizer, steps int) float64 {
	t.Helper()
	w := autodiff.Leaf(tensor.FromSlice([]float32{5}, 1))
	params := []nn.Param{{Name: "w", Node: w}}
	o := opt(params)
	target := tensor.FromSlice([]float32{2}, 1)
	for i := 0; i < steps; i++ {
		w.ZeroGrad()
		loss := autodiff.MSE(autodiff.Scale(w, 1), target)
		autodiff.Backward(loss)
		o.Step()
	}
	return math.Abs(float64(w.Val.Data[0]) - 2)
}

func TestSGDConverges(t *testing.T) {
	gap := quadratic(t, func(p []nn.Param) *Optimizer { return NewSGD(p, 0.1, 0, 0) }, 100)
	if gap > 1e-3 {
		t.Fatalf("SGD did not converge, gap %v", gap)
	}
}

func TestSGDMomentumConvergesFasterThanPlain(t *testing.T) {
	plain := quadratic(t, func(p []nn.Param) *Optimizer { return NewSGD(p, 0.02, 0, 0) }, 40)
	mom := quadratic(t, func(p []nn.Param) *Optimizer { return NewSGD(p, 0.02, 0.9, 0) }, 40)
	if mom >= plain {
		t.Fatalf("momentum (%v) should beat plain SGD (%v) on a quadratic", mom, plain)
	}
}

func TestAdamConverges(t *testing.T) {
	gap := quadratic(t, func(p []nn.Param) *Optimizer { return NewAdam(p, 0.3) }, 200)
	if gap > 1e-2 {
		t.Fatalf("Adam did not converge, gap %v", gap)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	w := autodiff.Leaf(tensor.FromSlice([]float32{1}, 1))
	params := []nn.Param{{Name: "w", Node: w}}
	o := NewSGD(params, 0.1, 0, 0.5)
	// Zero gradient (but allocated): only decay acts.
	// One step: w ← w − lr·λ·w = 1 − 0.05.
	autodiff.Backward(autodiff.Mean(autodiff.Scale(w, 0)))
	w.ZeroGrad()
	o.Step()
	if got := w.Val.Data[0]; math.Abs(float64(got)-0.95) > 1e-6 {
		t.Fatalf("weight decay step = %v, want 0.95", got)
	}
}

func TestStepIgnoresNilGrads(t *testing.T) {
	w := autodiff.Leaf(tensor.FromSlice([]float32{1}, 1))
	params := []nn.Param{{Name: "w", Node: w}}
	NewSGD(params, 0.1, 0.9, 0).Step() // must not panic
	NewAdam(params, 0.1).Step()
	if w.Val.Data[0] != 1 {
		t.Fatal("step without grads should not move weights")
	}
}

func TestStepLRSchedule(t *testing.T) {
	sched := ScheduleSpec{Kind: SchedStep, StepSize: 2, Gamma: 0.1}
	want := []float64{1, 1, 0.1, 0.1, 0.01}
	for e := range want {
		if lr := sched.Rate(1.0, e); math.Abs(lr-want[e]) > 1e-12 {
			t.Fatalf("step epoch %d lr = %v, want %v", e, lr, want[e])
		}
	}
}

func TestSGDDeterministicAcrossRuns(t *testing.T) {
	run := func() float32 {
		rng := tensor.NewRNG(1)
		l := nn.NewLinear(rng, 4, 2)
		o := NewSGD(l.Params(), 0.05, 0.9, 1e-4)
		x := tensor.New(3, 4)
		rng.FillNormal(x, 0, 1)
		labels := []int{0, 1, 0}
		for i := 0; i < 10; i++ {
			nn.ZeroGrads(l)
			logits := l.Forward(autodiff.Constant(x))
			autodiff.Backward(autodiff.SoftmaxCrossEntropy(logits, labels))
			o.Step()
		}
		return l.W.Val.Data[0]
	}
	if run() != run() {
		t.Fatal("training is not deterministic")
	}
}

// TestSGDStateDictResumeBitIdentical pins the momentum-checkpoint
// contract at the optimiser level: save the velocity after k steps, load
// it into a fresh optimiser over an identically-positioned model, and
// the continued trajectories coincide bit-for-bit.
func TestSGDStateDictResumeBitIdentical(t *testing.T) {
	build := func() (*nn.Linear, *tensor.Tensor) {
		rng := tensor.NewRNG(1)
		l := nn.NewLinear(rng, 4, 2)
		x := tensor.New(3, 4)
		rng.FillNormal(x, 0, 1)
		return l, x
	}
	step := func(l *nn.Linear, o *Optimizer, x *tensor.Tensor) {
		nn.ZeroGrads(l)
		logits := l.Forward(autodiff.Constant(x))
		autodiff.Backward(autodiff.SoftmaxCrossEntropy(logits, []int{0, 1, 0}))
		o.Step()
	}

	// Straight run: 10 steps.
	la, xa := build()
	oa := NewSGD(la.Params(), 0.05, 0.9, 1e-4)
	for i := 0; i < 10; i++ {
		step(la, oa, xa)
	}

	// Split run: 5 steps, serialise weights+velocity, rebuild, 5 more.
	lb, xb := build()
	ob := NewSGD(lb.Params(), 0.05, 0.9, 1e-4)
	for i := 0; i < 5; i++ {
		step(lb, ob, xb)
	}
	weights := nn.StateDict(lb)
	vel := ob.StateDict()
	if vel.NumBuffers() == 0 {
		t.Fatal("momentum run produced no velocity state")
	}
	if vel.Kind != KindSGD || vel.Step != 0 {
		t.Fatalf("SGD state should be kind %q with step 0, got kind %q step %d", KindSGD, vel.Kind, vel.Step)
	}

	lc, xc := build()
	if err := nn.LoadStateDict(lc, weights); err != nil {
		t.Fatal(err)
	}
	oc := NewSGD(lc.Params(), 0.05, 0.9, 1e-4)
	if err := oc.LoadStateDict(vel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		step(lc, oc, xc)
	}

	da, dc := nn.StateDict(la), nn.StateDict(lc)
	for name, src := range da {
		if !dc[name].Equal(src) {
			t.Fatalf("resumed optimiser diverged at %q", name)
		}
	}

	// Without restoring velocity the trajectories must differ — the
	// regression this API closes.
	ld, xd := build()
	if err := nn.LoadStateDict(ld, weights); err != nil {
		t.Fatal(err)
	}
	od := NewSGD(ld.Params(), 0.05, 0.9, 1e-4)
	for i := 0; i < 5; i++ {
		step(ld, od, xd)
	}
	same := true
	for name, src := range da {
		if !nn.StateDict(ld)[name].Equal(src) {
			same = false
		}
	}
	if same {
		t.Fatal("zero-velocity resume unexpectedly matched the straight run; the test is vacuous")
	}
}

// TestSGDLoadStateDictRejectsForeignState pins the guard that catches a
// checkpoint from a different model or optimiser: a foreign kind, a step
// counter, unknown names and mis-shaped buffers fail without mutating
// existing state. A momentum-free SGD keeps no buffers: it ignores those
// it is given and exports none.
func TestSGDLoadStateDictRejectsForeignState(t *testing.T) {
	l := nn.NewLinear(tensor.NewRNG(1), 4, 2)
	wName := l.Params()[0].Name
	cases := map[string]*State{
		"unknown parameter":     {Kind: KindSGD, Buffers: map[string]*tensor.Tensor{"nope": tensor.New(1)}},
		"mis-shaped buffer":     {Kind: KindSGD, Buffers: map[string]*tensor.Tensor{wName: tensor.New(1, 1)}},
		"adam state into sgd":   {Kind: KindAdam, Step: 3, Buffers: map[string]*tensor.Tensor{"m/" + wName: tensor.New(4, 2)}},
		"step counter":          {Kind: KindSGD, Step: 2, Buffers: map[string]*tensor.Tensor{wName: tensor.New(4, 2)}},
		"negative step counter": {Kind: KindSGD, Step: -1},
		"prefixed buffer":       {Kind: KindSGD, Buffers: map[string]*tensor.Tensor{"m/" + wName: tensor.New(4, 2)}},
	}
	for name, st := range cases {
		o := NewSGD(l.Params(), 0.05, 0.9, 0)
		if err := o.LoadStateDict(st); err == nil {
			t.Errorf("%s: load unexpectedly succeeded", name)
		}
		if o.StateDict() != nil {
			t.Errorf("%s: failed load mutated optimiser state", name)
		}
	}

	plain := NewSGD(l.Params(), 0.05, 0, 0)
	if err := plain.LoadStateDict(&State{Kind: KindSGD, Buffers: map[string]*tensor.Tensor{wName: tensor.New(4, 2)}}); err != nil {
		t.Fatalf("momentum-free SGD refused velocity it should ignore: %v", err)
	}
	nn.ZeroGrads(l)
	autodiff.Backward(autodiff.Mean(autodiff.Scale(l.Forward(autodiff.Constant(tensor.New(1, 4))), 0)))
	plain.Step()
	if st := plain.StateDict(); st != nil {
		t.Fatalf("momentum-free SGD exported %d buffers", st.NumBuffers())
	}
}
