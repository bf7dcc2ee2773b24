package optim

import (
	"math"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// TestAdamStateDictResumeBitIdentical pins the generalized-state contract
// for Adam: save m, v, and the bias-correction step counter after k
// steps, load them into a fresh optimiser over an identically-positioned
// model, and the continued trajectories coincide bit-for-bit.
func TestAdamStateDictResumeBitIdentical(t *testing.T) {
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
	oa := NewAdam(la.Params(), 0.05)
	for i := 0; i < 10; i++ {
		step(la, oa, xa)
	}

	// Split run: 5 steps, serialise weights+moments+step, rebuild, 5 more.
	lb, xb := build()
	ob := NewAdam(lb.Params(), 0.05)
	for i := 0; i < 5; i++ {
		step(lb, ob, xb)
	}
	weights := nn.StateDict(lb)
	st := ob.StateDict()
	if st.NumBuffers() == 0 || st.Step != 5 {
		t.Fatalf("adam state after 5 steps: %d buffers, step %d; want buffers and step 5", st.NumBuffers(), st.Step)
	}
	if st.Kind != KindAdam {
		t.Fatalf("adam state kind = %q, want %q", st.Kind, KindAdam)
	}

	lc, xc := build()
	if err := nn.LoadStateDict(lc, weights); err != nil {
		t.Fatal(err)
	}
	oc := NewAdam(lc.Params(), 0.05)
	if err := oc.LoadStateDict(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		step(lc, oc, xc)
	}

	da, dc := nn.StateDict(la), nn.StateDict(lc)
	for name, src := range da {
		if !dc[name].Equal(src) {
			t.Fatalf("resumed adam diverged at %q", name)
		}
	}

	// Dropping the step counter must change the trajectory — the bias
	// correction depends on it, so a resume that forgets it is not a
	// resume. This keeps the test non-vacuous.
	ld, xd := build()
	if err := nn.LoadStateDict(ld, weights); err != nil {
		t.Fatal(err)
	}
	od := NewAdam(ld.Params(), 0.05)
	forgot := &State{Kind: KindAdam, Step: 0, LR: st.LR, Buffers: st.Buffers}
	// Step 0 with buffers present is not Empty, so the load proceeds.
	if err := od.LoadStateDict(forgot); err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("resume without the step counter matched the straight run; the counter pin is vacuous")
	}
}

// TestAdamLoadStateDictRejectsForeignState pins the validation guards:
// wrong kind, unprefixed buffers, unknown parameters, mis-shaped buffers,
// and unpaired moments all fail before any state is touched.
func TestAdamLoadStateDictRejectsForeignState(t *testing.T) {
	l := nn.NewLinear(tensor.NewRNG(1), 4, 2)
	wName := l.Params()[0].Name
	w := tensor.New(4, 2)
	cases := map[string]*State{
		"sgd state into adam": {Kind: KindSGD, Buffers: map[string]*tensor.Tensor{wName: tensor.New(4, 2)}},
		"state with no kind":  {Buffers: map[string]*tensor.Tensor{wName: tensor.New(4, 2)}},
		"unprefixed buffer":   {Kind: KindAdam, Step: 1, Buffers: map[string]*tensor.Tensor{wName: w}},
		"unknown moment slot": {Kind: KindAdam, Step: 1, Buffers: map[string]*tensor.Tensor{"q/" + wName: w}},
		"unknown parameter":   {Kind: KindAdam, Step: 1, Buffers: map[string]*tensor.Tensor{"m/nope": w, "v/nope": w}},
		"mis-shaped buffer":   {Kind: KindAdam, Step: 1, Buffers: map[string]*tensor.Tensor{"m/" + wName: tensor.New(1), "v/" + wName: tensor.New(1)}},
		"unpaired moment":     {Kind: KindAdam, Step: 1, Buffers: map[string]*tensor.Tensor{"m/" + wName: tensor.New(4, 2)}},
		"negative step counter": {Kind: KindAdam, Step: -1, Buffers: map[string]*tensor.Tensor{
			"m/" + wName: tensor.New(4, 2), "v/" + wName: tensor.New(4, 2)}},
	}
	for name, st := range cases {
		o := NewAdam(l.Params(), 0.05)
		if err := o.LoadStateDict(st); err == nil {
			t.Errorf("%s: load unexpectedly succeeded", name)
		}
		if o.step != 0 || o.StateDict() != nil {
			t.Errorf("%s: failed load mutated optimiser state", name)
		}
	}
}

// TestAdamWDecoupledDecay pins the AdamW semantics the dead weightDecay
// field now carries: with a zero gradient the decay shrinks weights
// geometrically (w ← w·(1 − lr·λ) each step) and never enters the moment
// buffers — the decoupling that distinguishes AdamW from L2-coupled Adam.
func TestAdamWDecoupledDecay(t *testing.T) {
	w := autodiff.Leaf(tensor.FromSlice([]float32{1}, 1))
	params := []nn.Param{{Name: "w", Node: w}}
	o := newOptimizer(OptimSpec{Kind: KindAdam, LR: 0.1, WeightDecay: 0.5}, params)
	// Allocate a zero gradient so Step doesn't skip the parameter.
	autodiff.Backward(autodiff.Mean(autodiff.Scale(w, 0)))
	w.ZeroGrad()
	shrink := float32(1 - 0.1*0.5)
	want := float32(1)
	for i := 0; i < 3; i++ {
		o.Step()
		want *= shrink
		if got := w.Val.Data[0]; got != want {
			t.Fatalf("step %d: w = %v, want %v (pure geometric decay)", i+1, got, want)
		}
	}
	// Decoupling: the moments never saw the decay term. Coupled L2 would
	// have fed λ·w through m and v; decoupled decay leaves them zero.
	st := o.StateDict()
	for name, buf := range st.Buffers {
		for _, v := range buf.Data {
			if v != 0 {
				t.Fatalf("moment buffer %q is non-zero (%v): decay leaked into the adaptive moments", name, v)
			}
		}
	}
}

// TestAdamStepAllocsOnlyOnFirstTouch pins the vectorised update loop's
// allocation behaviour: moment buffers are allocated the first time a
// parameter is stepped, and steady-state steps allocate nothing.
func TestAdamStepAllocsOnlyOnFirstTouch(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := nn.NewLinear(rng, 32, 16)
	o := newOptimizer(OptimSpec{Kind: KindAdam, LR: 0.01, WeightDecay: 0.1}, l.Params())
	x := tensor.New(4, 32)
	rng.FillNormal(x, 0, 1)
	nn.ZeroGrads(l)
	logits := l.Forward(autodiff.Constant(x))
	autodiff.Backward(autodiff.SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3}))
	o.Step() // first touch: allocates m and v
	if allocs := testing.AllocsPerRun(100, o.Step); allocs != 0 {
		t.Fatalf("steady-state Adam.Step allocates %v times per run, want 0", allocs)
	}
}

// TestAdamStepMatchesScalarReference cross-checks the hoisted float32
// update against a direct per-element transcription of the Adam formulas,
// pinning that vectorisation did not change a single bit.
func TestAdamStepMatchesScalarReference(t *testing.T) {
	run := func(step func(a *Optimizer, g, w, m, v []float32)) []float32 {
		rng := tensor.NewRNG(7)
		l := nn.NewLinear(rng, 8, 4)
		x := tensor.New(4, 8)
		rng.FillNormal(x, 0, 1)
		a := newOptimizer(OptimSpec{Kind: KindAdam, LR: 0.02, WeightDecay: 0.3}, l.Params())
		for i := 0; i < 6; i++ {
			nn.ZeroGrads(l)
			logits := l.Forward(autodiff.Constant(x))
			autodiff.Backward(autodiff.SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3}))
			if step != nil {
				a.step++
				for j, p := range a.params {
					if p.Node.Grad == nil {
						continue
					}
					step(a, p.Node.Grad.Data, p.Node.Val.Data, a.buffer(0, j), a.buffer(1, j))
				}
			} else {
				a.Step()
			}
		}
		return l.W.Val.Data
	}
	// The pre-vectorisation shape: every conversion done per element.
	scalar := func(a *Optimizer, g, w, m, v []float32) {
		s := a.spec
		bc1 := 1 - math.Pow(s.Beta1, float64(a.step))
		bc2 := 1 - math.Pow(s.Beta2, float64(a.step))
		lr := s.LR * math.Sqrt(bc2) / bc1
		for i := range w {
			w[i] -= float32(s.LR*s.WeightDecay) * w[i]
		}
		for i := range w {
			gi := g[i]
			m[i] = float32(s.Beta1)*m[i] + (1-float32(s.Beta1))*gi
			v[i] = float32(s.Beta2)*v[i] + (1-float32(s.Beta2))*gi*gi
			w[i] -= float32(lr) * m[i] / (float32(math.Sqrt(float64(v[i]))) + float32(s.Eps))
		}
	}
	got, want := run(nil), run(scalar)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vectorised Adam diverged from scalar reference at element %d: %v vs %v", i, got[i], want[i])
		}
	}
}
