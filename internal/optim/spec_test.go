package optim

import (
	"errors"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

func specParams() []nn.Param {
	w := autodiff.Leaf(tensor.FromSlice([]float32{1}, 1))
	return []nn.Param{{Name: "w", Node: w}}
}

func TestBuildRegistry(t *testing.T) {
	p := specParams()

	// Zero spec reproduces the historical default: plain SGD.
	o, err := Build(OptimSpec{LR: 0.1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind() != KindSGD || o.LR() != 0.1 {
		t.Fatalf("zero-kind spec built %q at lr %v, want sgd at 0.1", o.Kind(), o.LR())
	}

	o, err = Build(OptimSpec{Kind: KindAdam, LR: 0.01, WeightDecay: 0.2}, p)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := o.(*Adam)
	if !ok || a.Kind() != KindAdam {
		t.Fatalf("adam spec built %T", o)
	}
	if a.beta1 != 0.9 || a.beta2 != 0.999 || a.eps != 1e-8 {
		t.Fatalf("adam defaults not applied: β₁=%v β₂=%v ε=%v", a.beta1, a.beta2, a.eps)
	}
	if a.weightDecay != 0.2 {
		t.Fatalf("spec weight decay not threaded: %v", a.weightDecay)
	}

	a = mustBuildAdam(t, OptimSpec{Kind: KindAdam, LR: 0.01, Beta1: 0.8, Beta2: 0.95, Eps: 1e-6}, p)
	if a.beta1 != 0.8 || a.beta2 != 0.95 || a.eps != 1e-6 {
		t.Fatalf("adam overrides not applied: β₁=%v β₂=%v ε=%v", a.beta1, a.beta2, a.eps)
	}
}

func mustBuildAdam(t *testing.T, s OptimSpec, p []nn.Param) *Adam {
	t.Helper()
	o, err := Build(s, p)
	if err != nil {
		t.Fatal(err)
	}
	return o.(*Adam)
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	p := specParams()
	if _, err := Build(OptimSpec{Kind: "lamb", LR: 0.1}, p); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: got %v, want ErrUnknownKind", err)
	}
	bad := []OptimSpec{
		{LR: -1},
		{Kind: KindSGD, LR: 0.1, Momentum: -0.5},
		{Kind: KindAdam, LR: 0.1, Beta1: 1.5},
		{Kind: KindAdam, LR: 0.1, Beta2: -0.1},
		{Kind: KindAdam, LR: 0.1, Eps: -1e-8},
		{Kind: KindAdam, LR: 0.1, WeightDecay: -0.1},
	}
	for _, s := range bad {
		if _, err := Build(s, p); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %+v: got %v, want ErrBadSpec", s, err)
		}
	}
}

func TestScheduleSpecValidate(t *testing.T) {
	if err := (ScheduleSpec{Kind: "poly", Period: 3}).Validate(); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown schedule kind: got %v, want ErrUnknownKind", err)
	}
	bad := []ScheduleSpec{
		{Kind: SchedStep},                          // step_size 0
		{Kind: SchedStep, StepSize: 2},             // gamma 0
		{Kind: SchedStep, StepSize: -1, Gamma: .5}, // negative step_size
		{Kind: SchedCosine},                        // period 0
		{Kind: SchedCosine, Period: 4, MinLR: -1},  // negative floor
	}
	for _, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %+v: got %v, want ErrBadSpec", s, err)
		}
	}
	good := []ScheduleSpec{
		{Kind: SchedStep, StepSize: 1, Gamma: 0.5},
		{Kind: SchedCosine, Period: 1},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v: unexpected %v", s, err)
		}
	}
}

// TestBuildScheduleKinds pins Rate's dispatch: each kind Validate accepts
// starts at the base rate and follows its own rule, whatever the other
// kind's fields hold.
func TestBuildScheduleKinds(t *testing.T) {
	step := ScheduleSpec{Kind: SchedStep, StepSize: 2, Gamma: 0.5, Period: 1}
	cosine := ScheduleSpec{Kind: SchedCosine, Period: 2, StepSize: 1, Gamma: 0.5}
	for _, s := range []ScheduleSpec{step, cosine} {
		if err := s.Validate(); err != nil || s.Rate(1, 0) != 1 {
			t.Fatalf("%s: Validate %v, Rate(1, 0) = %v, want nil and 1", s.Kind, err, s.Rate(1, 0))
		}
	}
	if got := step.Rate(1, 3); got != 0.5 {
		t.Fatalf("step rate after 3 epochs = %v, want one halving", got)
	}
	if got := cosine.Rate(1, 3); got != 0 {
		t.Fatalf("cosine rate past its period = %v, want MinLR 0", got)
	}
}
