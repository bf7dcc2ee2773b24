// Package optim implements the optimisers used by the Amalgam evaluation:
// SGD with momentum/weight decay (Algorithm 1's update rule) and Adam with
// decoupled weight decay. Optimisers operate on named parameter lists from
// the nn package, keyed by name so per-parameter state survives graph
// rebuilds, and capture/restore their full resume state (buffers plus
// scalar counters) as a State, so checkpointed runs of ANY optimiser
// continue bit-identically.
//
// A job carries its training recipe to the cloud service as wire-portable
// specs instead of the recipe living in the provider's source code:
// Build constructs the optimiser an OptimSpec names, ScheduleSpec.Rate is
// the learning rate at an epoch.
package optim

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// Optimiser kinds understood by the registry, the checkpoint format, and
// the wire protocol's optimiser-state frames.
const (
	KindSGD  = "sgd"
	KindAdam = "adam"
)

// Optimizer updates parameters in place from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (callers zero
	// them via nn.ZeroGrads, matching the usual train-loop shape).
	Step()
	// SetLR replaces the learning rate (for schedules).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
	// Kind names the optimiser family (KindSGD, KindAdam) — the tag that
	// travels in specs, checkpoints, and wire frames.
	Kind() string
	// StateDict captures the optimiser's resume state: named buffers plus
	// scalar counters. Nil when there is nothing to resume (no step has
	// touched any buffer yet). The buffers are the LIVE tensors (like
	// nn.StateDict); serialise before stepping again if a frozen snapshot
	// is needed.
	StateDict() *State
	// LoadStateDict restores state captured by StateDict on an optimiser
	// of the same kind over the same parameters, staging and validating
	// every buffer before any state is touched.
	LoadStateDict(st *State) error
}

// State is an optimiser's serialisable resume state — the optimiser
// section of checkpoints, on disk and on the wire alike.
type State struct {
	// Kind is the optimiser family that produced the state (KindSGD,
	// KindAdam); LoadStateDict refuses a state of another kind.
	Kind string
	// Step counts updates applied so far — Adam's bias-correction counter.
	// Always zero for SGD.
	Step int
	// LR is the learning rate at capture time. Informational only: resume
	// paths reconstruct the rate from (spec, epoch) via ScheduleSpec.Rate,
	// never from state, so schedules stay pure functions of the epoch.
	LR float64
	// Buffers holds the named per-parameter tensors: bare parameter names
	// for SGD velocity, "m/<param>" and "v/<param>" moment pairs for Adam.
	Buffers map[string]*tensor.Tensor
}

// NumBuffers reports how many named buffers the state carries (0 for nil).
func (s *State) NumBuffers() int {
	if s == nil {
		return 0
	}
	return len(s.Buffers)
}

// Empty reports whether the state carries nothing to resume: no buffers
// and no step count. Nil is empty.
func (s *State) Empty() bool {
	return s == nil || (s.Step == 0 && len(s.Buffers) == 0)
}

// SGD implements stochastic gradient descent with optional momentum and
// L2 weight decay: v ← µv + (g + λθ); θ ← θ − η·v.
type SGD struct {
	params      []nn.Param
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    map[string]*tensor.Tensor
}

// NewSGD builds an SGD optimiser over the given parameters.
func NewSGD(params []nn.Param, lr, momentum, weightDecay float64) *SGD {
	return &SGD{
		params:      params,
		lr:          lr,
		momentum:    momentum,
		weightDecay: weightDecay,
		velocity:    make(map[string]*tensor.Tensor, len(params)),
	}
}

// Step applies one SGD update.
func (s *SGD) Step() {
	lr := float32(s.lr)
	mu := float32(s.momentum)
	wd := float32(s.weightDecay)
	for _, p := range s.params {
		if p.Node.Grad == nil {
			continue
		}
		g := p.Node.Grad
		w := p.Node.Val
		if s.momentum != 0 {
			v, ok := s.velocity[p.Name]
			if !ok {
				v = tensor.New(w.Shape()...)
				s.velocity[p.Name] = v
			}
			for i := range w.Data {
				gi := g.Data[i] + wd*w.Data[i]
				v.Data[i] = mu*v.Data[i] + gi
				w.Data[i] -= lr * v.Data[i]
			}
		} else {
			for i := range w.Data {
				w.Data[i] -= lr * (g.Data[i] + wd*w.Data[i])
			}
		}
	}
}

// SetLR replaces the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR returns the learning rate.
func (s *SGD) LR() float64 { return s.lr }

// Kind identifies SGD state in specs and checkpoints.
func (s *SGD) Kind() string { return KindSGD }

// StateDict returns the optimiser's resume state — the momentum buffers,
// keyed by bare parameter name. Nil when momentum is disabled or no step
// has run yet.
func (s *SGD) StateDict() *State {
	if len(s.velocity) == 0 {
		return nil
	}
	out := make(map[string]*tensor.Tensor, len(s.velocity))
	for _, p := range s.params {
		if v, ok := s.velocity[p.Name]; ok {
			out[p.Name] = v
		}
	}
	return &State{Kind: KindSGD, LR: s.lr, Buffers: out}
}

// LoadStateDict restores momentum buffers saved by StateDict, so a
// resumed run continues the velocity trajectory instead of restarting it
// from zero (the gap that made checkpoint resume merely convergent, not
// bit-identical, when Momentum > 0). Every buffer must name a parameter
// of this optimiser with a matching shape; an unknown name means the
// checkpoint belongs to a different model (or optimiser) and fails the
// load before any state is touched. A momentum-free optimiser ignores the
// buffers entirely: it would never advance them, and republishing them
// from StateDict would present epochs-stale state as current.
func (s *SGD) LoadStateDict(st *State) error {
	if st.Empty() {
		return nil
	}
	if st.Kind != KindSGD {
		return fmt.Errorf("optim: %q state loaded into an sgd optimiser", st.Kind)
	}
	if st.Step != 0 {
		return fmt.Errorf("optim: sgd has no step counter, state records step %d", st.Step)
	}
	if s.momentum == 0 {
		return nil
	}
	byName := make(map[string]nn.Param, len(s.params))
	for _, p := range s.params {
		byName[p.Name] = p
	}
	staged := make(map[string]*tensor.Tensor, len(st.Buffers))
	for _, name := range slices.Sorted(maps.Keys(st.Buffers)) {
		p, ok := byName[name]
		if !ok {
			return fmt.Errorf("optim: momentum state for unknown parameter %q", name)
		}
		src := st.Buffers[name]
		if !src.SameShape(p.Node.Val) {
			return fmt.Errorf("optim: momentum state shape mismatch for %q: %v vs %v",
				name, src.Shape(), p.Node.Val.Shape())
		}
		v := tensor.New(src.Shape()...)
		v.CopyFrom(src)
		staged[name] = v
	}
	for _, p := range s.params {
		if v, ok := staged[p.Name]; ok {
			s.velocity[p.Name] = v
		}
	}
	return nil
}

var _ Optimizer = (*SGD)(nil)

// Adam implements the Adam optimiser (Kingma & Ba, 2015), with optional
// DECOUPLED weight decay (Loshchilov & Hutter's AdamW): the decay shrinks
// weights directly (θ ← θ − η·λ·θ) instead of entering the adaptive
// moments, so its effective strength is not divided by √v̂.
type Adam struct {
	params       []nn.Param
	lr           float64
	beta1, beta2 float64
	eps          float64
	weightDecay  float64
	step         int
	m, v         map[string]*tensor.Tensor
}

// NewAdam builds an Adam optimiser with the standard β₁=0.9, β₂=0.999.
func NewAdam(params []nn.Param, lr float64) *Adam {
	return &Adam{
		params: params,
		lr:     lr,
		beta1:  0.9, beta2: 0.999, eps: 1e-8,
		m: make(map[string]*tensor.Tensor, len(params)),
		v: make(map[string]*tensor.Tensor, len(params)),
	}
}

// NewAdamW builds an Adam optimiser with decoupled weight decay λ.
func NewAdamW(params []nn.Param, lr, weightDecay float64) *Adam {
	a := NewAdam(params, lr)
	a.weightDecay = weightDecay
	return a
}

// Step applies one Adam update with bias correction. Per-element work
// stays in float32 over raw slices — the conversions and map lookups are
// hoisted out of the inner loop, and steady-state steps allocate only when
// a parameter's moment buffers are first touched.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	lr := float32(a.lr * math.Sqrt(bc2) / bc1)
	b1 := float32(a.beta1)
	b2 := float32(a.beta2)
	eps := float32(a.eps)
	decay := float32(a.lr * a.weightDecay)
	for _, p := range a.params {
		if p.Node.Grad == nil {
			continue
		}
		g := p.Node.Grad.Data
		w := p.Node.Val
		m, ok := a.m[p.Name]
		if !ok {
			m = tensor.New(w.Shape()...)
			a.m[p.Name] = m
			a.v[p.Name] = tensor.New(w.Shape()...)
		}
		md := m.Data
		vd := a.v[p.Name].Data
		wd := w.Data
		if decay != 0 {
			for i := range wd {
				wd[i] -= decay * wd[i]
			}
		}
		for i := range wd {
			gi := g[i]
			mi := b1*md[i] + (1-b1)*gi
			vi := b2*vd[i] + (1-b2)*gi*gi
			md[i] = mi
			vd[i] = vi
			wd[i] -= lr * mi / (float32(math.Sqrt(float64(vi))) + eps)
		}
	}
}

// SetLR replaces the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR returns the learning rate.
func (a *Adam) LR() float64 { return a.lr }

// Kind identifies Adam state in specs and checkpoints.
func (a *Adam) Kind() string { return KindAdam }

// StateDict returns Adam's full resume state: the first/second moment
// buffers as "m/<param>"/"v/<param>" pairs plus the bias-correction step
// counter. Nil before the first step.
func (a *Adam) StateDict() *State {
	if a.step == 0 && len(a.m) == 0 {
		return nil
	}
	buffers := make(map[string]*tensor.Tensor, 2*len(a.m))
	for _, p := range a.params {
		if m, ok := a.m[p.Name]; ok {
			buffers["m/"+p.Name] = m
			buffers["v/"+p.Name] = a.v[p.Name]
		}
	}
	return &State{Kind: KindAdam, Step: a.step, LR: a.lr, Buffers: buffers}
}

// LoadStateDict restores moments and the step counter saved by StateDict.
// Every buffer must be an "m/"- or "v/"-prefixed pair naming a parameter
// of this optimiser with a matching shape, and moments must come in
// complete pairs; anything else means the state belongs to a different
// model or optimiser and fails the load before any state is touched.
func (a *Adam) LoadStateDict(st *State) error {
	if st.Empty() {
		return nil
	}
	if st.Kind != KindAdam {
		return fmt.Errorf("optim: %q state loaded into an adam optimiser", st.Kind)
	}
	if st.Step < 0 {
		return fmt.Errorf("optim: adam step counter must be ≥ 0, state records %d", st.Step)
	}
	byName := make(map[string]nn.Param, len(a.params))
	for _, p := range a.params {
		byName[p.Name] = p
	}
	stagedM := make(map[string]*tensor.Tensor, len(a.params))
	stagedV := make(map[string]*tensor.Tensor, len(a.params))
	for _, name := range slices.Sorted(maps.Keys(st.Buffers)) {
		slot, param, ok := strings.Cut(name, "/")
		if !ok || (slot != "m" && slot != "v") {
			return fmt.Errorf("optim: adam state buffer %q is not an m/ or v/ moment", name)
		}
		p, ok := byName[param]
		if !ok {
			return fmt.Errorf("optim: adam state for unknown parameter %q", param)
		}
		src := st.Buffers[name]
		if !src.SameShape(p.Node.Val) {
			return fmt.Errorf("optim: adam state shape mismatch for %q: %v vs %v",
				name, src.Shape(), p.Node.Val.Shape())
		}
		dst := tensor.New(src.Shape()...)
		dst.CopyFrom(src)
		if slot == "m" {
			stagedM[param] = dst
		} else {
			stagedV[param] = dst
		}
	}
	for _, p := range a.params {
		_, hasM := stagedM[p.Name]
		_, hasV := stagedV[p.Name]
		if hasM != hasV {
			return fmt.Errorf("optim: adam state for %q carries an unpaired moment buffer", p.Name)
		}
	}
	for _, p := range a.params {
		if m, ok := stagedM[p.Name]; ok {
			a.m[p.Name] = m
			a.v[p.Name] = stagedV[p.Name]
		}
	}
	a.step = st.Step
	return nil
}

var _ Optimizer = (*Adam)(nil)
