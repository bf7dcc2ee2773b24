package optim

import (
	"errors"
	"fmt"

	"amalgam/internal/nn"
)

// Spec-validation sentinels. cloudsim maps these onto its protocol
// taxonomy (ErrUnknownOptimizer / ErrBadRequest) at the wire boundary.
var (
	// ErrUnknownKind marks a spec naming an optimiser or schedule kind
	// absent from the registry.
	ErrUnknownKind = errors.New("optim: unknown kind")
	// ErrBadSpec marks a spec whose kind is known but whose
	// hyperparameters are out of range.
	ErrBadSpec = errors.New("optim: invalid spec")
)

// OptimSpec is a wire-portable optimiser recipe: a registry kind plus the
// hyperparameters to build it with. It is what jobs carry instead of
// optimiser choice living in the provider's source code. Zero-valued
// fields mean "use the kind's default" (Adam's betas/eps) or "inherit"
// (LR inherits the job's Hyper.LR when zero).
type OptimSpec struct {
	// Kind names the optimiser family (KindSGD, KindAdam). Empty selects
	// KindSGD.
	Kind string `json:"kind,omitempty"`
	// LR is the base learning rate; zero inherits the enclosing job's LR.
	LR float64 `json:"lr,omitempty"`
	// Momentum is SGD's momentum coefficient µ. Ignored by Adam.
	Momentum float64 `json:"momentum,omitempty"`
	// WeightDecay is λ: L2 (coupled) for SGD, decoupled for Adam.
	WeightDecay float64 `json:"weight_decay,omitempty"`
	// Beta1, Beta2, Eps are Adam's moment coefficients and denominator
	// fuzz; zero selects the standard 0.9 / 0.999 / 1e-8.
	Beta1 float64 `json:"beta1,omitempty"`
	Beta2 float64 `json:"beta2,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
}

// builders is the optimiser registry: one constructor per kind, closed
// over nothing, so Build stays a pure function of (spec, params).
var builders = map[string]func(OptimSpec, []nn.Param) Optimizer{
	KindSGD:  buildSGD,
	KindAdam: buildAdam,
}

func buildSGD(s OptimSpec, params []nn.Param) Optimizer {
	return NewSGD(params, s.LR, s.Momentum, s.WeightDecay)
}

func buildAdam(s OptimSpec, params []nn.Param) Optimizer {
	a := NewAdamW(params, s.LR, s.WeightDecay)
	if s.Beta1 != 0 {
		a.beta1 = s.Beta1
	}
	if s.Beta2 != 0 {
		a.beta2 = s.Beta2
	}
	if s.Eps != 0 {
		a.eps = s.Eps
	}
	return a
}

func (s OptimSpec) kindOrDefault() string {
	if s.Kind == "" {
		return KindSGD
	}
	return s.Kind
}

// Validate checks the spec against the registry without building it —
// the admission-time check servers run before accepting a job.
func (s OptimSpec) Validate() error {
	if _, ok := builders[s.kindOrDefault()]; !ok {
		return fmt.Errorf("optim: optimiser kind %q: %w", s.Kind, ErrUnknownKind)
	}
	if s.LR < 0 || s.Momentum < 0 || s.WeightDecay < 0 || s.Eps < 0 {
		return fmt.Errorf("optim: negative hyperparameter in %s spec: %w", s.kindOrDefault(), ErrBadSpec)
	}
	if s.Beta1 < 0 || s.Beta1 >= 1 || s.Beta2 < 0 || s.Beta2 >= 1 {
		return fmt.Errorf("optim: adam betas must lie in [0, 1): %w", ErrBadSpec)
	}
	return nil
}

// Build constructs the optimiser a spec names over the given parameters.
// Unknown kinds fail with ErrUnknownKind, out-of-range hyperparameters
// with ErrBadSpec.
func Build(spec OptimSpec, params []nn.Param) (Optimizer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return builders[spec.kindOrDefault()](spec, params), nil
}
