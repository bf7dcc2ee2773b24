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
	// this package does not know.
	ErrUnknownKind = errors.New("optim: unknown kind")
	// ErrBadSpec marks a spec whose kind is known but whose
	// hyperparameters are out of range.
	ErrBadSpec = errors.New("optim: invalid spec")
)

// OptimSpec is a wire-portable optimiser recipe: an optimiser kind plus the
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

// Validate checks the spec against the kinds table without building it —
// the admission-time check servers run before accepting a job.
func (s OptimSpec) Validate() error {
	k, ok := kinds[s.Kind]
	if !ok {
		return fmt.Errorf("optim: optimiser kind %q: %w", s.Kind, ErrUnknownKind)
	}
	if s.LR < 0 || s.Momentum < 0 || s.WeightDecay < 0 || s.Eps < 0 {
		return fmt.Errorf("optim: negative hyperparameter in %s spec: %w", k.name, ErrBadSpec)
	}
	if s.Beta1 < 0 || s.Beta1 >= 1 || s.Beta2 < 0 || s.Beta2 >= 1 {
		return fmt.Errorf("optim: adam betas must lie in [0, 1): %w", ErrBadSpec)
	}
	return nil
}

// Build constructs the optimiser a spec names over the given parameters.
// Unknown kinds fail with ErrUnknownKind, out-of-range hyperparameters
// with ErrBadSpec.
func Build(spec OptimSpec, params []nn.Param) (*Optimizer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newOptimizer(spec, params), nil
}

// BuffersPerParam is how many buffers per parameter the optimiser a spec
// builds keeps once it has stepped: Adam's two moments, SGD's velocity
// when it has momentum. Zero for a kind Build does not know.
func (s OptimSpec) BuffersPerParam() int {
	k, ok := kinds[s.Kind]
	if !ok {
		return 0
	}
	return len(k.slots(s))
}
