package optim

import (
	"fmt"
	"math"
)

// Schedule kinds a ScheduleSpec may name.
const (
	SchedStep   = "step"
	SchedCosine = "cosine"
)

// ScheduleSpec is a wire-portable LR-schedule recipe, the counterpart of
// OptimSpec: it holds no state, only what Rate needs.
type ScheduleSpec struct {
	// Kind names the schedule family (SchedStep, SchedCosine).
	Kind string `json:"kind"`
	// StepSize and Gamma parameterise SchedStep: every StepSize completed
	// epochs the rate is multiplied by Gamma.
	StepSize int     `json:"step_size,omitempty"`
	Gamma    float64 `json:"gamma,omitempty"`
	// Period and MinLR parameterise SchedCosine: the rate follows half a
	// cosine from the base rate down to MinLR over Period epochs and
	// stays at MinLR after.
	Period int     `json:"period,omitempty"`
	MinLR  float64 `json:"min_lr,omitempty"`
}

// Validate checks the spec's kind and hyperparameters.
func (s ScheduleSpec) Validate() error {
	switch s.Kind {
	case SchedStep:
		if s.StepSize < 1 {
			return fmt.Errorf("optim: step schedule needs step_size ≥ 1, got %d: %w", s.StepSize, ErrBadSpec)
		}
		if s.Gamma <= 0 {
			return fmt.Errorf("optim: step schedule needs gamma > 0, got %g: %w", s.Gamma, ErrBadSpec)
		}
	case SchedCosine:
		if s.Period < 1 {
			return fmt.Errorf("optim: cosine schedule needs period ≥ 1, got %d: %w", s.Period, ErrBadSpec)
		}
		if s.MinLR < 0 {
			return fmt.Errorf("optim: cosine schedule needs min_lr ≥ 0, got %g: %w", s.MinLR, ErrBadSpec)
		}
	default:
		return fmt.Errorf("optim: schedule kind %q: %w", s.Kind, ErrUnknownKind)
	}
	return nil
}

// Rate is the learning rate a run whose optimiser was built at base trains
// at after epoch completed epochs: base · Gamma^⌊epoch/StepSize⌋ for
// SchedStep; half a cosine from base down to MinLR over Period epochs,
// MinLR from there on, for SchedCosine. A pure function, so a resumed run
// recovers its rate from the checkpoint's epoch counter and no rate is
// ever read back out of saved state. s must have passed Validate.
func (s ScheduleSpec) Rate(base float64, epoch int) float64 {
	if s.Kind == SchedStep {
		return base * math.Pow(s.Gamma, float64(epoch/s.StepSize))
	}
	if epoch >= s.Period {
		return s.MinLR
	}
	frac := float64(epoch) / float64(s.Period)
	return s.MinLR + 0.5*(base-s.MinLR)*(1+math.Cos(math.Pi*frac))
}
