// Package core implements the Amalgam framework itself — the paper's
// contribution: the Dataset Augmenter (§4.1), the NN Model Augmenter
// (§4.2) with its custom skip-convolution and skip-embedding layers
// (Eqs. 1–2), the NN Model Extractor (§4.3), transfer-learning support
// (§4.4), and the privacy/performance-loss analysis (§6.1–6.2).
//
// The central invariant, asserted by this package's property tests: with
// the same seeds and data order, training an augmented model on an
// augmented dataset produces bit-identical weights for the original
// sub-network as training the original model on the original dataset.
package core

import (
	"fmt"

	"amalgam/internal/tensor"
)

// NoiseType selects the distribution used for synthetic noise elements
// (§4.1: random is the default; Gaussian/Laplace selectable via σ; users
// may also provide their own noise pool, e.g. pixels of real images).
type NoiseType int

// Noise types supported by the dataset augmenter.
const (
	NoiseUniform NoiseType = iota + 1
	NoiseGaussian
	NoiseLaplace
	NoiseUser
	// NoiseSmoothInfill is an extension beyond the paper: each inserted
	// pixel is interpolated from its nearest original raster neighbours
	// plus jitter (σ = Sigma). It equalises the smoothness of every
	// sub-network's reconstructed view, mitigating the total-variation
	// identification attack (`amalgam-bench -experiment identify`). Images only.
	NoiseSmoothInfill
)

// String names the noise type.
func (t NoiseType) String() string {
	switch t {
	case NoiseUniform:
		return "uniform"
	case NoiseGaussian:
		return "gaussian"
	case NoiseLaplace:
		return "laplace"
	case NoiseUser:
		return "user"
	case NoiseSmoothInfill:
		return "smooth-infill"
	default:
		return fmt.Sprintf("NoiseType(%d)", int(t))
	}
}

// NoiseSpec configures a noise source.
type NoiseSpec struct {
	Type NoiseType
	// Sigma is the σ of Gaussian/Laplace noise (ignored otherwise).
	Sigma float64
	// Mean is the centre of Gaussian/Laplace noise.
	Mean float64
	// Min/Max bound uniform noise (and clamp the others). For image data
	// use the pixel range [0,1]; for token data [0, vocab).
	Min, Max float64
	// Pool holds user-provided noise values (NoiseUser): pixel values for
	// images or token ids for text, sampled uniformly with replacement.
	Pool []float32
}

// DefaultImageNoise is the paper's default: uniform over the pixel range.
func DefaultImageNoise() NoiseSpec {
	return NoiseSpec{Type: NoiseUniform, Min: 0, Max: 1}
}

// DefaultTextNoise is uniform over the vocabulary.
func DefaultTextNoise(vocab int) NoiseSpec {
	return NoiseSpec{Type: NoiseUniform, Min: 0, Max: float64(vocab)}
}

// Validate reports configuration errors eagerly.
func (s NoiseSpec) Validate() error {
	switch s.Type {
	case NoiseUniform:
		if s.Max <= s.Min {
			return fmt.Errorf("core: uniform noise needs Max > Min, got [%v,%v]", s.Min, s.Max)
		}
	case NoiseGaussian, NoiseLaplace:
		if s.Sigma <= 0 {
			return fmt.Errorf("core: %v noise needs Sigma > 0", s.Type)
		}
	case NoiseUser:
		if len(s.Pool) == 0 {
			return fmt.Errorf("core: user noise needs a non-empty Pool")
		}
	case NoiseSmoothInfill:
		if s.Sigma < 0 {
			return fmt.Errorf("core: smooth-infill jitter Sigma must be ≥ 0")
		}
	default:
		return fmt.Errorf("core: unknown noise type %d", int(s.Type))
	}
	return nil
}

// SmoothInfillNoise returns the identification-attack mitigation noise
// with the given jitter.
func SmoothInfillNoise(sigma float64) NoiseSpec {
	return NoiseSpec{Type: NoiseSmoothInfill, Sigma: sigma, Min: 0, Max: 1}
}

// sampler returns a function drawing one noise value from the spec.
func (s NoiseSpec) sampler(rng *tensor.RNG) func() float32 {
	clamp := func(v float64) float32 {
		if s.Max > s.Min {
			if v < s.Min {
				v = s.Min
			} else if v > s.Max {
				v = s.Max
			}
		}
		return float32(v)
	}
	switch s.Type {
	case NoiseGaussian:
		return func() float32 { return clamp(rng.Normal(s.Mean, s.Sigma)) }
	case NoiseLaplace:
		return func() float32 { return clamp(rng.Laplace(s.Mean, s.Sigma)) }
	case NoiseUser:
		return func() float32 { return s.Pool[rng.IntN(len(s.Pool))] }
	default: // NoiseUniform
		return func() float32 { return float32(s.Min + (s.Max-s.Min)*rng.Float64()) }
	}
}

// sampleToken draws a synthetic token id in [0, vocab).
func (s NoiseSpec) sampleToken(rng *tensor.RNG, vocab int) int {
	switch s.Type {
	case NoiseGaussian:
		v := int(rng.Normal(s.Mean, s.Sigma))
		return clampToken(v, vocab)
	case NoiseLaplace:
		v := int(rng.Laplace(s.Mean, s.Sigma))
		return clampToken(v, vocab)
	case NoiseUser:
		return clampToken(int(s.Pool[rng.IntN(len(s.Pool))]), vocab)
	default:
		return rng.IntN(vocab)
	}
}

func clampToken(v, vocab int) int {
	if v < 0 {
		return 0
	}
	if v >= vocab {
		return vocab - 1
	}
	return v
}
