package tensor

import "math"

// KaimingUniform fills t (interpreted as a weight with the given fan-in)
// with the He/Kaiming uniform distribution used by PyTorch's default
// conv/linear initialisation: U(-bound, bound), bound = sqrt(6/fanIn)
// adjusted for a = sqrt(5) leaky slope → bound = sqrt(3/fanIn) * gain where
// gain = sqrt(2/(1+5)) = sqrt(1/3); net effect bound = 1/sqrt(fanIn).
// It is one FillUniform: one draw per element, the same floats as that many
// Uniform calls, split over the kernel pool when t is large. On a stream
// built ForLoad it draws nothing.
func KaimingUniform(rng *RNG, t *Tensor, fanIn int) {
	if rng.forLoad {
		return
	}
	if fanIn <= 0 {
		fanIn = 1
	}
	bound := float32(1.0 / math.Sqrt(float64(fanIn)))
	rng.FillUniform(t, -bound, bound)
}

// NormalInit fills t with N(0, std²) samples, the common initialisation for
// embeddings and transformer weights. It is one FillNormal: the same floats
// as that many Normal(0, std) calls, math/rand/v2's ziggurat on a copy of
// the PCG state, split over the kernel pool when t is large. On a stream
// built ForLoad it draws nothing.
func NormalInit(rng *RNG, t *Tensor, std float64) {
	if rng.forLoad {
		return
	}
	rng.FillNormal(t, 0, std)
}
