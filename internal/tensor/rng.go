package tensor

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source for tensor initialisation, dataset
// synthesis, and noise generation. It wraps math/rand/v2's PCG so streams
// are reproducible across platforms and Go releases.
type RNG struct {
	r       *rand.Rand
	src     *rand.PCG
	forLoad bool // inherited by every stream Split from this one; see ForLoad
}

// NewRNG returns a deterministic generator seeded from seed.
func NewRNG(seed uint64) *RNG {
	src := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{r: rand.New(src), src: src}
}

// MarshalState captures the generator's exact stream position as opaque
// bytes (the underlying PCG cursor). A generator restored with
// UnmarshalState continues the identical draw sequence — the mechanism
// behind checkpointing dropout streams so a resumed run replays randomness
// from the interruption point rather than from the model's build.
func (g *RNG) MarshalState() ([]byte, error) {
	return g.src.MarshalBinary()
}

// UnmarshalState restores a stream position captured by MarshalState.
func (g *RNG) UnmarshalState(b []byte) error {
	return g.src.UnmarshalBinary(b)
}

// Split derives an independent child stream; the parent is unaffected in a
// way that depends only on the call sequence. Useful for giving every layer
// its own stream so that adding layers elsewhere does not perturb
// initialisation (a requirement for Amalgam's exactness property tests).
func (g *RNG) Split(label uint64) *RNG {
	return NewRNG(g.r.Uint64() ^ (label * 0xbf58476d1ce4e5b9)).ForLoad(g.forLoad)
}

// ForLoad marks g (and returns it) as the root of a model built only to be
// loaded: on g and on every stream later Split from it, KaimingUniform and
// NormalInit draw nothing and leave their tensor zero. Every other draw —
// Split itself, so dropout-stream seeds; gather sets; IntN choices — is a
// normal build's, because a constructor that fills weights from a stream
// takes nothing else from it. It is for a caller that overwrites every
// parameter through the strict nn.LoadStateDict in the same function, before
// the model is used: an extractor's fresh model, a server's model under a
// client's init state.
func (g *RNG) ForLoad(on bool) *RNG {
	g.forLoad = on
	return g
}

// Uint64 returns a uniformly random 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// IntN returns a uniform int in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Float32 returns a uniform float32 in [0, 1).
func (g *RNG) Float32() float32 { return g.r.Float32() }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform float32 in [lo, hi).
func (g *RNG) Uniform(lo, hi float32) float32 {
	return lo + (hi-lo)*g.r.Float32()
}

// Normal returns a Gaussian sample with the given mean and std deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Laplace returns a Laplace-distributed sample with location mu and scale b
// via inverse-CDF sampling.
func (g *RNG) Laplace(mu, b float64) float64 {
	u := g.r.Float64() - 0.5
	if u < 0 {
		return mu + b*math.Log(1+2*u)
	}
	return mu - b*math.Log(1-2*u)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomly permutes the slice via the provided swap fn.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// FillUniform fills t with uniform samples in [lo, hi).
func (g *RNG) FillUniform(t *Tensor, lo, hi float32) {
	for i := range t.Data {
		t.Data[i] = g.Uniform(lo, hi)
	}
}

// FillNormal fills t with Gaussian samples.
func (g *RNG) FillNormal(t *Tensor, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(g.Normal(mean, std))
	}
}

// SampleIndices returns k distinct indices drawn uniformly from [0, n),
// in random order. It panics if k > n.
func (g *RNG) SampleIndices(n, k int) []int {
	if k > n {
		panic("tensor: SampleIndices k > n")
	}
	perm := g.Perm(n)
	return perm[:k]
}
