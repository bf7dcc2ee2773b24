package tensor

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic random source for tensor initialisation, dataset
// synthesis, and noise generation. It wraps math/rand/v2's PCG so streams
// are reproducible across platforms and Go releases. FillUniform and
// FillNormal step a copy of that PCG's state themselves (pcgState: the same
// LCG and DXSM output, constant for constant), and FillNormal runs
// NormFloat64's ziggurat on it (the tables in ziggurat.go), so both are
// pinned to math/rand/v2's algorithms: TestPCGStateIsMathRands,
// TestFillNormalIsNormFloat64Drawn and TestZigguratSlowPaths fail if a Go
// release changes them.
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

// FillUniform fills t with uniform samples in [lo, hi): element i is what
// the (i+1)-th of len(t.Data) Uniform(lo, hi) calls would return, and g ends
// where those calls would leave it. It steps a copy of the PCG state instead
// of calling the source once per element. A fill of more than fillChunk
// elements runs in chunks on the kernel pool, each starting where the stream
// stands at its first element (pcgState.advance). Within a chunk, an AVX2
// host (SIMDEnabled) draws fillLanes elements at a time in
// fillUniformSIMD and the last len%fillLanes in the scalar loop; elsewhere,
// or after SetSIMD(false), the scalar loop draws them all. Like a kernel's,
// the result does not depend on which loop ran, on SetMaxWorkers or on
// where the chunks fall.
func (g *RNG) FillUniform(t *Tensor, lo, hi float32) {
	d := t.Data
	if len(d) == 0 {
		return
	}
	s := pcgStateOf(g.src)
	span := hi - lo
	if chunksFor(len(d), fillChunk) == 1 {
		fillUniform(d, s, lo, span)
	} else {
		parallelFor(len(d), fillChunk, func(start, end int) {
			fillUniform(d[start:end], s.advance(uint64(start)), lo, span)
		})
	}
	end := s.advance(uint64(len(d)))
	g.src.Seed(end.hi, end.lo)
}

// fillChunk bounds the fills' split: a fill of at most fillChunk elements
// (every bias, the smaller convolutions and embeddings) runs on the caller
// with no closure; a larger FillUniform takes at most one chunk per
// fillChunk elements, and a larger FillNormal parses its draws in blocks of
// fillChunk.
const fillChunk = 1 << 16

// fillUniform writes lo + span·Float32() for the draws that follow state s
// into d. With SIMD on, fillUniformSIMD writes the longest prefix that is a
// whole number of fillLanes-draw groups and the loop below the rest; the
// loop alone steps the state once per element. Both write the same bits.
func fillUniform(d []float32, s pcgState, lo, span float32) {
	if n := len(d) &^ (fillLanes - 1); simdAvailable && n > 0 {
		var lanes pcgLanes
		t := s
		for j := 0; j < fillLanes; j++ {
			t = t.next()
			lanes[j&1][0][j>>1], lanes[j&1][1][j>>1] = t.hi, t.hi>>32
			lanes[j&1][2][j>>1], lanes[j&1][3][j>>1] = t.lo, t.lo>>32
		}
		fillUniformSIMD(d[:n], &lanes, &fillSteps, lo, span)
		s, d = s.advance(uint64(n)), d[n:]
	}
	for i := range d {
		s = s.next()
		d[i] = lo + span*unitFloat32(s.output())
	}
}

// fillLanes is how many draws fillUniformSIMD takes at a time: lane j of a
// group of fillLanes consecutive draws is draw j, and every lane steps by
// the LCG composed with itself fillLanes times.
const fillLanes = 8

// pcgLanes is the state of fillUniformSIMD's lanes: lane 2k+p's state
// (hi, lo) is lanes[p][·][k] = hi, hi>>32, lo, lo>>32, of which the kernel
// reads the low 32 bits each, so the even lanes fill one group of four
// 4×64-bit vectors and the odd lanes the other.
type pcgLanes [2][4][4]uint64

// fillSteps are fillUniformSIMD's constants, each a row of four equal
// 64-bit lanes. VPMULUDQ multiplies the low 32 bits of its 64-bit lanes, so
// a 64-bit factor is given as its value (low half) and its high half.
var fillSteps = func() (k [13][4]uint64) {
	mul, inc := pcgState{lo: 1}, pcgState{} // the identity map
	for i := 0; i < fillLanes; i++ {
		mul, inc = pcgMul.mul(mul), pcgMul.mul(inc).add(pcgInc)
	}
	const unit = 0x33800000 // math.Float32bits(2⁻²⁴)
	for i, v := range []uint64{
		mul.lo, mul.lo >> 32, // 0, 1: the lane step's multiplier, lo word
		mul.hi, mul.hi >> 32, // 2, 3: its hi word
		inc.lo & 0xffffffff, inc.lo >> 32, inc.hi, // 4, 5, 6: its increment
		pcgCheapMul, pcgCheapMul >> 32, // 7, 8: DXSM's multiplier
		1,                  // 9: DXSM's lo|1
		0xffffffff,         // 10: the low half of a 64-bit lane
		0x00ffffff00ffffff, // 11: a float's 24 bits, in 32-bit lanes
		unit<<32 | unit,    // 12: 2⁻²⁴ as float32 lanes
	} {
		k[i] = [4]uint64{v, v, v, v}
	}
	return k
}()

// unitFloat32 is math/rand/v2's Rand.Float32 of a source that returned x.
func unitFloat32(x uint64) float32 {
	return float32(uint32(x>>32)<<8>>8) / (1 << 24)
}

// pcgState is a 128-bit value mod 2¹²⁸: the state (hi, lo) of
// math/rand/v2's PCG, or a coefficient of its LCG. next and output are that
// package's PCG.next and DXSM output, constant for constant, so
// s.next().output() is what (*rand.PCG).Uint64 returns from state s.
type pcgState struct{ hi, lo uint64 }

// The LCG s ↦ pcgMul·s + pcgInc of math/rand/v2's PCG.
var (
	pcgMul = pcgState{2549297995355413924, 4865540595714422341}
	pcgInc = pcgState{6364136223846793005, 1442695040888963407}
)

// pcgCheapMul is the multiplier of the PCG's DXSM output.
const pcgCheapMul = 0xda942042e4dd58b5

// pcgStateOf reads p's state. PCG.Seed(hi, lo) writes it back.
func pcgStateOf(p *rand.PCG) pcgState {
	var buf [20]byte
	b, _ := p.AppendBinary(buf[:0]) // "pcg:", hi, lo; big-endian
	return pcgState{hi: binary.BigEndian.Uint64(b[4:]), lo: binary.BigEndian.Uint64(b[12:])}
}

// mul returns a·b mod 2¹²⁸.
func (a pcgState) mul(b pcgState) pcgState {
	hi, lo := bits.Mul64(a.lo, b.lo)
	return pcgState{hi: hi + a.hi*b.lo + a.lo*b.hi, lo: lo}
}

// add returns a+b mod 2¹²⁸.
func (a pcgState) add(b pcgState) pcgState {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, c)
	return pcgState{hi: hi, lo: lo}
}

// next is the state one draw on.
func (s pcgState) next() pcgState { return pcgMul.mul(s).add(pcgInc) }

// advance is the state n draws on, in O(log n) steps: the LCG composed with
// itself 2ᵏ times is again an LCG (mul, inc), found by squaring, and s takes
// the one for every bit k set in n (Brown, "Random Number Generation with
// Arbitrary Strides", 1994).
func (s pcgState) advance(n uint64) pcgState {
	mul, inc := pcgMul, pcgInc
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			s = mul.mul(s).add(inc)
		}
		inc = mul.add(pcgState{lo: 1}).mul(inc)
		mul = mul.mul(mul)
	}
	return s
}

// output is the PCG's DXSM output of the state a draw has just reached.
func (s pcgState) output() uint64 {
	hi := s.hi
	hi ^= hi >> 32
	hi *= pcgCheapMul
	hi ^= hi >> 48
	return hi * (s.lo | 1)
}

// FillNormal fills t with Gaussian samples: element i is float32 of what
// the (i+1)-th of len(t.Data) Normal(mean, std) calls would return, and g
// ends where those calls would leave it. It runs NormFloat64's ziggurat on a
// copy of the PCG state instead of calling the source once per element.
//
// A sample takes one draw ≈97 % of the time and more otherwise (≈1.04 draws
// on average: zigKn[1] is 0, so strip 1 always misses), so where
// sample i's draws start is unknown until the samples before it are drawn.
// A fill of more than fillChunk elements therefore splits the draw stream,
// not the output: on the kernel pool, block k of fillChunk draws starts by
// jump-ahead at draw k·fillChunk, assumes a sample starts there, and writes
// the samples that start inside it from d[k·fillChunk] on (at most one per
// draw, so blocks never overlap). One pass in block order then re-parses a
// block whose assumption was wrong — the previous block's last sample ran
// past its first draw, at ≈4 % of boundaries — and moves each block's
// samples down to their final offset; the last ≈4 % of samples are drawn
// on the caller. Like FillUniform's, the result is the same at any
// SetMaxWorkers, and nothing proportional to the fill is allocated beyond
// one entry per block.
func (g *RNG) FillNormal(t *Tensor, mean, std float64) {
	d := t.Data
	if len(d) == 0 {
		return
	}
	s := pcgStateOf(g.src)
	if chunksFor(len(d), fillChunk) == 1 {
		_, _, end := fillNormal(d, s, math.MaxUint64, mean, std)
		g.src.Seed(end.hi, end.lo)
		return
	}
	// blockEnd is what parsing one block found: n samples, the last of
	// which ends just before draw next.
	type blockEnd struct {
		n    int
		next uint64
	}
	// parse writes the samples that start in block k, from draw from on,
	// to the block's own region of d.
	parse := func(k int, from uint64) blockEnd {
		lo, hi := k*fillChunk, min((k+1)*fillChunk, len(d))
		n, drawn, _ := fillNormal(d[lo:hi], s.advance(from), uint64(hi)-min(from, uint64(hi)), mean, std)
		return blockEnd{n, from + drawn}
	}
	ends := make([]blockEnd, (len(d)+fillChunk-1)/fillChunk)
	parallelFor(len(ends), 1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			ends[k] = parse(k, uint64(k*fillChunk))
		}
	})
	var next uint64 // the draw the next sample starts at
	done := 0       // samples at their final offset, d[:done]
	for k, e := range ends {
		lo := k * fillChunk
		if next != uint64(lo) {
			// The previous block's last sample ran past lo.
			e = parse(k, next)
		}
		done += copy(d[done:], d[lo:lo+e.n])
		next = e.next
	}
	_, _, end := fillNormal(d[done:], s.advance(next), math.MaxUint64, mean, std)
	g.src.Seed(end.hi, end.lo)
}

// fillNormal writes float32(mean + std·NormFloat64()) into d, drawing from
// the state s, for every sample that starts within the next limit draws
// (and at most len(d) of them). It returns the number of samples written,
// the draws they took — limit or more when it stops on limit, since the
// last sample may run past it — and the state after the last draw.
//
// The loop is NormFloat64's first attempt: one draw, accepted when
// |j| < zigKn[i]. It makes no call there, and takes |j| without a branch
// (absInt32: the sign is a coin flip a branch would mispredict half the
// time); an attempt that misses goes to zigguratSlow.
func fillNormal(d []float32, s pcgState, limit uint64, mean, std float64) (n int, drawn uint64, end pcgState) {
	for n < len(d) && drawn < limit {
		s = s.next()
		drawn++
		u := s.output()
		j := int32(u)
		i := u >> 32 & 0x7f
		x := float64(j) * float64(zigWn[i])
		if absInt32(j) >= zigKn[i] {
			var more uint64
			x, s, more = zigguratSlow(s, j, i, x)
			drawn += more
		}
		d[n] = float32(mean + std*x)
		n++
	}
	return n, drawn, s
}

// zigguratSlow finishes a NormFloat64 call whose attempt (j, i, x) missed
// the fast path, taking the draws after s exactly as math/rand/v2 does: the
// base strip's tail when i is 0, otherwise the wedge test and, if that
// rejects, new attempts. It returns the sample, the state after its last
// draw and how many draws it took.
func zigguratSlow(s pcgState, j int32, i uint64, x float64) (float64, pcgState, uint64) {
	var drawn uint64
	for {
		if i == 0 {
			for {
				s = s.next()
				x = -math.Log(unitFloat64(s.output())) * (1.0 / zigRn)
				s = s.next()
				y := -math.Log(unitFloat64(s.output()))
				drawn += 2
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigRn + x, s, drawn
			}
			return -zigRn - x, s, drawn
		}
		s = s.next()
		drawn++
		if zigFn[i]+float32(unitFloat64(s.output()))*(zigFn[i-1]-zigFn[i]) < float32(math.Exp(-.5*x*x)) {
			return x, s, drawn
		}
		s = s.next()
		drawn++
		u := s.output()
		j = int32(u)
		i = u >> 32 & 0x7f
		x = float64(j) * float64(zigWn[i])
		if absInt32(j) < zigKn[i] {
			return x, s, drawn
		}
	}
}

// absInt32 is |j| as NormFloat64 takes it (|MinInt32| is 1<<31), without a
// branch.
func absInt32(j int32) uint32 {
	sign := j >> 31
	return uint32((j ^ sign) - sign)
}

// unitFloat64 is math/rand/v2's Rand.Float64 of a source that returned x.
func unitFloat64(x uint64) float64 {
	return float64(x<<11>>11) / (1 << 53)
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
