// Package mpc implements the secure multi-party-computation baseline used
// in the paper's framework comparison (Fig. 14, CrypTen): 3-party additive
// secret sharing over the 2⁶⁴ ring with fixed-point encoding, a trusted
// dealer for Beaver triples and truncation pairs, and secure linear
// algebra with communication accounting.
//
// Fidelity notes: sharing, reconstruction, Beaver
// multiplication, dealer-pair truncation, and matrix triples follow the
// standard semi-honest construction faithfully. Comparisons (ReLU) use a
// dealer comparison oracle instead of a binary-conversion protocol; the
// oracle is charged the per-comparison communication CrypTen would spend,
// preserving the measured cost structure.
package mpc

import (
	"fmt"

	"amalgam/internal/tensor"
)

// Parties is the party count (CrypTen's benchmark configuration uses 3).
const Parties = 3

// FracBits is the fixed-point fractional precision.
const FracBits = 16

const scale = 1 << FracBits

// Encode converts a float to the fixed-point ring element.
func Encode(v float64) int64 { return int64(v * scale) }

// Decode converts a ring element back to a float.
func Decode(r int64) float64 { return float64(r) / scale }

// Engine simulates the three parties plus the dealer in-process,
// accounting every byte that would cross the network.
type Engine struct {
	rng *tensor.RNG

	// BytesSent counts simulated network traffic (all parties, all rounds).
	BytesSent int64
	// Rounds counts communication rounds.
	Rounds int64
	// Comparisons counts oracle comparisons (ReLU elements).
	Comparisons int64
}

// NewEngine builds an engine with a deterministic share-randomness stream.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: tensor.NewRNG(seed)}
}

// Secret is an additively shared vector: value = Σ_p shares[p] (ring 2⁶⁴),
// fixed-point encoded at scale 2^FracBits.
type Secret struct {
	shares [Parties][]int64
	n      int
}

// Len returns the element count.
func (s *Secret) Len() int { return s.n }

// Share splits a plaintext vector into three additive shares.
func (e *Engine) Share(v []float64) *Secret {
	s := newSecret(len(v))
	for i, x := range v {
		e.dealShare(s, i, Encode(x))
	}
	e.charge(2*8*len(v), 1)
	return s
}

// ShareFloat32 shares a float32 slice.
func (e *Engine) ShareFloat32(v []float32) *Secret {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return e.Share(f)
}

// Open reconstructs the plaintext (each party reveals its share).
func (e *Engine) Open(s *Secret) []float64 {
	raw := e.openRaw(s)
	out := make([]float64, s.n)
	for i, r := range raw {
		out[i] = Decode(r)
	}
	return out
}

// openRaw reconstructs ring elements (charging the reveal round).
func (e *Engine) openRaw(s *Secret) []int64 {
	out := make([]int64, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.shares[0][i] + s.shares[1][i] + s.shares[2][i]
	}
	e.charge(2*8*s.n, 1)
	return out
}

func newSecret(n int) *Secret {
	s := &Secret{n: n}
	for p := range s.shares {
		s.shares[p] = make([]int64, n)
	}
	return s
}

// dealShare writes a fresh 3-way sharing of value into s at index i
// (dealer-side; not charged — callers charge distribution explicitly).
func (e *Engine) dealShare(s *Secret, i int, value int64) {
	r0 := int64(e.rng.Uint64())
	r1 := int64(e.rng.Uint64())
	s.shares[0][i] = r0
	s.shares[1][i] = r1
	s.shares[2][i] = value - r0 - r1
}

func (e *Engine) charge(bytes int, rounds int64) {
	e.BytesSent += int64(bytes) * (Parties - 1)
	e.Rounds += rounds
}

// Add returns a+b; purely local (no communication).
func Add(a, b *Secret) *Secret {
	checkLen("Add", a, b)
	out := newSecret(a.n)
	for p := 0; p < Parties; p++ {
		for i := range out.shares[p] {
			out.shares[p][i] = a.shares[p][i] + b.shares[p][i]
		}
	}
	return out
}

// Sub returns a−b; local.
func Sub(a, b *Secret) *Secret {
	checkLen("Sub", a, b)
	out := newSecret(a.n)
	for p := 0; p < Parties; p++ {
		for i := range out.shares[p] {
			out.shares[p][i] = a.shares[p][i] - b.shares[p][i]
		}
	}
	return out
}

// trunc divides a double-scale (2^{2f}) shared vector by 2^f using dealer
// truncation pairs: the dealer shares (r, r>>f); parties open x+r, shift
// the public value, and subtract the shared r>>f. Error ≤ 1 ULP.
func (e *Engine) trunc(a *Secret) *Secret {
	n := a.n
	rShift := newSecret(n)
	masked := clone(a)
	for i := 0; i < n; i++ {
		// 44-bit positive mask: large enough to hide magnitudes at our
		// value ranges, small enough that x+r never wraps the ring.
		r := int64(e.rng.Uint64() >> 20)
		e.dealShare(rShift, i, r>>FracBits)
		masked.shares[0][i] += r
	}
	e.charge(2*8*n, 1) // pair distribution
	opened := e.openRaw(masked)
	out := newSecret(n)
	for i := 0; i < n; i++ {
		q := opened[i] >> FracBits
		out.shares[0][i] = q - rShift.shares[0][i]
		out.shares[1][i] = -rShift.shares[1][i]
		out.shares[2][i] = -rShift.shares[2][i]
	}
	return out
}

// MulPlain multiplies by a public scalar: local ring product at double
// scale, then one truncation.
func (e *Engine) MulPlain(a *Secret, k float64) *Secret {
	kEnc := Encode(k)
	raw := newSecret(a.n)
	for p := 0; p < Parties; p++ {
		for i := range raw.shares[p] {
			raw.shares[p][i] = a.shares[p][i] * kEnc
		}
	}
	return e.trunc(raw)
}

// Scale is an alias of MulPlain.
func (e *Engine) Scale(a *Secret, k float64) *Secret { return e.MulPlain(a, k) }

// Mul returns the element-wise product via Beaver triples: one triple per
// element, one opening round, one truncation.
func (e *Engine) Mul(a, b *Secret) *Secret {
	checkLen("Mul", a, b)
	n := a.n
	u := newSecret(n)
	v := newSecret(n)
	wRaw := newSecret(n) // shares of uRing·vRing (double scale)
	for i := 0; i < n; i++ {
		uRing := Encode(e.rng.Normal(0, 1))
		vRing := Encode(e.rng.Normal(0, 1))
		e.dealShare(u, i, uRing)
		e.dealShare(v, i, vRing)
		e.dealShare(wRaw, i, uRing*vRing)
	}
	e.charge(3*2*8*n, 1)

	d := e.openRaw(Sub(a, u))
	f := e.openRaw(Sub(b, v))

	raw := newSecret(n)
	for p := 0; p < Parties; p++ {
		for i := 0; i < n; i++ {
			t := wRaw.shares[p][i] + d[i]*v.shares[p][i] + f[i]*u.shares[p][i]
			if p == 0 {
				t += d[i] * f[i]
			}
			raw.shares[p][i] = t
		}
	}
	return e.trunc(raw)
}

// MatMul returns A·B for shared matrices A [m,k] and B [k,n] using one
// matrix Beaver triple: two openings plus one truncation of the output,
// regardless of the m·k·n multiplication count — the asymptotic win
// matrix triples buy over element-wise Beaver.
func (e *Engine) MatMul(a *Secret, m, k int, b *Secret, n int) *Secret {
	if a.n != m*k || b.n != k*n {
		panic(fmt.Sprintf("mpc: MatMul dims %d≠%d·%d or %d≠%d·%d", a.n, m, k, b.n, k, n))
	}
	uRing := make([]int64, m*k)
	vRing := make([]int64, k*n)
	for i := range uRing {
		uRing[i] = Encode(e.rng.Normal(0, 1))
	}
	for i := range vRing {
		vRing[i] = Encode(e.rng.Normal(0, 1))
	}
	wRing := ringMatMul(uRing, m, k, vRing, n) // double scale
	u := e.dealVectorRing(uRing)
	v := e.dealVectorRing(vRing)
	w := e.dealVectorRing(wRing)
	e.charge(2*8*(len(uRing)+len(vRing)+len(wRing)), 1)

	d := e.openRaw(Sub(a, u)) // [m,k], single scale
	f := e.openRaw(Sub(b, v)) // [k,n], single scale

	df := ringMatMul(d, m, k, f, n)
	raw := newSecret(m * n)
	for p := 0; p < Parties; p++ {
		dv := ringMatMul(d, m, k, v.shares[p], n)
		uf := ringMatMul(u.shares[p], m, k, f, n)
		for i := 0; i < m*n; i++ {
			t := w.shares[p][i] + dv[i] + uf[i]
			if p == 0 {
				t += df[i]
			}
			raw.shares[p][i] = t
		}
	}
	return e.trunc(raw)
}

func (e *Engine) dealVectorRing(plain []int64) *Secret {
	s := newSecret(len(plain))
	for i, v := range plain {
		e.dealShare(s, i, v)
	}
	return s
}

// ringMatMul multiplies int64 matrices with wrapping arithmetic.
func ringMatMul(a []int64, m, k int, b []int64, n int) []int64 {
	out := make([]int64, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[p*n+j]
			}
		}
	}
	return out
}

// ReLU applies max(0, x) element-wise using the dealer comparison oracle:
// the oracle learns sign bits and publishes a selection mask, and we
// charge the communication a binary-conversion comparison would cost
// (~64 bit-shares per element over log₂ 64 rounds).
func (e *Engine) ReLU(a *Secret) (*Secret, []bool) {
	mask := make([]bool, a.n)
	out := newSecret(a.n)
	for i := 0; i < a.n; i++ {
		v := a.shares[0][i] + a.shares[1][i] + a.shares[2][i]
		mask[i] = v > 0
		if mask[i] {
			for p := 0; p < Parties; p++ {
				out.shares[p][i] = a.shares[p][i]
			}
		}
	}
	e.Comparisons += int64(a.n)
	e.charge(8*8*a.n, 6)
	return out, mask
}

// SelectByMask zeroes elements where mask is false; local (ReLU backward
// with the saved mask).
func SelectByMask(a *Secret, mask []bool) *Secret {
	out := newSecret(a.n)
	for i, keep := range mask {
		if keep {
			for p := 0; p < Parties; p++ {
				out.shares[p][i] = a.shares[p][i]
			}
		}
	}
	return out
}

// Transpose returns the matrix transpose of a shared [m,n] matrix; local.
func Transpose(a *Secret, m, n int) *Secret {
	out := newSecret(a.n)
	for p := 0; p < Parties; p++ {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				out.shares[p][j*m+i] = a.shares[p][i*n+j]
			}
		}
	}
	return out
}

func clone(a *Secret) *Secret {
	out := newSecret(a.n)
	for p := 0; p < Parties; p++ {
		copy(out.shares[p], a.shares[p])
	}
	return out
}

func checkLen(op string, a, b *Secret) {
	if a.n != b.n {
		panic(fmt.Sprintf("mpc: %s length mismatch %d vs %d", op, a.n, b.n))
	}
}
