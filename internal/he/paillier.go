// Package he implements the homomorphic-encryption baseline of the
// paper's framework comparison (Fig. 14, PyCrCNN): an additively
// homomorphic Paillier cryptosystem over math/big, encrypted linear and
// convolution layers (plaintext model weights applied to encrypted
// activations, PyCrCNN's deployment model), and per-epoch cost
// extrapolation from measured per-operation latency.
//
// Substitution note: PyCrCNN uses BFV; Paillier changes the
// constant factors but not the conclusion the figure exists to make — HE
// training is 3–4 orders of magnitude slower than everything else.
package he

import (
	"crypto/rand"
	"fmt"
	"math/big"
)

// Keypair holds Paillier public and private keys.
type Keypair struct {
	// Public.
	N  *big.Int // modulus
	N2 *big.Int // N²
	G  *big.Int // generator (N+1)
	// Private.
	Lambda *big.Int // lcm(p−1, q−1)
	Mu     *big.Int // (L(g^λ mod N²))⁻¹ mod N
}

// GenerateKey creates a keypair with the given modulus size. 512–1024 bits
// keeps the benchmark honest; 2048 matches production deployments.
func GenerateKey(bits int) (*Keypair, error) {
	if bits < 128 {
		return nil, fmt.Errorf("he: modulus below 128 bits is meaningless")
	}
	p, err := rand.Prime(rand.Reader, bits/2)
	if err != nil {
		return nil, fmt.Errorf("he: prime generation: %w", err)
	}
	q, err := rand.Prime(rand.Reader, bits/2)
	if err != nil {
		return nil, fmt.Errorf("he: prime generation: %w", err)
	}
	if p.Cmp(q) == 0 {
		return GenerateKey(bits)
	}
	n := new(big.Int).Mul(p, q)
	n2 := new(big.Int).Mul(n, n)
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	qm1 := new(big.Int).Sub(q, big.NewInt(1))
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), gcd)
	g := new(big.Int).Add(n, big.NewInt(1))

	// µ = (L(g^λ mod N²))⁻¹ mod N, L(x) = (x−1)/N.
	gl := new(big.Int).Exp(g, lambda, n2)
	l := lFunc(gl, n)
	mu := new(big.Int).ModInverse(l, n)
	if mu == nil {
		return GenerateKey(bits)
	}
	return &Keypair{N: n, N2: n2, G: g, Lambda: lambda, Mu: mu}, nil
}

func lFunc(x, n *big.Int) *big.Int {
	return new(big.Int).Div(new(big.Int).Sub(x, big.NewInt(1)), n)
}

// Ciphertext is a Paillier ciphertext.
type Ciphertext struct{ C *big.Int }

// Encrypt encrypts an integer message (callers quantise floats first).
func (k *Keypair) Encrypt(m int64) (*Ciphertext, error) {
	mEnc := new(big.Int).Mod(big.NewInt(m), k.N) // negatives wrap mod N
	r, err := rand.Int(rand.Reader, k.N)
	if err != nil {
		return nil, err
	}
	r.Add(r, big.NewInt(1)) // avoid zero
	// c = g^m · r^N mod N².
	gm := new(big.Int).Exp(k.G, mEnc, k.N2)
	rn := new(big.Int).Exp(r, k.N, k.N2)
	return &Ciphertext{C: gm.Mul(gm, rn).Mod(gm, k.N2)}, nil
}

// Decrypt recovers the signed integer message.
func (k *Keypair) Decrypt(c *Ciphertext) int64 {
	cl := new(big.Int).Exp(c.C, k.Lambda, k.N2)
	m := lFunc(cl, k.N)
	m.Mul(m, k.Mu).Mod(m, k.N)
	// Map back to signed range.
	half := new(big.Int).Rsh(k.N, 1)
	if m.Cmp(half) > 0 {
		m.Sub(m, k.N)
	}
	return m.Int64()
}

// AddCipher homomorphically adds two ciphertexts: Enc(a)·Enc(b) = Enc(a+b).
func (k *Keypair) AddCipher(a, b *Ciphertext) *Ciphertext {
	out := new(big.Int).Mul(a.C, b.C)
	return &Ciphertext{C: out.Mod(out, k.N2)}
}

// MulPlain multiplies a ciphertext by a plaintext scalar:
// Enc(a)^w = Enc(w·a).
func (k *Keypair) MulPlain(a *Ciphertext, w int64) *Ciphertext {
	wEnc := new(big.Int).Mod(big.NewInt(w), k.N)
	return &Ciphertext{C: new(big.Int).Exp(a.C, wEnc, k.N2)}
}

// QuantScale is the fixed-point scale used to quantise weights and
// activations before encryption (PyCrCNN quantises similarly).
const QuantScale = 1 << 8

// Quantise converts a float to the integer message space.
func Quantise(v float64) int64 { return int64(v * QuantScale) }

// Dequantise converts a degree-d product back to a float (each plaintext
// multiplication adds one factor of QuantScale).
func Dequantise(m int64, degree int) float64 {
	out := float64(m)
	for i := 0; i < degree; i++ {
		out /= QuantScale
	}
	return out
}

// EncryptedVector is a vector of ciphertexts.
type EncryptedVector struct {
	C []*Ciphertext
}

// EncryptVector encrypts a quantised float vector.
func (k *Keypair) EncryptVector(v []float64) (*EncryptedVector, error) {
	out := &EncryptedVector{C: make([]*Ciphertext, len(v))}
	for i, x := range v {
		c, err := k.Encrypt(Quantise(x))
		if err != nil {
			return nil, err
		}
		out.C[i] = c
	}
	return out, nil
}

// LinearLayer applies y = W·x + b with plaintext weights over the
// encrypted input: y_j = Π_i Enc(x_i)^{w_ji} · Enc(b_j) — exactly the
// encrypted-inference kernel of PyCrCNN.
func (k *Keypair) LinearLayer(x *EncryptedVector, w [][]float64, b []float64) (*EncryptedVector, error) {
	out := &EncryptedVector{C: make([]*Ciphertext, len(w))}
	for j, row := range w {
		if len(row) != len(x.C) {
			return nil, fmt.Errorf("he: weight row %d has %d entries for input %d", j, len(row), len(x.C))
		}
		// Bias enters at degree 2 (scale²) to match w·x.
		acc, err := k.Encrypt(Quantise(b[j]) * QuantScale)
		if err != nil {
			return nil, err
		}
		for i, wv := range row {
			acc = k.AddCipher(acc, k.MulPlain(x.C[i], Quantise(wv)))
		}
		out.C[j] = acc
	}
	return out, nil
}

// DecryptVector decrypts a degree-d vector.
func (k *Keypair) DecryptVector(x *EncryptedVector, degree int) []float64 {
	out := make([]float64, len(x.C))
	for i, c := range x.C {
		out[i] = Dequantise(k.Decrypt(c), degree)
	}
	return out
}
