package tensor

import (
	"fmt"
	"math"
)

// binCheck panics with a descriptive message when a and b differ in shape.
func binCheck(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v (%v)", op, a.shape, b.shape, ErrShape))
	}
}

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor {
	binCheck("Add", a, b)
	out := New(a.shape...)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInto computes dst += src element-wise.
func AddInto(dst, src *Tensor) {
	binCheck("AddInto", dst, src)
	for i := range dst.Data {
		dst.Data[i] += src.Data[i]
	}
}

// AddScaledInto computes dst += alpha*src element-wise (axpy).
func AddScaledInto(dst *Tensor, alpha float32, src *Tensor) {
	binCheck("AddScaledInto", dst, src)
	for i := range dst.Data {
		dst.Data[i] += alpha * src.Data[i]
	}
}

// AddRawInto computes dst[i] += src[i] over raw buffers (src at least as
// long as dst). Backward passes use it to fold pooled matmul scratch into
// gradient slabs without view headers.
func AddRawInto(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}

// AddOut computes dst = a + b element-wise into pre-sized dst.
func AddOut(dst, a, b *Tensor) {
	binCheck("AddOut", a, b)
	binCheck("AddOut", dst, a)
	ad := a.Data[:len(dst.Data)]
	bd := b.Data[:len(dst.Data)]
	for i := range dst.Data {
		dst.Data[i] = ad[i] + bd[i]
	}
}

// SubOut computes dst = a - b element-wise into pre-sized dst.
func SubOut(dst, a, b *Tensor) {
	binCheck("SubOut", a, b)
	binCheck("SubOut", dst, a)
	ad := a.Data[:len(dst.Data)]
	bd := b.Data[:len(dst.Data)]
	for i := range dst.Data {
		dst.Data[i] = ad[i] - bd[i]
	}
}

// MulOut computes dst = a ⊙ b element-wise into pre-sized dst.
func MulOut(dst, a, b *Tensor) {
	binCheck("MulOut", a, b)
	binCheck("MulOut", dst, a)
	ad := a.Data[:len(dst.Data)]
	bd := b.Data[:len(dst.Data)]
	for i := range dst.Data {
		dst.Data[i] = ad[i] * bd[i]
	}
}

// ScaleOut computes dst = alpha * a into pre-sized dst.
func ScaleOut(dst *Tensor, alpha float32, a *Tensor) {
	binCheck("ScaleOut", dst, a)
	ad := a.Data[:len(dst.Data)]
	for i := range dst.Data {
		dst.Data[i] = alpha * ad[i]
	}
}

// AddMulInto computes dst += x ⊙ y element-wise (fused multiply-accumulate
// over whole tensors). It lets backward passes scatter product gradients
// without a scratch tensor.
func AddMulInto(dst, x, y *Tensor) {
	binCheck("AddMulInto", dst, x)
	binCheck("AddMulInto", dst, y)
	xd := x.Data[:len(dst.Data)]
	yd := y.Data[:len(dst.Data)]
	for i := range dst.Data {
		dst.Data[i] += xd[i] * yd[i]
	}
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	binCheck("Sub", a, b)
	out := New(a.shape...)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Mul returns the element-wise (Hadamard) product a ⊙ b.
func Mul(a, b *Tensor) *Tensor {
	binCheck("Mul", a, b)
	out := New(a.shape...)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns alpha * a.
func Scale(a *Tensor, alpha float32) *Tensor {
	out := New(a.shape...)
	for i := range out.Data {
		out.Data[i] = alpha * a.Data[i]
	}
	return out
}

// Apply returns a new tensor with fn applied element-wise.
func Apply(a *Tensor, fn func(float32) float32) *Tensor {
	out := New(a.shape...)
	for i := range out.Data {
		out.Data[i] = fn(a.Data[i])
	}
	return out
}

// Sum returns the sum of all elements, accumulated in four float64 lanes
// (for stability and to break the add latency chain) combined in a fixed
// order.
func Sum(a *Tensor) float64 {
	var s0, s1, s2, s3 float64
	d := a.Data
	p := 0
	for ; p+4 <= len(d); p += 4 {
		s0 += float64(d[p])
		s1 += float64(d[p+1])
		s2 += float64(d[p+2])
		s3 += float64(d[p+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; p < len(d); p++ {
		s += float64(d[p])
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float64 {
	if len(a.Data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.Data))
}

// Max returns the maximum element. It panics on empty tensors.
func Max(a *Tensor) float32 {
	if len(a.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := a.Data[0]
	for _, v := range a.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on empty tensors.
func Min(a *Tensor) float32 {
	if len(a.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := a.Data[0]
	for _, v := range a.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgmaxRows treats a as a [rows, cols] matrix and returns, for each row,
// the column index of its maximum element.
func ArgmaxRows(a *Tensor) []int {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows requires 2-D tensor, got %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		base := r * cols
		best := 0
		bv := a.Data[base]
		for c := 1; c < cols; c++ {
			if v := a.Data[base+c]; v > bv {
				bv, best = v, c
			}
		}
		out[r] = best
	}
	return out
}

// Transpose2D returns the transpose of a [rows, cols] matrix.
func Transpose2D(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires 2-D tensor, got %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.Data[c*rows+r] = a.Data[r*cols+c]
		}
	}
	return out
}

// L2Norm returns the Euclidean norm of all elements.
func L2Norm(a *Tensor) float64 {
	var s float64
	for _, v := range a.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two tensors with equal numel.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: Dot numel mismatch %d vs %d", len(a.Data), len(b.Data)))
	}
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}
