//go:build !amd64

package tensor

// Non-amd64 platforms always run the pure-Go kernels. (On arm64 the Go
// compiler fuses the a*b+c chains into hardware FMA on its own, so the
// generic kernels are already vectorised reasonably by the backend.)

const simdAvailable = false

// SIMDEnabled reports whether the AVX2+FMA kernels are active.
func SIMDEnabled() bool { return false }

// SetSIMD is the test-only backend switch; there is nothing to switch here.
func SetSIMD(on bool) bool { return false }

// The SIMD kernel symbols are referenced from matmul.go behind
// `if simdAvailable`, which is a compile-time false here; the bodies are
// unreachable.
func axpy4x2SIMD(d0, d1, b0, b1, b2, b3 []float32, a *[8]float32) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func axpy4SIMD(d, b0, b1, b2, b3 []float32, a *[4]float32) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func dot4SIMD(a, b0, b1, b2, b3 []float32, out *[4]float32) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func expRowSumSIMD(dst, src []float32, maxv float32) float64 {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func normAffineSIMD(dst, src, gamma, beta []float32, mu, is float32) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func lnBwdDxSIMD(dx, dy, gamma, x []float32, mDy, mDyX, is, mu float32) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func tanhRowSIMD(dst, src []float32) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func sigmoidRowSIMD(dst, src []float32) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}
