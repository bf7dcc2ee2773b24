//go:build amd64

package tensor

// amd64 SIMD backend for the matmul kernel family. The assembly in
// simd_amd64.s uses AVX2 + FMA3; simdAvailable is set at init only when the
// CPU reports those features and the OS has enabled YMM state, so the
// binary still runs (on the pure-Go kernels) on older hardware.
//
// FMA fuses each multiply-add without an intermediate rounding, so SIMD
// results differ in the last ulp from the pure-Go kernels — but every
// kernel chains its FMAs in a fixed ascending-k order, keeping the
// repo-wide determinism contract: bit-identical outputs for any worker
// count on a given machine/binary.

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

//go:noescape
func axpy4x2SIMD(d0, d1, b0, b1, b2, b3 []float32, a *[8]float32)

//go:noescape
func axpy4SIMD(d, b0, b1, b2, b3 []float32, a *[4]float32)

//go:noescape
func dot4SIMD(a, b0, b1, b2, b3 []float32, out *[4]float32)

//go:noescape
func expRowSumSIMD(dst, src []float32, maxv float32) float64

//go:noescape
func normAffineSIMD(dst, src, gamma, beta []float32, mu, is float32)

//go:noescape
func lnBwdDxSIMD(dx, dy, gamma, x []float32, mDy, mDyX, is, mu float32)

//go:noescape
func tanhRowSIMD(dst, src []float32)

//go:noescape
func sigmoidRowSIMD(dst, src []float32)

// simdAvailable gates the SIMD dispatch in matmul.go.
var simdAvailable = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	if c&fma == 0 || c&osxsave == 0 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	if b7&avx2 == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&6 == 6 // XMM and YMM state enabled by the OS
}

// SIMDEnabled reports whether the AVX2+FMA kernels are active. Exposed so
// benchmarks and tests can record which backend produced their numbers.
func SIMDEnabled() bool { return simdAvailable }

// SetSIMD force-enables or disables the SIMD backend and returns the
// previous state. Test-only (this package's and autodiff's determinism
// tables): lets the suite cross-check SIMD and generic kernels on the same
// machine. Not safe to call while kernels run.
func SetSIMD(on bool) bool {
	prev := simdAvailable
	if on && !detectAVX2FMA() {
		return prev // cannot enable what the CPU lacks
	}
	simdAvailable = on
	return prev
}
