package tensor

import (
	"fmt"
	"math"
	"testing"
)

// ulpDiff32 measures the distance between got and the float32 rounding of
// want in units of the float32 grid, using the ordered-integer
// reinterpretation (which handles denormals and sign crossings uniformly).
// Two NaNs are distance 0; NaN vs non-NaN is reported as +Inf.
func ulpDiff32(got float32, want float64) float64 {
	w := float32(want)
	gNaN := got != got
	wNaN := w != w
	if gNaN || wNaN {
		if gNaN && wNaN {
			return 0
		}
		return math.Inf(1)
	}
	order := func(f float32) int64 {
		i := int64(int32(math.Float32bits(f)))
		if i < 0 {
			i = math.MinInt32 - i
		}
		return i
	}
	d := order(got) - order(w)
	if d < 0 {
		d = -d
	}
	return float64(d)
}

// Stated accuracy contracts for the scalar activation kernels, pinned by
// the sweep tests and the fuzz targets below:
//
//	Tanh32:    ≤ 4 ulp vs float64 math.Tanh everywhere (measured max 1)
//	Sigmoid32: ≤ 4 ulp vs 1/(1+e^{−x}) for x ≥ −88.37 (measured max 2);
//	           exact 0 below −88.37, Exp32's overflow bound (the true
//	           value there is a sub-2⁻¹²⁶ denormal)
//	GELU32:    |err| ≤ 4·(1+|x|)·2⁻²⁴ vs the float64 tanh-form reference
//	           (measured max 1.4·(1+|x|)·2⁻²⁴). An absolute envelope, not
//	           ulps: in the negative tail the (1+tanh) factor cancels and
//	           any float32 evaluation of the tanh form loses relative
//	           precision there.
const (
	tanhULPTol    = 4
	sigmoidULPTol = 4
	// sigmoidFlush mirrors exp32Hi: Exp32(-x) saturates to +Inf strictly
	// below this, making Sigmoid32 exactly 0.
	sigmoidFlush = -88.37
	geluEnvelope = 4
)

func tanhRef(x float32) float64 { return math.Tanh(float64(x)) }

func sigmoidRef(x float32) float64 { return 1 / (1 + math.Exp(-float64(x))) }

func geluRef(x float32) float64 {
	x64 := float64(x)
	return 0.5 * x64 * (1 + math.Tanh(gelu32C*(x64+gelu32A*x64*x64*x64)))
}

func checkTanh32(t *testing.T, x float32) {
	t.Helper()
	if u := ulpDiff32(Tanh32(x), tanhRef(x)); u > tanhULPTol {
		t.Fatalf("Tanh32(%v) = %v, want %v (%v ulp, tol %d)", x, Tanh32(x), tanhRef(x), u, tanhULPTol)
	}
}

func checkSigmoid32(t *testing.T, x float32) {
	t.Helper()
	got := Sigmoid32(x)
	if x < sigmoidFlush && x == x {
		if got != 0 {
			t.Fatalf("Sigmoid32(%v) = %v, want exact 0 below the flush threshold", x, got)
		}
		return
	}
	if u := ulpDiff32(got, sigmoidRef(x)); u > sigmoidULPTol {
		t.Fatalf("Sigmoid32(%v) = %v, want %v (%v ulp, tol %d)", x, got, sigmoidRef(x), u, sigmoidULPTol)
	}
}

func checkGELU32(t *testing.T, x float32) {
	t.Helper()
	got := float64(GELU32(x))
	want := geluRef(x)
	gNaN, wNaN := math.IsNaN(got), math.IsNaN(want)
	if gNaN || wNaN {
		if gNaN != wNaN {
			t.Fatalf("GELU32(%v) = %v, want %v (NaN mismatch)", x, got, want)
		}
		return
	}
	if math.IsInf(got, 0) || math.IsInf(want, 0) {
		if (got < 0) != (want < 0) || !math.IsInf(got, 0) || math.Abs(want) < math.MaxFloat32 {
			t.Fatalf("GELU32(%v) = %v, want %v (Inf mismatch)", x, got, want)
		}
		return
	}
	env := geluEnvelope * (1 + math.Abs(float64(x))) * math.Exp2(-24)
	if diff := math.Abs(got - want); diff > env {
		t.Fatalf("GELU32(%v) = %v, want %v (diff %g > envelope %g)", x, got, want, diff, env)
	}
}

// actEdgeCases are the inputs every activation kernel must get right:
// ±0, denormals, the path-switch neighbourhoods, saturation bounds,
// large magnitudes, ±Inf, and NaN.
func actEdgeCases() []float32 {
	return []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(1), // smallest denormals
		1e-40, -1e-40, 1e-38, -1e-38, // denormal / near-denormal
		1e-20, -1e-20, 2.4e-4, -2.4e-4,
		0.624, 0.625, 0.626, -0.624, -0.625, -0.626, // tanh path switch
		1, -1, 4.053438, -5.15847, // worst measured GELU spots
		9.0, 9.02, -9.0, -9.02, 10, -10, // tanh saturation bound
		17.46, -17.46, 87.3, -87.3, 88.4, -88.4, 89, -89, // sigmoid/exp bounds
		-88.37, -88.375, -88.38, // the exact Exp32 overflow / sigmoid flush edge
		1e4, -1e4, 1e30, -1e30, math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	}
}

func TestTanh32MatchesFloat64(t *testing.T) {
	for _, x := range actEdgeCases() {
		checkTanh32(t, x)
	}
	for x := -20.0; x <= 20.0; x += 0.00137 {
		checkTanh32(t, float32(x))
	}
	// Exact special values the contract promises.
	if v := Tanh32(0); v != 0 || math.Signbit(float64(v)) {
		t.Fatalf("Tanh32(+0) = %v, want +0", v)
	}
	if v := Tanh32(float32(math.Copysign(0, -1))); v != 0 || !math.Signbit(float64(v)) {
		t.Fatalf("Tanh32(-0) = %v, want -0", v)
	}
	den := math.Float32frombits(3)
	if Tanh32(den) != den {
		t.Fatalf("Tanh32 must be identity on denormals: %v -> %v", den, Tanh32(den))
	}
	if Tanh32(float32(math.Inf(1))) != 1 || Tanh32(float32(math.Inf(-1))) != -1 {
		t.Fatal("Tanh32(±Inf) must saturate to ±1")
	}
	nan := float32(math.NaN())
	if Tanh32(nan) == Tanh32(nan) {
		t.Fatal("Tanh32(NaN) must propagate NaN")
	}
}

func TestSigmoid32MatchesFloat64(t *testing.T) {
	for _, x := range actEdgeCases() {
		checkSigmoid32(t, x)
	}
	for x := -87.0; x <= 88.0; x += 0.0213 {
		checkSigmoid32(t, float32(x))
	}
	if Sigmoid32(0) != 0.5 || Sigmoid32(float32(math.Copysign(0, -1))) != 0.5 {
		t.Fatal("Sigmoid32(±0) must be exactly 0.5")
	}
	if Sigmoid32(89) != 1 || Sigmoid32(float32(math.Inf(1))) != 1 {
		t.Fatal("Sigmoid32 must saturate to 1 for large x")
	}
	if Sigmoid32(-89) != 0 || Sigmoid32(float32(math.Inf(-1))) != 0 {
		t.Fatal("Sigmoid32 must flush to 0 for very negative x")
	}
	nan := float32(math.NaN())
	if Sigmoid32(nan) == Sigmoid32(nan) {
		t.Fatal("Sigmoid32(NaN) must propagate NaN")
	}
}

func TestGELU32MatchesFloat64(t *testing.T) {
	for _, x := range actEdgeCases() {
		checkGELU32(t, x)
	}
	for x := -30.0; x <= 30.0; x += 0.00317 {
		checkGELU32(t, float32(x))
	}
	if v := GELU32(0); v != 0 || math.Signbit(float64(v)) {
		t.Fatalf("GELU32(+0) = %v, want +0", v)
	}
	if v := GELU32(float32(math.Copysign(0, -1))); v != 0 || !math.Signbit(float64(v)) {
		t.Fatalf("GELU32(-0) = %v, want -0", v)
	}
	if !math.IsInf(float64(GELU32(float32(math.Inf(1)))), 1) {
		t.Fatal("GELU32(+Inf) must be +Inf")
	}
	nan := float32(math.NaN())
	if GELU32(nan) == GELU32(nan) {
		t.Fatal("GELU32(NaN) must propagate NaN")
	}
}

// Fuzz targets: Go's fuzzer explores the raw bit space of float32, so
// denormals, NaN payloads, and exponent boundaries all come up. The seed
// corpus pins the documented edge cases; `go test` replays it on every
// run.

func fuzzSeeds(f *testing.F) {
	for _, x := range actEdgeCases() {
		f.Add(x)
	}
}

func FuzzTanh32(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, x float32) {
		checkTanh32(t, x)
	})
}

func FuzzSigmoid32(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, x float32) {
		checkSigmoid32(t, x)
	})
}

func FuzzGELU32(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, x float32) {
		checkGELU32(t, x)
	})
}

// actTestInput builds a value mix that exercises every kernel path:
// normals at training scale, the polynomial/exp switch, saturation, tiny
// values, and exact zeros.
func actTestInput(n int, seed uint64) []float32 {
	rng := NewRNG(seed)
	x := New(n)
	rng.FillNormal(x, 0, 3)
	edge := actEdgeCases()
	for i := 0; i < n/7; i++ {
		v := edge[i%len(edge)]
		if v == v && v*0 == 0 { // keep rows finite for the row-kernel tests
			x.Data[(i*7)%n] = v
		}
	}
	return x.Data
}

// allActs is every Act, in enum order; the kernel tests below run the same
// checks over each.
var allActs = []Act{ActNone, ActReLU, ActReLU6, ActTanh, ActSigmoid, ActGELU}

// actScalar is a's definition on one element, on the scalar kernels.
func actScalar(a Act, v float32) float32 {
	switch a {
	case ActReLU:
		if v < 0 {
			return 0
		}
	case ActReLU6:
		if v < 0 {
			return 0
		} else if v > 6 {
			return 6
		}
	case ActTanh:
		return Tanh32(v)
	case ActSigmoid:
		return Sigmoid32(v)
	case ActGELU:
		return GELU32(v)
	}
	return v
}

// actScalarGrad is dy times a's derivative, from the pre-activation, the
// output y and (GELU) the inner tanh t.
func actScalarGrad(a Act, dy, pre, y, t float32) float32 {
	switch a {
	case ActReLU:
		if !(y > 0) {
			return 0
		}
	case ActReLU6:
		if !(y > 0 && y < 6) {
			return 0
		}
	case ActTanh:
		return dy * (1 - y*y)
	case ActSigmoid:
		return dy * y * (1 - y)
	case ActGELU:
		return dy * (0.5*(1+t) + 0.5*pre*(1-t*t)*gelu32C*(1+3*gelu32A*pre*pre))
	}
	return dy
}

// scratchFor returns the ActScratch a needs over n elements.
func scratchFor(a Act, n int) ActScratch {
	if !a.NeedsScratch() {
		return ActScratch{}
	}
	return ActScratch{Pre: make([]float32, n), T: make([]float32, n)}
}

// applied returns a(x) through Act.Apply over a copy of x, and the scratch
// Apply filled.
func applied(a Act, x []float32) ([]float32, ActScratch) {
	y := append([]float32(nil), x...)
	keep := scratchFor(a, len(x))
	a.Apply(y, keep)
	return y, keep
}

// sameBits reports whether a and b agree bit for bit, NaNs included.
func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestActivationRowKernelsMatchFloat64 bounds the row kernels — whichever
// backend is active — against the float64 references with the same stated
// tolerances as the scalar kernels, at lengths that exercise the SIMD bulk
// and the scalar tail.
func TestActivationRowKernelsMatchFloat64(t *testing.T) {
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		if simd && !SIMDEnabled() {
			SetSIMD(prev)
			t.Log("AVX2 not available; SIMD dispatch not exercised")
			continue
		}
		for _, n := range []int{1, 7, 8, 9, 64, 101} {
			x := actTestInput(n, 7)
			tanh, _ := applied(ActTanh, x)
			sig, _ := applied(ActSigmoid, x)
			gelu, keep := applied(ActGELU, x)
			for i, v := range x {
				if u := ulpDiff32(tanh[i], tanhRef(v)); u > tanhULPTol {
					t.Fatalf("simd=%v n=%d: tanh[%d](%v) off by %v ulp", simd, n, i, v, u)
				}
				if v > sigmoidFlush {
					if u := ulpDiff32(sig[i], sigmoidRef(v)); u > sigmoidULPTol {
						t.Fatalf("simd=%v n=%d: sigmoid[%d](%v) off by %v ulp", simd, n, i, v, u)
					}
				} else if sig[i] != 0 {
					t.Fatalf("simd=%v n=%d: sigmoid[%d](%v) = %v, want flush to 0", simd, n, i, v, sig[i])
				}
				env := geluEnvelope * (1 + math.Abs(float64(v))) * math.Exp2(-24)
				if diff := math.Abs(float64(gelu[i]) - geluRef(v)); diff > env {
					t.Fatalf("simd=%v n=%d: GELU[%d](%v) diff %g > %g", simd, n, i, v, diff, env)
				}
				if keep.Pre[i] != v {
					t.Fatalf("simd=%v n=%d: retained gelu pre-activation[%d] = %v, want %v", simd, n, i, keep.Pre[i], v)
				}
				if u := ulpDiff32(keep.T[i], math.Tanh(gelu32C*(float64(v)+gelu32A*float64(v)*float64(v)*float64(v)))); u > tanhULPTol {
					t.Fatalf("simd=%v n=%d: retained gelu tanh[%d] off by %v ulp", simd, n, i, u)
				}
			}
		}
		SetSIMD(prev)
	}
}

// TestActivationRowKernelsNaN pins NaN propagation through the dispatched
// row kernels (the SIMD lanes blend the input back in for unordered
// lanes), and the clamps' one rule on non-finite and signed-zero input.
func TestActivationRowKernelsNaN(t *testing.T) {
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		if simd && !SIMDEnabled() {
			SetSIMD(prev)
			continue
		}
		x := make([]float32, 16)
		for i := range x {
			x[i] = float32(i) - 8
		}
		x[3] = float32(math.NaN())
		x[11] = float32(math.NaN())
		for _, a := range allActs {
			dst, _ := applied(a, x)
			if dst[3] == dst[3] || dst[11] == dst[11] {
				t.Fatalf("simd=%v: Act(%d).Apply must propagate NaN lanes", simd, a)
			}
			if dst[4] != dst[4] || dst[10] != dst[10] {
				t.Fatalf("simd=%v: Act(%d).Apply corrupted neighbours of NaN lanes", simd, a)
			}
		}
		SetSIMD(prev)
	}

	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	denorm := math.Float32frombits(1)
	above6 := math.Nextafter32(6, 7)
	in := []float32{nan, 0, negZero, inf, -inf, denorm, -denorm, 6, above6}
	dyIn := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for a, want := range map[Act]struct{ y, dpre []float32 }{
		ActReLU:  {[]float32{nan, 0, negZero, inf, 0, denorm, 0, 6, above6}, []float32{0, 0, 0, 4, 0, 6, 0, 8, 9}},
		ActReLU6: {[]float32{nan, 0, negZero, 6, 0, denorm, 0, 6, 6}, []float32{0, 0, 0, 0, 0, 6, 0, 0, 0}},
	} {
		y, keep := applied(a, in)
		if !sameBits(y, want.y) {
			t.Fatalf("Act(%d).Apply(%v) = %v, want %v", a, in, y, want.y)
		}
		dy := append([]float32(nil), dyIn...)
		a.Grad(dy, y, keep)
		if !sameBits(dy, want.dpre) {
			t.Fatalf("Act(%d).Grad at y = %v gave %v, want %v", a, y, dy, want.dpre)
		}
	}
}

// TestActivationClampsMatchDefinition holds the branch-free ReLU and ReLU6
// to their per-element definition (actScalar / actScalarGrad: v < 0 → 0,
// v > 6 → 6; the gradient survives only where y > 0, and y < 6), bit for
// bit with NaN payloads and the sign of zero included, at every length 0–17
// and at every rotation of the special values through the positions, for
// Apply, Grad and the bias epilogue's per-row apply.
func TestActivationClampsMatchDefinition(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero, denorm := float32(math.Copysign(0, -1)), math.Float32frombits(1)
	special := []float32{nan, -nan, 0, negZero, inf, -inf, denorm, -denorm, 6, math.Nextafter32(6, 7),
		math.Nextafter32(6, 0), -6, 1.5, -1.5, math.MaxFloat32, -math.MaxFloat32, 7}
	same := func(a, b []float32) bool { return FromSlice(a, len(a)).Equal(FromSlice(b, len(b))) } // bit patterns
	for _, a := range []Act{ActReLU, ActReLU6} {
		for n := 0; n <= 17; n++ {
			for rot := 0; rot < len(special); rot++ {
				x, dy := make([]float32, n), make([]float32, n)
				wantY, wantD := make([]float32, n), make([]float32, n)
				for i := range x {
					x[i] = special[(i+rot)%len(special)]
					dy[i] = special[(i+2*rot+5)%len(special)]
					wantY[i] = actScalar(a, x[i])
					wantD[i] = actScalarGrad(a, dy[i], x[i], wantY[i], 0)
				}
				y, _ := applied(a, x)
				if !same(y, wantY) {
					t.Fatalf("Act(%d).Apply(%v) = %v, want %v", a, x, y, wantY)
				}
				a.Grad(dy, y, ActScratch{})
				if !same(dy, wantD) {
					t.Fatalf("Act(%d).Grad at y = %v gave %v, want %v", a, y, dy, wantD)
				}
				row := make([]float32, n)
				AddRowBiasInto(row, x, make([]float32, n), 1, n, a, ActScratch{})
				for i, v := range x {
					if want := actScalar(a, v+0); math.Float32bits(row[i]) != math.Float32bits(want) {
						t.Fatalf("AddRowBiasInto with Act(%d): element %d of %v = %v, want %v", a, i, x, row[i], want)
					}
				}
			}
		}
	}
}

// TestActivationFusedEpilogueKernels checks the bias+activation epilogues
// against their definition element by element: bit for bit on the scalar
// backend, and for the identity and the clamps on either; the AVX2
// transcendentals round their multiply-adds differently and stay inside the
// GELU envelope of the scalar kernel.
func TestActivationFusedEpilogueKernels(t *testing.T) {
	const rows, d = 5, 13 // d deliberately not a multiple of the SIMD width
	const n, c, hw = 2, 3, 9
	rng := NewRNG(31)
	x, bias := New(rows, d), New(d)
	xc, cb := New(n, c, hw), New(c)
	rng.FillNormal(x, 0, 2)
	rng.FillNormal(bias, 0, 1)
	rng.FillNormal(xc, 0, 2)
	rng.FillNormal(cb, 0, 1)
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		for _, a := range allActs {
			check := func(what string, idx int, got, pre float32) {
				t.Helper()
				want := actScalar(a, pre)
				env := geluEnvelope * (1 + math.Abs(float64(pre))) * math.Exp2(-24)
				if got != want && (!SIMDEnabled() || a.streams() || math.Abs(float64(got-want)) > env) {
					t.Fatalf("simd=%v: %s with Act(%d): element %d = %v, want %v", simd, what, a, idx, got, want)
				}
			}
			dst := make([]float32, rows*d)
			keep := scratchFor(a, len(dst))
			AddRowBiasInto(dst, x.Data, bias.Data, rows, d, a, keep)
			for idx, got := range dst {
				check("AddRowBiasInto", idx, got, x.Data[idx]+bias.Data[idx%d])
			}
			dc := make([]float32, n*c*hw)
			keep = scratchFor(a, len(dc))
			AddChanBiasInto(dc, xc.Data, cb.Data, n, c, hw, a, keep)
			for idx, got := range dc {
				check("AddChanBiasInto", idx, got, xc.Data[idx]+cb.Data[(idx/hw)%c])
			}
			if a.NeedsScratch() && keep.Pre[hw] != xc.Data[hw]+cb.Data[1] {
				t.Fatalf("AddChanBiasInto with Act(%d) retained pre-activation %v, want %v", a, keep.Pre[hw], xc.Data[hw]+cb.Data[1])
			}
		}
		SetSIMD(prev)
	}
}

// TestActivationBackwardKernels checks Act.Grad against the scalar
// definitions, bit for bit: dy becomes the pre-activation gradient in place.
func TestActivationBackwardKernels(t *testing.T) {
	const n = 41
	x := actTestInput(n, 13)
	dy := actTestInput(n, 14)
	for _, a := range allActs {
		y, keep := applied(a, x)
		dpre := append([]float32(nil), dy...)
		a.Grad(dpre, y, keep)
		for i := range dpre {
			var tt float32
			if a.NeedsScratch() {
				tt = keep.T[i]
			}
			if want := actScalarGrad(a, dy[i], x[i], y[i], tt); dpre[i] != want {
				t.Fatalf("Act(%d).Grad[%d] = %v, want %v", a, i, dpre[i], want)
			}
		}
	}
}

// TestActivationKernelsDeterministicAcrossWorkers pins the repo's
// determinism contract for the family: bit-identical outputs for any
// SetMaxWorkers value, on both dispatch backends, at sizes spanning
// several parallel blocks with a ragged tail.
func TestActivationKernelsDeterministicAcrossWorkers(t *testing.T) {
	const n = 3*actBlock + 123
	const rows, d = 67, 1000
	const bn, bc, bhw = 9, 13, 160
	x := actTestInput(n, 21)
	dy := actTestInput(n, 22)
	xr := actTestInput(rows*d, 23)
	bias := actTestInput(d, 24)
	xc := actTestInput(bn*bc*bhw, 25)
	cbias := actTestInput(bc, 26)

	run := func(a Act) map[string][]float32 {
		y, keep := applied(a, x)
		dpre := append([]float32(nil), dy...)
		a.Grad(dpre, y, keep)
		row := make([]float32, rows*d)
		AddRowBiasInto(row, xr, bias, rows, d, a, scratchFor(a, len(row)))
		ch := make([]float32, bn*bc*bhw)
		AddChanBiasInto(ch, xc, cbias, bn, bc, bhw, a, scratchFor(a, len(ch)))
		return map[string][]float32{"apply": y, "keep-pre": keep.Pre, "keep-t": keep.T, "grad": dpre, "rowbias": row, "chanbias": ch}
	}
	for _, simd := range []bool{false, true} {
		prevSIMD := SetSIMD(simd)
		if simd && !SIMDEnabled() {
			SetSIMD(prevSIMD)
			continue
		}
		prev := SetMaxWorkers(1)
		for _, a := range allActs {
			SetMaxWorkers(1)
			ref := run(a)
			for _, wk := range []int{2, 3, 8} {
				SetMaxWorkers(wk)
				for name, got := range run(a) {
					if !sameBits(got, ref[name]) {
						t.Errorf("simd=%v workers=%d: Act(%d) %s not bit-identical", simd, wk, a, name)
					}
				}
			}
		}
		SetMaxWorkers(prev)
		SetSIMD(prevSIMD)
	}
}

// TestActivationKernelZeroAllocs pins the tensor-level activation kernels
// at exactly zero allocations on the serial path.
func TestActivationKernelZeroAllocs(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	const rows, d = 32, 48
	n := rows * d
	x := actTestInput(n, 41)
	dy := actTestInput(n, 42)
	bias := actTestInput(d, 43)
	y := make([]float32, n)
	keep := scratchFor(ActGELU, n)
	if a := testing.AllocsPerRun(10, func() {
		for _, act := range allActs {
			AddRowBiasInto(y, x, bias, rows, d, act, keep)
			AddChanBiasInto(y, x, bias[:8], 4, 8, n/32, act, keep)
			act.Apply(y, keep)
			act.Grad(dy, y, keep)
		}
	}); a != 0 {
		t.Fatalf("activation kernels allocate %v/op on the serial path, want 0", a)
	}
}

func BenchmarkTanh32Row(bb *testing.B) {
	for _, n := range []int{256, 4096} {
		bb.Run(fmt.Sprintf("n%d", n), func(bb *testing.B) {
			x := actTestInput(n, 51)
			dst := make([]float32, n)
			bb.SetBytes(int64(n) * 4)
			bb.ReportAllocs()
			bb.ResetTimer()
			for i := 0; i < bb.N; i++ {
				tanhRow(dst, x)
			}
		})
	}
}

func BenchmarkSigmoid32Row(bb *testing.B) {
	const n = 4096
	x := actTestInput(n, 52)
	dst := make([]float32, n)
	bb.SetBytes(int64(n) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		sigmoidRow(dst, x)
	}
}

func BenchmarkGELU32Fwd(bb *testing.B) {
	const n = 4096
	x := actTestInput(n, 53)
	dst := make([]float32, n)
	keep := scratchFor(ActGELU, n)
	bb.SetBytes(int64(n) * 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		copy(dst, x)
		ActGELU.Apply(dst, keep)
	}
}
