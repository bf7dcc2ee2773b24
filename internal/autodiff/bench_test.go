package autodiff

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"amalgam/internal/tensor"
)

// layerNormNaive is a frozen copy of the PR 1 LayerNorm op (scalar float64
// passes, a per-call invStd slice, and a per-row tmp buffer in the
// backward). BenchmarkLayerNormStepNaive vs BenchmarkLayerNormStep in the
// same run is the fused-kernel speedup the PR 2 trajectory records.
func layerNormNaive(x, gamma, beta *Node, eps float32) *Node {
	d := x.Val.Dim(-1)
	rows := x.Val.Numel() / d
	val := tensor.Get(x.Val.Shape()...)
	xhat := tensor.Get(x.Val.Shape()...)
	invStd := make([]float64, rows)
	for r := 0; r < rows; r++ {
		src := x.Val.Data[r*d : (r+1)*d]
		var mu float64
		for _, v := range src {
			mu += float64(v)
		}
		mu /= float64(d)
		var vr float64
		for _, v := range src {
			dv := float64(v) - mu
			vr += dv * dv
		}
		vr /= float64(d)
		is := 1 / math.Sqrt(vr+float64(eps))
		invStd[r] = is
		xh := xhat.Data[r*d : (r+1)*d]
		dst := val.Data[r*d : (r+1)*d]
		for i, v := range src {
			h := float32((float64(v) - mu) * is)
			xh[i] = h
			dst[i] = gamma.Val.Data[i]*h + beta.Val.Data[i]
		}
	}
	out := newPooledNode(val, []*Node{x, gamma, beta}, nil)
	out.scratch = []*tensor.Tensor{xhat}
	out.backward = func() {
		if gamma.requiresGrad {
			gg := gamma.ensureGrad()
			for r := 0; r < rows; r++ {
				dy := out.Grad.Data[r*d : (r+1)*d]
				xh := xhat.Data[r*d : (r+1)*d]
				for i := range dy {
					gg.Data[i] += dy[i] * xh[i]
				}
			}
		}
		if beta.requiresGrad {
			bg := beta.ensureGrad()
			for r := 0; r < rows; r++ {
				dy := out.Grad.Data[r*d : (r+1)*d]
				for i := range dy {
					bg.Data[i] += dy[i]
				}
			}
		}
		if x.requiresGrad {
			xg := x.ensureGrad()
			for r := 0; r < rows; r++ {
				dy := out.Grad.Data[r*d : (r+1)*d]
				xh := xhat.Data[r*d : (r+1)*d]
				var mDy, mDyX float64
				tmp := make([]float64, d)
				for i := range dy {
					g := float64(dy[i]) * float64(gamma.Val.Data[i])
					tmp[i] = g
					mDy += g
					mDyX += g * float64(xh[i])
				}
				mDy /= float64(d)
				mDyX /= float64(d)
				dst := xg.Data[r*d : (r+1)*d]
				for i := range dst {
					dst[i] += float32(invStd[r] * (tmp[i] - mDy - float64(xh[i])*mDyX))
				}
			}
		}
	}
	return out
}

// softmaxCrossEntropyNaive is a frozen copy of the PR 1 fused loss head
// (math.Exp per element, scalar backward).
func softmaxCrossEntropyNaive(logits *Node, labels []int) *Node {
	n, c := logits.Val.Dim(0), logits.Val.Dim(1)
	probs := tensor.Get(n, c)
	var loss float64
	for r := 0; r < n; r++ {
		row := logits.Val.Data[r*c : (r+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		prow := probs.Data[r*c : (r+1)*c]
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			prow[j] = float32(e)
			sum += e
		}
		inv := 1 / sum
		for j := range prow {
			prow[j] = float32(float64(prow[j]) * inv)
		}
		p := float64(prow[labels[r]])
		if p < 1e-30 {
			p = 1e-30
		}
		loss -= math.Log(p)
	}
	val := tensor.FromSlice([]float32{float32(loss / float64(n))}, 1)
	out := newNode(val, []*Node{logits}, nil)
	out.scratch = []*tensor.Tensor{probs}
	out.backward = func() {
		if logits.requiresGrad {
			g := logits.ensureGrad()
			scale := out.Grad.Data[0] / float32(n)
			for r := 0; r < n; r++ {
				prow := probs.Data[r*c : (r+1)*c]
				grow := g.Data[r*c : (r+1)*c]
				y := labels[r]
				for j, p := range prow {
					d := p
					if j == y {
						d -= 1
					}
					grow[j] += scale * d
				}
			}
		}
	}
	return out
}

// softmaxLastDimNaive is a frozen copy of the PR 1 row softmax op.
func softmaxLastDimNaive(a *Node) *Node {
	rows, cols := a.Val.Dim(0), a.Val.Dim(1)
	val := tensor.Get(rows, cols)
	for r := 0; r < rows; r++ {
		src := a.Val.Data[r*cols : (r+1)*cols]
		dst := val.Data[r*cols : (r+1)*cols]
		maxv := src[0]
		for _, v := range src[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range src {
			e := math.Exp(float64(v - maxv))
			dst[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
	}
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			for r := 0; r < rows; r++ {
				s := val.Data[r*cols : (r+1)*cols]
				dy := out.Grad.Data[r*cols : (r+1)*cols]
				var dot float32
				for j := range s {
					dot += s[j] * dy[j]
				}
				grow := g.Data[r*cols : (r+1)*cols]
				for j := range s {
					grow[j] += s[j] * (dy[j] - dot)
				}
			}
		}
	}
	return out
}

// benchConvStep runs one training step (forward + backward) of a small conv
// stack at quick-experiment scale: batch 16 of 1×28×28 through an 8-channel
// 3×3 conv, ReLU, and a linear head. This is the allocation profile the
// scratch pool targets; run with -benchmem and compare allocs/op against
// the PR 1 row of bench/README.md's "Historical context" table.
func benchConvStep(b *testing.B, batch int) {
	rng := tensor.NewRNG(7)
	x := tensor.New(batch, 1, 28, 28)
	rng.FillNormal(x, 0, 1)
	w := tensor.New(8, 1, 3, 3)
	rng.FillNormal(w, 0, 0.3)
	bias := tensor.New(8)
	rng.FillNormal(bias, 0, 0.1)
	fc := tensor.New(8*28*28, 10)
	rng.FillNormal(fc, 0, 0.05)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}

	wN, bN, fcN := Leaf(w), Leaf(bias), Leaf(fc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wN.ZeroGrad()
		bN.ZeroGrad()
		fcN.ZeroGrad()
		h := ReLU(Conv2d(Constant(x), wN, bN, 1, 1))
		logits := MatMul(Flatten(h), fcN)
		loss := SoftmaxCrossEntropy(logits, labels)
		Backward(loss)
		Release(loss)
	}
}

func BenchmarkConv2dTrainStep(b *testing.B) { benchConvStep(b, 16) }

// benchLayerNormStep measures one LayerNorm forward+backward at
// transformer scale ([N*T, D] = [256, 256]); the fused vs naive ratio in
// one run is the PR 2 acceptance number.
func benchLayerNormStep(b *testing.B, op func(x, gamma, beta *Node, eps float32) *Node) {
	rng := tensor.NewRNG(11)
	x := tensor.New(256, 256)
	rng.FillNormal(x, 0, 1)
	gamma := tensor.Ones(256)
	beta := tensor.New(256)
	xN, gN, btN := Leaf(x), Leaf(gamma), Leaf(beta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xN.ZeroGrad()
		gN.ZeroGrad()
		btN.ZeroGrad()
		loss := Mean(op(xN, gN, btN, 1e-5))
		Backward(loss)
		Release(loss)
	}
}

func BenchmarkLayerNormStep(b *testing.B)      { benchLayerNormStep(b, LayerNorm) }
func BenchmarkLayerNormStepNaive(b *testing.B) { benchLayerNormStep(b, layerNormNaive) }

// benchSoftmaxXentStep measures the fused softmax-cross-entropy loss head
// forward+backward on [256, 256] logits.
func benchSoftmaxXentStep(b *testing.B, op func(logits *Node, labels []int) *Node) {
	rng := tensor.NewRNG(12)
	logits := tensor.New(256, 256)
	rng.FillNormal(logits, 0, 2)
	labels := make([]int, 256)
	for i := range labels {
		labels[i] = i % 256
	}
	lN := Leaf(logits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lN.ZeroGrad()
		loss := op(lN, labels)
		Backward(loss)
		Release(loss)
	}
}

func BenchmarkSoftmaxXentStep(b *testing.B)      { benchSoftmaxXentStep(b, SoftmaxCrossEntropy) }
func BenchmarkSoftmaxXentStepNaive(b *testing.B) { benchSoftmaxXentStep(b, softmaxCrossEntropyNaive) }

// benchSoftmaxLastDimStep measures the attention-shaped row softmax
// ([N*H*T, T] = [512, 64]) forward+backward.
func benchSoftmaxLastDimStep(b *testing.B, op func(a *Node) *Node) {
	rng := tensor.NewRNG(13)
	x := tensor.New(512, 64)
	rng.FillNormal(x, 0, 1)
	xN := Leaf(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xN.ZeroGrad()
		loss := Mean(op(xN))
		Backward(loss)
		Release(loss)
	}
}

func BenchmarkSoftmaxLastDimStep(b *testing.B)      { benchSoftmaxLastDimStep(b, SoftmaxLastDim) }
func BenchmarkSoftmaxLastDimStepNaive(b *testing.B) { benchSoftmaxLastDimStep(b, softmaxLastDimNaive) }

// BenchmarkBatchNorm2dStep measures BatchNorm2d forward+backward at CIFAR
// feature-map scale ([16, 32, 16, 16]).
func BenchmarkBatchNorm2dStep(b *testing.B) {
	rng := tensor.NewRNG(14)
	x := tensor.New(16, 32, 16, 16)
	rng.FillNormal(x, 0, 1)
	gamma := tensor.Ones(32)
	beta := tensor.New(32)
	rm := tensor.New(32)
	rv := tensor.Ones(32)
	xN, gN, btN := Leaf(x), Leaf(gamma), Leaf(beta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xN.ZeroGrad()
		gN.ZeroGrad()
		btN.ZeroGrad()
		loss := Mean(BatchNorm2d(xN, gN, btN, rm, rv, 0.1, 1e-5, true))
		Backward(loss)
		Release(loss)
	}
}

// BenchmarkLinearTrainStep isolates the fully-connected hot path (the
// transformer/MLP profile): forward + backward of a 2-layer MLP.
func BenchmarkLinearTrainStep(b *testing.B) {
	rng := tensor.NewRNG(9)
	x := tensor.New(64, 256)
	rng.FillNormal(x, 0, 1)
	w1 := tensor.New(256, 512)
	rng.FillNormal(w1, 0, 0.05)
	w2 := tensor.New(512, 10)
	rng.FillNormal(w2, 0, 0.05)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 10
	}
	w1N, w2N := Leaf(w1), Leaf(w2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w1N.ZeroGrad()
		w2N.ZeroGrad()
		loss := SoftmaxCrossEntropy(MatMul(ReLU(MatMul(Constant(x), w1N)), w2N), labels)
		Backward(loss)
		Release(loss)
	}
}

// BenchmarkLinearXentHead measures a language model's loss head, forward +
// backward, at lm_local's geometry — 1008 = 16·63 positions onto a 2000-word
// vocabulary from the decoys' 56-wide and the original's 128-wide features
// — fused against the MatMul → AddRowBias → SoftmaxCrossEntropy referee.
// x is interior (its gradient is produced), as the features are in a model.
func BenchmarkLinearXentHead(b *testing.B) {
	const rows, vocab = 1008, 2000
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = (i * 37) % vocab
	}
	heads := map[string]func(x, w, bias *Node) *Node{
		"fused": func(x, w, bias *Node) *Node { return LinearSoftmaxCrossEntropy(x, w, bias, labels) },
		"referee": func(x, w, bias *Node) *Node {
			return SoftmaxCrossEntropy(AddRowBias(MatMul(x, w), bias), labels)
		},
	}
	for _, d := range []int{56, 128} {
		rng := tensor.NewRNG(13)
		x, w, bias := tensor.New(rows, d), tensor.New(d, vocab), tensor.New(vocab)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(w, 0, 0.05)
		xN, wN, bN := Leaf(x), Leaf(w), Leaf(bias)
		for _, name := range []string{"fused", "referee"} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", name, rows, d, vocab), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					xN.ZeroGrad()
					wN.ZeroGrad()
					bN.ZeroGrad()
					loss := heads[name](Scale(xN, 1), wN, bN)
					Backward(loss)
					Release(loss)
				}
			})
		}
	}
}

// tanhNaive is a frozen copy of the PR 2-era Tanh op (per-element float64
// math.Tanh round-trip). BenchmarkTanhStepNaive vs BenchmarkTanhStep in
// the same run is the PR 5 activation-kernel speedup.
func tanhNaive(a *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.ApplyInto(val, a.Val, func(v float32) float32 {
		return float32(math.Tanh(float64(v)))
	})
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, th := range val.Data {
				g.Data[i] += out.Grad.Data[i] * (1 - th*th)
			}
		}
	}
	return out
}

// geluNaive is a frozen copy of the PR 2-era GELU op (float64 math.Tanh in
// the forward AND the backward).
func geluNaive(a *Node) *Node {
	const c = 0.7978845608028654
	val := tensor.Get(a.Val.Shape()...)
	tensor.ApplyInto(val, a.Val, func(v float32) float32 {
		x := float64(v)
		return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	})
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, v := range a.Val.Data {
				x := float64(v)
				t := math.Tanh(c * (x + 0.044715*x*x*x))
				dt := (1 - t*t) * c * (1 + 3*0.044715*x*x)
				d := 0.5*(1+t) + 0.5*x*dt
				g.Data[i] += out.Grad.Data[i] * float32(d)
			}
		}
	}
	return out
}

// sigmoidNaive is a frozen copy of the PR 2-era Sigmoid op.
func sigmoidNaive(a *Node) *Node {
	val := tensor.Get(a.Val.Shape()...)
	tensor.ApplyInto(val, a.Val, func(v float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(v))))
	})
	out := newPooledNode(val, []*Node{a}, nil)
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, s := range val.Data {
				g.Data[i] += out.Grad.Data[i] * s * (1 - s)
			}
		}
	}
	return out
}

// benchActStep measures one activation forward+backward at transformer
// scale ([N*T, D] = [256, 256]).
func benchActStep(b *testing.B, op func(*Node) *Node) {
	rng := tensor.NewRNG(15)
	x := tensor.New(256, 256)
	rng.FillNormal(x, 0, 2)
	xN := Leaf(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xN.ZeroGrad()
		loss := Mean(op(xN))
		Backward(loss)
		Release(loss)
	}
}

func BenchmarkTanhStep(b *testing.B)         { benchActStep(b, Tanh) }
func BenchmarkTanhStepNaive(b *testing.B)    { benchActStep(b, tanhNaive) }
func BenchmarkSigmoidStep(b *testing.B)      { benchActStep(b, Sigmoid) }
func BenchmarkSigmoidStepNaive(b *testing.B) { benchActStep(b, sigmoidNaive) }
func BenchmarkGELUStep(b *testing.B)         { benchActStep(b, GELU) }
func BenchmarkGELUStepNaive(b *testing.B)    { benchActStep(b, geluNaive) }

// benchGELUFFStep measures a GELU transformer feed-forward half-block
// ([N*T, D]·[D, FF] + bias + GELU, forward+backward) — fused LinearGELU vs
// the frozen float64 GELU over the unfused composition.
func benchGELUFFStep(b *testing.B, fused bool) {
	rng := tensor.NewRNG(16)
	x := tensor.New(256, 200)
	w := tensor.New(200, 200)
	bias := tensor.New(200)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.05)
	rng.FillNormal(bias, 0, 0.05)
	xN, wN, bN := Leaf(x), Leaf(w), Leaf(bias)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xN.ZeroGrad()
		wN.ZeroGrad()
		bN.ZeroGrad()
		var h *Node
		if fused {
			h = LinearGELU(xN, wN, bN)
		} else {
			h = geluNaive(AddRowBias(MatMul(xN, wN), bN))
		}
		loss := Mean(h)
		Backward(loss)
		Release(loss)
	}
}

func BenchmarkGELUFFStep(b *testing.B)      { benchGELUFFStep(b, true) }
func BenchmarkGELUFFStepNaive(b *testing.B) { benchGELUFFStep(b, false) }

// conv2dRetained is a frozen copy of the PR 1/2 conv core that keeps every
// per-image column matrix alive from forward through backward. It exists
// only to measure what the streaming rewrite saves: same arithmetic, same
// determinism, n× the column memory.
func conv2dRetained(x, w *Node, stride, pad int) *Node {
	xs, ws := x.Val.Shape(), w.Val.Shape()
	n, oc := xs[0], ws[0]
	g := &tensor.ConvGeom{
		InC: xs[1], InH: xs[2], InW: xs[3],
		KH: ws[2], KW: ws[3],
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	kdim := g.InC * g.KH * g.KW
	ncols := g.OutH * g.OutW
	imgIn := g.InC * g.InH * g.InW
	imgOut := oc * ncols

	val := tensor.Get(n, oc, g.OutH, g.OutW)
	colsPer := make([]*tensor.Tensor, n)
	forEachImage(n, func(b int) {
		cols := tensor.Get(kdim, ncols)
		tensor.Im2Col(cols, x.Val.Data[b*imgIn:(b+1)*imgIn], g)
		tensor.MatMulRawInto(val.Data[b*imgOut:(b+1)*imgOut], w.Val.Data, cols.Data, oc, kdim, ncols)
		colsPer[b] = cols
	})
	conv := newPooledNode(val, []*Node{x, w}, nil)
	conv.scratch = colsPer
	conv.backward = func() {
		if w.requiresGrad {
			wd := w.ensureGrad().Data
			tmp := tensor.Get(oc, kdim)
			for b := 0; b < n; b++ {
				tensor.MatMulBTRawInto(tmp.Data, conv.Grad.Data[b*imgOut:(b+1)*imgOut], colsPer[b].Data, oc, ncols, kdim)
				tensor.AddRawInto(wd, tmp.Data)
			}
			tensor.Put(tmp)
		}
		if x.requiresGrad {
			xg := x.ensureGrad()
			forEachImage(n, func(b int) {
				dcols := tensor.Get(kdim, ncols)
				tensor.MatMulATRawInto(dcols.Data, w.Val.Data, conv.Grad.Data[b*imgOut:(b+1)*imgOut], kdim, oc, ncols)
				tensor.Col2Im(xg.Data[b*imgIn:(b+1)*imgIn], dcols, g)
				tensor.Put(dcols)
			})
		}
		for b, cols := range colsPer {
			tensor.Put(cols)
			colsPer[b] = nil
		}
	}
	return conv
}

// benchConvBackward runs one conv training step (forward+backward) at
// batch 32 on either conv core with a warm pool — the throughput view of
// the streaming rewrite, at a shallow (im2col-heavy) and a deep
// (matmul-heavy) channel shape. The streamed backward pays one extra
// im2col per image; these sub-benches record that cost next to the
// cold-pool benches' memory win.
func benchConvBackward(b *testing.B, core func(x, w *Node, stride, pad int) *Node) {
	shapes := []struct {
		name             string
		inC, outC, h, wd int
	}{
		{"shallow-3ch", 3, 8, 16, 16},
		{"deep-16ch", 16, 32, 12, 12},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			rng := tensor.NewRNG(17)
			x := tensor.New(32, s.inC, s.h, s.wd)
			rng.FillNormal(x, 0, 1)
			w := tensor.New(s.outC, s.inC, 3, 3)
			rng.FillNormal(w, 0, 0.3)
			xN, wN := Leaf(x), Leaf(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xN.ZeroGrad()
				wN.ZeroGrad()
				loss := Mean(core(xN, wN, 1, 1))
				Backward(loss)
				Release(loss)
			}
		})
	}
}

func convStreamedCore(x, w *Node, stride, pad int) *Node { return Conv2d(x, w, nil, stride, pad) }

func BenchmarkConvBackwardStreamed(b *testing.B) { benchConvBackward(b, convStreamedCore) }
func BenchmarkConvBackwardRetained(b *testing.B) { benchConvBackward(b, conv2dRetained) }

// benchConvBackwardColdPool is the peak-memory view: two GC cycles before
// each step empty the scratch pool (sync.Pool's victim cache survives one
// GC), so bytes/op ≈ the step's whole working set — which is where keeping
// n column matrices alive shows up against streaming one.
func benchConvBackwardColdPool(b *testing.B, batch int, core func(x, w *Node, stride, pad int) *Node) {
	prev := tensor.SetMaxWorkers(1) // one in-flight column buffer when streaming
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(18)
	x := tensor.New(batch, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	w := tensor.New(8, 3, 3, 3)
	rng.FillNormal(w, 0, 0.3)
	xN, wN := Leaf(x), Leaf(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		xN.ZeroGrad()
		wN.ZeroGrad()
		loss := Mean(core(xN, wN, 1, 1))
		Backward(loss)
		Release(loss)
	}
}

func BenchmarkConvBackwardColdPoolStreamed(b *testing.B) {
	benchConvBackwardColdPool(b, 64, convStreamedCore)
}

func BenchmarkConvBackwardColdPoolRetained(b *testing.B) {
	benchConvBackwardColdPool(b, 64, conv2dRetained)
}
