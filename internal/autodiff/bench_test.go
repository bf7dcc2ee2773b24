package autodiff

import (
	"fmt"
	"runtime"
	"testing"

	"amalgam/internal/tensor"
)

// resnet18Stages are the 3×3 convolutions of the zoo resnet18 on 3×32×32 at
// cv_local's batch, one per stage, named OC×kdim×positions: stage 1 is
// lowered one image per block, stage 4 nearly the whole batch at once.
var resnet18Stages = []convShape{
	{"stage1-64x576x1024", 16, 64, 64, 32, 32},
	{"stage2-128x1152x256", 16, 128, 128, 16, 16},
	{"stage3-256x2304x64", 16, 256, 256, 8, 8},
	{"stage4-512x4608x16", 16, 512, 512, 4, 4},
}

type convShape struct {
	name                      string
	batch, inC, outC, h, wdth int
}

// benchConvStep runs one training step (forward + backward) of a small conv
// stack: a batch of inC×h×w through an outC-channel 3×3 conv + bias + ReLU
// and a linear head. "quick" is the quick-experiment scale (batch 16 of
// 1×28×28, 8 channels), the allocation profile the scratch pool targets.
func benchConvStep(b *testing.B, s convShape) {
	rng := tensor.NewRNG(7)
	x := tensor.New(s.batch, s.inC, s.h, s.wdth)
	rng.FillNormal(x, 0, 1)
	w := tensor.New(s.outC, s.inC, 3, 3)
	rng.FillNormal(w, 0, 0.3)
	bias := tensor.New(s.outC)
	rng.FillNormal(bias, 0, 0.1)
	fc := tensor.New(s.outC*s.h*s.wdth, 10)
	rng.FillNormal(fc, 0, 0.05)
	labels := make([]int, s.batch)
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
		h := Conv2d(Constant(x), wN, bN, 1, 1, tensor.ActReLU)
		logits := MatMul(Flatten(h), fcN)
		loss := SoftmaxCrossEntropy(logits, labels)
		Backward(loss)
		Release(loss)
	}
}

func BenchmarkConv2dTrainStep(b *testing.B) {
	for _, s := range append([]convShape{{"quick", 16, 1, 8, 28, 28}}, resnet18Stages...) {
		b.Run(s.name, func(b *testing.B) { benchConvStep(b, s) })
	}
}

// BenchmarkLayerNormStep measures one LayerNorm forward+backward at
// transformer scale ([N*T, D] = [256, 256]).
func BenchmarkLayerNormStep(b *testing.B) {
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
		loss := Mean(LayerNorm(xN, gN, btN, 1e-5))
		Backward(loss)
		Release(loss)
	}
}

// BenchmarkSoftmaxXentStep measures the fused softmax-cross-entropy loss
// head forward+backward on [256, 256] logits.
func BenchmarkSoftmaxXentStep(b *testing.B) {
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
		loss := SoftmaxCrossEntropy(lN, labels)
		Backward(loss)
		Release(loss)
	}
}

// BenchmarkSoftmaxLastDimStep measures the attention-shaped row softmax
// ([N*H*T, T] = [512, 64]) forward+backward.
func BenchmarkSoftmaxLastDimStep(b *testing.B) {
	rng := tensor.NewRNG(13)
	x := tensor.New(512, 64)
	rng.FillNormal(x, 0, 1)
	xN := Leaf(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xN.ZeroGrad()
		loss := Mean(SoftmaxLastDim(xN))
		Backward(loss)
		Release(loss)
	}
}

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
		loss := Mean(BatchNorm2d(xN, gN, btN, rm, rv, 0.1, 1e-5, true, tensor.ActNone))
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
		loss := SoftmaxCrossEntropy(MatMul(Activate(MatMul(Constant(x), w1N), tensor.ActReLU), w2N), labels)
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
			return SoftmaxCrossEntropy(AddRowBias(MatMul(x, w), bias, tensor.ActNone), labels)
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

// BenchmarkDecoyTail runs one cv_local decoy's tail forward+backward at
// batch 16: pooled 32 features → Linear 32 → 43 000 + ReLU → concat with a
// 16-wide tap → head 43 016 → 10 → cross-entropy. It is where a decoy parks
// its parameter budget: 1.8 M weights, ≈90 MFLOP, so weight traffic decides.
func BenchmarkDecoyTail(b *testing.B) {
	const batch, c1, mid, tap, classes = 16, 32, 43000, 16, 10
	rng := tensor.NewRNG(21)
	x, tv := tensor.New(batch, c1), tensor.New(batch, tap)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(tv, 0, 1)
	w1, b1 := tensor.New(c1, mid), tensor.New(mid)
	w2, b2 := tensor.New(mid+tap, classes), tensor.New(classes)
	rng.FillNormal(w1, 0, 0.2)
	rng.FillNormal(w2, 0, 0.01)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % classes
	}
	xN, leaves := Leaf(x), []*Node{Leaf(w1), Leaf(b1), Leaf(w2), Leaf(b2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xN.ZeroGrad()
		for _, l := range leaves {
			l.ZeroGrad()
		}
		g := Linear(Scale(xN, 1), leaves[0], leaves[1], tensor.ActReLU)
		logits := Linear(ConcatFeatures(g, Constant(tv)), leaves[2], leaves[3], tensor.ActNone)
		loss := SoftmaxCrossEntropy(logits, labels)
		Backward(loss)
		Release(loss)
	}
}

// BenchmarkActStep measures one standalone activation forward+backward at
// transformer scale ([N*T, D] = [256, 256]).
func BenchmarkActStep(b *testing.B) {
	rng := tensor.NewRNG(15)
	x := tensor.New(256, 256)
	rng.FillNormal(x, 0, 2)
	xN := Leaf(x)
	for _, act := range allActs[1:] {
		b.Run(actNames[act], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				xN.ZeroGrad()
				loss := Mean(Activate(xN, act))
				Backward(loss)
				Release(loss)
			}
		})
	}
}

// BenchmarkGELUFFStep measures a GELU transformer feed-forward half-block
// ([N*T, D]·[D, FF] + bias + GELU, forward+backward) as one fused node.
func BenchmarkGELUFFStep(b *testing.B) {
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
		loss := Mean(Linear(xN, wN, bN, tensor.ActGELU))
		Backward(loss)
		Release(loss)
	}
}

// BenchmarkConvBackward runs one conv forward+backward (dX and dW) with a
// warm pool: at batch 32 a shallow (lowering-heavy) and a deep (matmul-heavy)
// channel shape, then resnet18's four stage geometries — the per-stage
// read-out of what block GEMMs buy.
func BenchmarkConvBackward(b *testing.B) {
	shapes := append([]convShape{
		{"shallow-3ch", 32, 3, 8, 16, 16},
		{"deep-16ch", 32, 16, 32, 12, 12},
	}, resnet18Stages...)
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			rng := tensor.NewRNG(17)
			x := tensor.New(s.batch, s.inC, s.h, s.wdth)
			rng.FillNormal(x, 0, 1)
			w := tensor.New(s.outC, s.inC, 3, 3)
			rng.FillNormal(w, 0, 0.3)
			xN, wN := Leaf(x), Leaf(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xN.ZeroGrad()
				wN.ZeroGrad()
				loss := Mean(Conv2d(xN, wN, nil, 1, 1, tensor.ActNone))
				Backward(loss)
				Release(loss)
			}
		})
	}
}

// BenchmarkConvBackwardColdPool is the peak-memory view: two GC cycles
// before each step empty the scratch pool (sync.Pool's victim cache survives
// one GC), so bytes/op ≈ the step's whole working set — one block's lowered
// matrix, not one per image.
func BenchmarkConvBackwardColdPool(b *testing.B) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(18)
	x := tensor.New(64, 3, 16, 16)
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
		loss := Mean(Conv2d(xN, wN, nil, 1, 1, tensor.ActNone))
		Backward(loss)
		Release(loss)
	}
}
