package autodiff

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"amalgam/internal/tensor"
)

// TestBackwardReleasesAsItGoes pins the three lifetimes on a graph that has
// every kind of holder: a norm with scratch, a dropout mask, a residual add,
// a reshape view and a fused loss head whose scratch is the largest buffer.
func TestBackwardReleasesAsItGoes(t *testing.T) {
	rng := tensor.NewRNG(71)
	x := tensor.New(4, 6)
	rng.FillNormal(x, 0, 1)
	w, b := Leaf(tensor.New(6, 6)), Leaf(tensor.New(6))
	rng.FillNormal(w.Val, 0, 0.5)
	gamma, beta := Leaf(tensor.Ones(6)), Leaf(tensor.New(6))

	h := Linear(Constant(x), w, b, tensor.ActTanh)
	norm := LayerNorm(Add(h, Dropout(h, 0.5, rng, true)), gamma, beta, 1e-5)
	view := Reshape(norm, 2, 12)
	orig := LinearSoftmaxCrossEntropy(Reshape(view, 4, 6), w, b, []int{0, 1, 2, 3})
	total := AddN(orig, Mean(view))

	if grads, scratch := Retained(total); grads != 0 || scratch != 3 {
		t.Fatalf("before Backward: %d gradients, %d scratch holders; want 0 and 3 (dropout, norm, loss head)", grads, scratch)
	}
	Backward(total)
	if grads, scratch := Retained(total); grads != 0 || scratch != 0 {
		t.Fatalf("after Backward %d interior gradients and %d scratch holders are still alive", grads, scratch)
	}
	for _, n := range []*Node{h, norm, view, orig, total} {
		if n.backward != nil {
			t.Fatal("a consumed node kept its backward closure (and everything it captured)")
		}
	}
	// Values outlive Backward: the training loop reads the original loss,
	// and views alias other nodes' storage.
	if orig.Scalar() <= 0 || view.Val.Data[0] != norm.Val.Data[0] {
		t.Fatal("a value was released before Release")
	}
	for _, p := range []*Node{w, b, gamma, beta} {
		if p.Grad == nil {
			t.Fatal("a leaf gradient did not survive Backward")
		}
	}
	wGrad := w.Grad.Clone()
	Release(total)
	Release(total) // idempotent over an already-drained graph
	if !w.Grad.Equal(wGrad) || norm.Val != nil {
		t.Fatal("Release must keep leaf gradients and return interior values")
	}
	a, c := tensor.Get(4, 6), tensor.Get(4, 6)
	if &a.Data[0] == &c.Data[0] {
		t.Fatal("a buffer Backward already handed back was put into the pool again by Release")
	}
	tensor.Put(a)
	tensor.Put(c)
}

// TestLeafGradientsAreExactSize: a parameter's gradient is never handed
// back, so it must not sit in a power-of-two pool bucket for the job's life.
func TestLeafGradientsAreExactSize(t *testing.T) {
	rng := tensor.NewRNG(72)
	x := tensor.New(2, 3, 5, 5)
	rng.FillNormal(x, 0, 1)
	w, b := Leaf(tensor.New(5, 3, 3, 3)), Leaf(tensor.New(5)) // 135 floats: a 256 bucket
	rng.FillNormal(w.Val, 0, 0.3)
	fw, fb := Leaf(tensor.New(5, 3)), Leaf(tensor.New(3))
	rng.FillNormal(fw.Val, 0, 0.3)
	step := func() {
		loss := Mean(Linear(GlobalAvgPool(Conv2d(Constant(x), w, b, 1, 1, tensor.ActReLU)), fw, fb, tensor.ActNone))
		Backward(loss)
		Release(loss)
	}
	step()
	for _, p := range []*Node{w, b, fw, fb} {
		if got, want := cap(p.Grad.Data), p.Val.Numel(); got != want {
			t.Errorf("leaf gradient of shape %v holds %d floats, want exactly %d", p.Val.Shape(), got, want)
		}
	}
	first := w.Grad
	w.ZeroGrad()
	step()
	if w.Grad != first {
		t.Fatal("a later step replaced the leaf's gradient buffer instead of accumulating into it")
	}
}

// TestBackwardConsumesTheGraph: a second Backward that reaches a consumed
// node must say so instead of silently stopping there, while roots over
// disjoint graphs (sharing only leaves) do not disturb each other.
func TestBackwardConsumesTheGraph(t *testing.T) {
	w := Leaf(tensor.FromSlice([]float32{1, 2, 3}, 3))
	shared := Scale(w, 2).Named("trunk")
	first, second := Sum(shared), Mean(shared)
	Backward(first)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "a second time") || !strings.Contains(msg, "trunk") {
				t.Fatalf("Backward through a consumed node: recovered %q, want the second-time panic naming the node", msg)
			}
		}()
		Backward(second)
	}()
	if w.Grad.Data[0] != 2 {
		t.Fatalf("the refused Backward changed a leaf gradient: %v", w.Grad.Data)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Backward over the same root twice did not panic")
			}
		}()
		Backward(first)
	}()

	// Disjoint graphs over the same leaf: both run, gradients accumulate.
	v := Leaf(tensor.FromSlice([]float32{1, 2}, 2))
	r1, r2 := Sum(Scale(v, 3)), Sum(Scale(v, 4))
	Backward(r1)
	Backward(r2)
	if v.Grad.Data[0] != 7 || v.Grad.Data[1] != 7 {
		t.Fatalf("two roots over disjoint graphs: leaf gradient %v, want [7 7]", v.Grad.Data)
	}
	Release(r1)
	Release(r2)
}

// coldBucketMisses counts how often one forward+Backward of build misses the
// pool bucket that serves numel floats, starting from an empty bucket with
// the collector off and one P, so every buffer handed back is the next one
// handed out: the count is the number of such buffers alive at once.
func coldBucketMisses(t *testing.T, numel int, build func() *Node) int {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	runtime.GC()
	runtime.GC() // twice: sync.Pool keeps a victim generation
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, m0 := tensor.PoolBucketStats(numel)
	root := build()
	Backward(root)
	_, m1 := tensor.PoolBucketStats(numel)
	Release(root)
	return int(m1 - m0)
}

// TestBackwardFootprint pins the peak number of activation-sized buffers a
// step holds. Per conv→BN→ReLU unit that is the two values (conv.Val and
// the fused norm's output) and nothing else: gradients and column scratch
// are a constant-size frontier. Keeping every gradient until Release costs
// 2 more per unit, a retained x̂ or an unfused ReLU another one each.
func TestBackwardFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const k, frontier = 8, 4
	rng := tensor.NewRNG(73)

	t.Run("conv-bn-relu", func(t *testing.T) {
		const n, c, hw = 8, 8, 16 // n·c·hw² = 1<<14; columns and weights sit in other buckets
		x := tensor.New(n, c, hw, hw)
		rng.FillNormal(x, 0, 1)
		var ws, gs, bs []*Node
		for i := 0; i < k; i++ {
			w := tensor.New(c, c, 3, 3)
			rng.FillNormal(w, 0, 0.2)
			ws, gs, bs = append(ws, Leaf(w)), append(gs, Leaf(tensor.Ones(c))), append(bs, Leaf(tensor.New(c)))
		}
		misses := coldBucketMisses(t, n*c*hw*hw, func() *Node {
			h := Constant(x)
			for i := 0; i < k; i++ {
				h = BatchNorm2d(Conv2d(h, ws[i], nil, 1, 1, tensor.ActNone), gs[i], bs[i], tensor.New(c), tensor.Ones(c), 0.1, 1e-5, true, tensor.ActReLU)
			}
			return Mean(h)
		})
		if misses > 2*k+frontier {
			t.Fatalf("a %d-deep conv→BN→ReLU chain held %d activation-sized buffers at once, want at most 2 per unit + %d", k, misses, frontier)
		}
	})

	t.Run("linear-tanh", func(t *testing.T) {
		const n, d = 64, 32 // n·d = 1<<11; the [d, d] weights sit one bucket down
		x := tensor.New(n, d)
		rng.FillNormal(x, 0, 1)
		var ws, bs []*Node
		for i := 0; i < k; i++ {
			w := tensor.New(d, d)
			rng.FillNormal(w, 0, 0.2)
			ws, bs = append(ws, Leaf(w)), append(bs, Leaf(tensor.New(d)))
		}
		misses := coldBucketMisses(t, n*d, func() *Node {
			h := Constant(x)
			for i := 0; i < k; i++ {
				h = Activate(Linear(h, ws[i], bs[i], tensor.ActNone), tensor.ActTanh)
			}
			return Mean(h)
		})
		if misses > 2*k+frontier {
			t.Fatalf("a %d-deep Linear→Tanh chain held %d activation-sized buffers at once, want at most 2 per unit + %d", k, misses, frontier)
		}
	})
}
