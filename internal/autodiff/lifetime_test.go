package autodiff

import (
	"math/bits"
	"strings"
	"testing"

	"amalgam/internal/tensor"
)

// TestBackwardReleasesAsItGoes pins the three lifetimes on a graph that has
// every kind of holder: a norm with scratch, a dropout mask, a residual add,
// a reshape view and a fused loss head, which holds no scratch at all: its
// backward forms its logits again, block by block.
func TestBackwardReleasesAsItGoes(t *testing.T) {
	rng := tensor.NewRNG(71)
	x := tensor.New(4, 6)
	rng.FillNormal(x, 0, 1)
	w, b := Leaf(tensor.New(6, 6)), Leaf(tensor.New(6))
	rng.FillNormal(w.Val, 0, 0.5)
	gamma, beta := Leaf(tensor.Ones(6)), Leaf(tensor.New(6))

	h := Linear(Constant(x), w, b, tensor.ActTanh, nil)
	norm := LayerNorm(Add(h, Dropout(h, 0.5, rng, true, nil)), gamma, beta, 1e-5)
	view := Reshape(norm, 2, 12)
	orig := LinearSoftmaxCrossEntropy(Reshape(view, 4, 6), w, b, []int{0, 1, 2, 3})
	total := AddN(orig, Mean(view))

	if grads, scratch := Retained(total); grads != 0 || scratch != 2 {
		t.Fatalf("before Backward: %d gradients, %d scratch holders; want 0 and 2 (dropout, norm; the loss head holds none)", grads, scratch)
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
		loss := Mean(Linear(GlobalAvgPool(Conv2d(Constant(x), w, b, 1, 1, tensor.ActReLU)), fw, fb, tensor.ActNone, nil))
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
// pool bucket that serves numel floats, starting from an empty bucket. The
// pool is LIFO and keeps what it is handed, so every buffer handed back is
// the next one handed out: the count is the number of such buffers alive at
// once. One kernel worker, so that no two chunks hold one at the same time.
func coldBucketMisses(t *testing.T, numel int, build func() *Node) int {
	t.Helper()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	emptyBucket(numel)
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
				h = BatchNorm2d(Conv2d(h, ws[i], nil, 1, 1, tensor.ActNone), gs[i], bs[i], tensor.New(c), tensor.Ones(c), 0.1, 1e-5, true, tensor.ActReLU, nil)
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
				h = Activate(Linear(h, ws[i], bs[i], tensor.ActNone, nil), tensor.ActTanh)
			}
			return Mean(h)
		})
		if misses > 2*k+frontier {
			t.Fatalf("a %d-deep Linear→Tanh chain held %d activation-sized buffers at once, want at most 2 per unit + %d", k, misses, frontier)
		}
	})
}

// keepStep is a LeafStep that updates nothing and leaves every gradient on
// its leaf: Backward under a step, gradients as without one.
type keepStep struct{}

func (keepStep) Reuse(*Node) *tensor.Tensor { return nil }
func (keepStep) Step(*Node)                 {}

// TestStepBackwardReturnsValues pins the value lifetime under a step on a
// graph with two components, a residual block, an attention (whose backward
// reads its operands' values and its P after taking buffers), a softmax (the
// referee's, attention_test.go: its backward reads its own value after
// taking a buffer of that value's size, the one the pool hands out next if
// the value went back early) and a decoy that reads the original through
// Detach of a Reshape view. Without a
// step every value stays readable. With one, the gradients are the same bit
// for bit; the root, the loss scalar and the detached value are still
// readable and every other pooled value is back in the pool before Release;
// Release returns the rest, and no buffer goes back twice.
func TestStepBackwardReturnsValues(t *testing.T) {
	rng := tensor.NewRNG(74)
	leaf := func(scale float64, shape ...int) *Node {
		v := tensor.New(shape...)
		rng.FillNormal(v, 0, scale)
		return Leaf(v)
	}
	x, dy := leaf(1, 4, 2, 4, 4).Val, leaf(1, 4, 8).Val
	w1, w2, gamma, beta := leaf(0.4, 2, 2, 3, 3), leaf(0.4, 2, 2, 3, 3), Leaf(tensor.Ones(2)), Leaf(tensor.New(2))
	wl, bl, wd, bd := leaf(0.3, 32, 8), leaf(0.3, 8), leaf(0.3, 32, 5), leaf(0.3, 5)
	params := []*Node{w1, w2, gamma, beta, wl, bl, wd, bd}
	type graph struct{ root, loss, block, view *Node }
	build := func() graph {
		c := Conv2d(Constant(x), w1, nil, 1, 1, tensor.ActNone)
		block := BatchNorm2d(Conv2d(c, w2, nil, 1, 1, tensor.ActNone), gamma, beta, tensor.New(2), tensor.Ones(2), 0.1, 1e-5, true, tensor.ActReLU, c)
		view := Flatten(block)
		h := Reshape(Linear(view, wl, bl, tensor.ActNone, nil), 1, 4, 8)
		loss := MSE(softmaxLastDim(Reshape(Attention(h, h, h, 2), 4, 8)), dy)
		decoy := Mean(Linear(Detach(view), wd, bd, tensor.ActTanh, nil))
		return graph{AddN(loss, decoy), loss, block, view}
	}
	// owned lists the interior nodes holding a pooled value, with copies.
	owned := func(root *Node) (nodes []*Node, vals []*tensor.Tensor) {
		eachInterior(root, func(n *Node) {
			if n.ownsVal {
				nodes, vals = append(nodes, n), append(vals, n.Val.Clone())
			}
		})
		return nodes, vals
	}
	grads := func() []*tensor.Tensor {
		var out []*tensor.Tensor
		for _, p := range params {
			out = append(out, p.Grad.Clone())
			p.Grad = nil
		}
		return out
	}

	g := build()
	nodes, vals := owned(g.root)
	Backward(g.root)
	for i, n := range nodes {
		if n.Val == nil || !n.Val.Equal(vals[i]) {
			t.Fatalf("without a step, a pooled %v value was handed back or changed by Backward", vals[i].Shape())
		}
	}
	want := grads()
	Release(g.root)

	// Under a step, the pool is counted too: each bucket the values use
	// starts empty, so the buffers made there are its misses, and every
	// buffer handed back stays there.
	bucket := func(numel int) int { return 1 << bits.Len(uint(numel-1)) } // the bucket's size
	buckets := map[int]int64{}                                            // each bucket the values use → buffers made there
	for _, v := range vals {
		emptyBucket(v.Numel())
		_, m := tensor.PoolBucketStats(v.Numel())
		buckets[bucket(v.Numel())] = -m
	}
	g = build()
	nodes, vals = owned(g.root)
	block, loss := g.block.Val.Clone(), g.loss.Scalar()
	Backward(g.root, keepStep{})
	for numel := range buckets {
		_, m := tensor.PoolBucketStats(numel)
		buckets[numel] += m
	}
	for i, got := range grads() {
		if !sameBits(got, want[i]) {
			t.Fatalf("gradient of parameter %d under a step differs from the one without", i)
		}
	}
	if g.root.Val == nil || g.loss.Scalar() != loss {
		t.Fatal("the root or the loss scalar was lost under a step")
	}
	if g.block.Val == nil || !g.block.Val.Equal(block) || &g.view.Val.Data[0] != &g.block.Val.Data[0] {
		t.Fatal("the value behind a Detach view was handed back under a step")
	}
	held := map[int]int64{}
	for i, n := range nodes {
		if n.Val != nil {
			if n != g.root && n != g.block {
				t.Fatalf("a pooled %v value is still held after Backward under a step", vals[i].Shape())
			}
			held[bucket(n.Val.Numel())]++
		}
	}
	for size, made := range buckets {
		if got := drainBucket(t, size); got != made-held[size] {
			t.Fatalf("after Backward under a step the %d-float bucket holds %d buffers, want %d made less %d held", size, got, made, held[size])
		}
	}
	Release(g.root)
	if g.block.Val != nil {
		t.Fatal("Release did not return the value a Detach view pinned")
	}
	for size, made := range buckets {
		if got := drainBucket(t, size); got != made {
			t.Fatalf("after Release the %d-float bucket holds %d buffers, want the %d made", size, got, made)
		}
	}
}

// drainBucket counts the buffers the pool holds in the bucket of numel
// floats, taking them until the pool has to make one and putting them back;
// it fails t if a buffer comes out twice (it was put back twice).
func drainBucket(t *testing.T, numel int) int64 {
	t.Helper()
	held := takeBucket(numel)
	seen := map[*float32]bool{}
	for _, b := range held {
		if seen[&b.Data[0]] {
			t.Fatalf("a %d-float buffer came out of the pool twice: it was put back twice", numel)
		}
		seen[&b.Data[0]] = true
	}
	for _, b := range held {
		tensor.Put(b)
	}
	return int64(len(held))
}

// emptyBucket drops every buffer the pool holds in the bucket of numel
// floats, so that the next Get there makes one.
func emptyBucket(numel int) { takeBucket(numel) }

// takeBucket takes the buffers the pool holds in the bucket of numel floats
// until it has to make one.
func takeBucket(numel int) []*tensor.Tensor {
	var held []*tensor.Tensor
	for {
		_, m0 := tensor.PoolBucketStats(numel)
		held = append(held, tensor.Get(numel))
		if _, m := tensor.PoolBucketStats(numel); m != m0 {
			return held[:len(held)-1] // the last is fresh: the bucket is empty
		}
	}
}
