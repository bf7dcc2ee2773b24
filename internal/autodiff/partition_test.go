package autodiff

import (
	"fmt"
	"strings"
	"testing"

	"amalgam/internal/tensor"
)

// head is a small loss head over its own or a shared weight: four nodes in
// topological order (w, matmul, tanh, mean) plus whatever the input brings.
func head(x, w *Node) *Node {
	return Mean(Activate(MatMul(x, w), tensor.ActTanh))
}

// restOf is the order Backward partitions: everything under root but root.
func restOf(root *Node) []*Node {
	order := topoSort(root)
	return order[:len(order)-1]
}

func leafOf(rng *tensor.RNG, shape ...int) *Node {
	t := tensor.New(shape...)
	rng.FillNormal(t, 0, 0.5)
	return Leaf(t)
}

// TestComponentsOfTheBackwardOrder pins the partition Backward fans out
// over: what joins (a parent link, a shared leaf), what splits (Detach, a
// constant), and the shape of the result — components largest first, equal
// ones in the order of their first nodes, each an order-preserving slice of
// the topological order; nil for a root with fewer than two interior parents.
func TestComponentsOfTheBackwardOrder(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := Constant(leafOf(rng, 3, 4).Val)
	w := func() *Node { return leafOf(rng, 4, 4) }
	tied := w()
	trunk := MatMul(x, w())
	hidden := MatMul(x, w())
	a := head(x, w())
	for _, c := range []struct {
		name string
		root *Node
		want []int // component sizes; nil: not partitioned
	}{
		{"disjoint heads", AddN(head(x, w()), head(x, w()), head(x, w())), []int{4, 4, 4}},
		{"a tied weight joins two heads", AddN(head(x, tied), head(x, w()), head(x, tied)), []int{7, 4}},
		{"a shared interior node joins", AddN(head(trunk, w()), head(trunk, w())), []int{10}},
		{"Detach splits", AddN(head(hidden, w()), head(Detach(hidden), w())), []int{6, 4}},
		{"the largest goes first", AddN(head(x, w()), head(MatMul(x, w()), w())), []int{6, 4}},
		{"AddN(a, a)", AddN(a, a), []int{4}},
		{"nested AddN", AddN(AddN(head(x, w()), head(x, w())), head(x, w())), []int{9, 4}},
		{"one parent", AddN(head(x, w())), nil},
		{"one grad-requiring parent", AddN(head(x, w()), Mean(x)), nil},
		{"a fused head over leaves", Linear(MatMul(x, w()), leafOf(rng, 4, 1), leafOf(rng, 1), tensor.ActNone), nil},
	} {
		rest := restOf(c.root)
		comps := components(c.root, rest)
		if c.want == nil {
			// Every plain model and every evaluation graph: Backward's old
			// loop, reached without one allocation.
			if a := testing.AllocsPerRun(10, func() { comps = components(c.root, rest) }); comps != nil || a != 0 {
				t.Errorf("%s: %d components at %v allocs, want no partitioning work at all", c.name, len(comps), a)
			}
			continue
		}
		var sizes []int
		pos := map[*Node]int{}
		for i, n := range rest {
			pos[n] = i
		}
		seen := 0
		for ci, comp := range comps {
			sizes = append(sizes, len(comp))
			for i, n := range comp {
				seen++
				if i > 0 && pos[comp[i-1]] >= pos[n] {
					t.Errorf("%s: component %d does not keep the topological order", c.name, ci)
				}
			}
			if ci > 0 && (len(comps[ci-1]) < len(comp) || len(comps[ci-1]) == len(comp) && pos[comps[ci-1][0]] >= pos[comp[0]]) {
				t.Errorf("%s: components %d and %d are not largest first, then by first node", c.name, ci-1, ci)
			}
		}
		if fmt.Sprint(sizes) != fmt.Sprint(c.want) || seen != len(rest) {
			t.Errorf("%s: component sizes %v over %d of %d nodes, want %v", c.name, sizes, seen, len(rest), c.want)
		}
		// No link crosses a component: every grad-requiring parent of a
		// node sits in the node's own component.
		of := map[*Node]int{}
		for ci, comp := range comps {
			for _, n := range comp {
				of[n] = ci
			}
		}
		for _, n := range rest {
			for _, p := range n.parents {
				if p != nil && p.requiresGrad && of[p] != of[n] {
					t.Errorf("%s: a parent link crosses components %d and %d", c.name, of[p], of[n])
				}
			}
		}
	}
}

// jointGraph is a joint loss in the augmented models' shape: a deep trunk
// head, two shallow decoy-like heads (one reading the trunk detached) and a
// pair of heads tied by a shared weight.
func jointGraph(seed uint64) (root *Node, leaves []*Node) {
	rng := tensor.NewRNG(seed)
	x := Constant(leafOf(rng, 6, 8).Val)
	w := func(shape ...int) *Node {
		l := leafOf(rng, shape...)
		leaves = append(leaves, l)
		return l
	}
	gamma, beta := Leaf(tensor.Ones(8)), w(8)
	leaves = append(leaves, gamma)
	h := Linear(x, w(8, 8), w(8), tensor.ActGELU)
	h = LayerNorm(Add(h, Dropout(h, 0.25, rng, true)), gamma, beta, 1e-5)
	labels := []int{0, 1, 2, 3, 4, 5}
	orig := LinearSoftmaxCrossEntropy(h, w(8, 8), w(8), labels)
	decoy1 := SoftmaxCrossEntropy(Linear(x, w(8, 8), w(8), tensor.ActNone), labels)
	decoy2 := SoftmaxCrossEntropy(Linear(ConcatFeatures(MatMul(x, w(8, 4)),
		Activate(MatMul(Detach(h), w(8, 4)), tensor.ActTanh)), w(8, 8), w(8), tensor.ActNone), labels)
	tied := w(8, 8)
	return AddN(orig, decoy1, decoy2, head(x, tied), head(x, tied)), leaves
}

// TestBackwardOverComponentsMatchesSequential: fanning the components out
// changes where a backward runs, never what it computes — every leaf
// gradient is bit-equal to the one-worker run, nothing interior stays
// alive, and the pool gets back everything it handed out.
func TestBackwardOverComponentsMatchesSequential(t *testing.T) {
	run := func(workers int) []*tensor.Tensor {
		defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))
		root, leaves := jointGraph(17)
		if comps := components(root, restOf(root)); len(comps) != 4 {
			t.Fatalf("the joint graph has %d components, want 4", len(comps))
		}
		Backward(root)
		if grads, scratch := Retained(root); grads != 0 || scratch != 0 {
			t.Fatalf("%d workers: %d gradients and %d scratch holders alive after Backward", workers, grads, scratch)
		}
		Release(root)
		var out []*tensor.Tensor
		for _, l := range leaves {
			out = append(out, l.Grad)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8} {
		for rep := 0; rep < 10; rep++ {
			for i, g := range run(workers) {
				if !g.Equal(want[i]) {
					t.Fatalf("%d workers, repeat %d: gradient of leaf %d differs from the sequential run", workers, rep, i)
				}
			}
		}
	}
}

// TestBackwardPanicsSurfaceOnTheCaller is the panic contract at the height of
// Backward: the consumed-graph panic and a shape panic raised inside a
// component that runs on a lane both arrive at the recover of the goroutine
// that called Backward (on any other goroutine they would end the process).
func TestBackwardPanicsSurfaceOnTheCaller(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(4))
	rng := tensor.NewRNG(9)
	x := Constant(leafOf(rng, 3, 4).Val)
	recovered := func(root *Node) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		Backward(root)
		return ""
	}
	big := func() *Node { return head(MatMul(x, leafOf(rng, 4, 4)), leafOf(rng, 4, 4)) }

	// A small component whose backward hands its leaf a gradient of the
	// wrong shape: accumulate's own shape panic, raised on a lane.
	w := leafOf(rng, 4, 4)
	bad := newNode(tensor.New(1), []*Node{w}, nil)
	bad.backward = func() { w.accumulate(tensor.New(2, 2)) }
	root := AddN(big(), bad.Named("misshapen"))
	if comps := components(root, restOf(root)); len(comps) != 2 || comps[1][len(comps[1])-1] != bad {
		t.Fatal("the misshapen node is not in a non-caller component")
	}
	if msg := recovered(root); !strings.Contains(msg, "gradient shape [2 2] for value [4 4]") {
		t.Fatalf("shape panic in a lane's component: recovered %q", msg)
	}
	Release(root)

	// A consumed node in the small component: refused before anything runs.
	spent := head(x, leafOf(rng, 4, 4))
	Backward(spent)
	fresh := big()
	if msg := recovered(AddN(fresh, spent)); !strings.Contains(msg, "a second time") {
		t.Fatalf("consumed node in a non-caller component: recovered %q", msg)
	}
	if fresh.Grad != nil {
		t.Fatal("the refused Backward ran part of the graph")
	}
}

// lenet holds the parameters of a LeNet-5-shaped network (two conv → pool
// stages, three dense layers): the soak's toy job.
type lenet []*Node

func newLenet(rng *tensor.RNG) lenet {
	return lenet{
		leafOf(rng, 6, 1, 5, 5), leafOf(rng, 6), leafOf(rng, 16, 6, 5, 5), leafOf(rng, 16),
		leafOf(rng, 256, 120), leafOf(rng, 120), leafOf(rng, 120, 84), leafOf(rng, 84), leafOf(rng, 84, 10), leafOf(rng, 10),
	}
}

func (ps lenet) loss(x *Node, labels []int) *Node {
	h := MaxPool2d(Conv2d(x, ps[0], ps[1], 1, 0, tensor.ActReLU), 2, 2, 0)
	h = MaxPool2d(Conv2d(h, ps[2], ps[3], 1, 0, tensor.ActReLU), 2, 2, 0)
	h = Linear(Flatten(h), ps[4], ps[5], tensor.ActReLU)
	h = Linear(h, ps[6], ps[7], tensor.ActReLU)
	return SoftmaxCrossEntropy(Linear(h, ps[8], ps[9], tensor.ActNone), labels)
}

// BenchmarkBackwardPartition prices the partition on LeNet graphs. "single"
// is one loss — a root with one component, which must cost what it did
// before Backward learnt to fan out (allocs/op is the pin: the partition
// allocates, the plain loop does not). "joint" is three networks under one
// AddN, the augmented shape: partitioned, and from -cpu 2 run side by side.
func BenchmarkBackwardPartition(b *testing.B) {
	rng := tensor.NewRNG(3)
	x := Constant(leafOf(rng, 8, 1, 28, 28).Val)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	nets := []lenet{newLenet(rng), newLenet(rng), newLenet(rng)}
	for _, c := range []struct {
		name  string
		heads int
	}{{"single", 1}, {"joint", 3}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				root := nets[0].loss(x, labels)
				if c.heads > 1 {
					root = AddN(root, nets[1].loss(x, labels), nets[2].loss(x, labels))
				}
				b.StartTimer()
				Backward(root)
				b.StopTimer()
				Release(root)
				b.StartTimer()
			}
		})
	}
}
