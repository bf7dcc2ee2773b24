// Package autodiff implements reverse-mode automatic differentiation over
// the tensor package. A computation builds a DAG of Nodes; Backward on a
// scalar root propagates gradients to every leaf that requires them.
//
// The engine is deliberately dynamic (define-by-run, like PyTorch's
// autograd) because Amalgam's model augmenter composes graphs at run time:
// decoy sub-networks, detached taps from original layers, and per-subnet
// loss heads are all graph-level constructs.
//
// A buffer lives only as long as someone will read it. Three lifetimes:
//
//   - A value (Node.Val) lives until Release: later nodes, views and the
//     caller may read it after Backward. Under a LeafStep (below), the
//     training step, a pooled interior value goes back as its node drains,
//     when every backward that reads it has run; only a Detach view reads
//     it from outside the parent links, so that one stays (Backward).
//   - An interior node's gradient, and the scratch its op retained for the
//     backward pass, live until that node's own backward has run. Reverse
//     topological order guarantees every consumer has contributed by then
//     and nobody reads either afterwards, so Backward hands both back to the
//     pool on the spot: at any moment only a frontier of gradients is
//     alive (one per component running, see below), not one per node.
//   - A leaf's gradient lives as long as the parameter; nn.ZeroGrads clears
//     it in place between steps. Under a LeafStep (Backward's optional
//     per-leaf step, the optimiser's update) it lives only from its first
//     contribution to the step: at the leaf's place in the reverse
//     topological order every consumer has run its backward, so the
//     gradient is final, the step consumes it and takes the buffer back,
//     and the next leaf's first contribution may reuse it. Backward without
//     a step is unchanged.
//
// Backward therefore consumes the graph: a second Backward that reaches a
// node the first one passed panics (build the graph again, as PyTorch asks
// without retain_graph). Release stays the one call that ends a step.
//
// Backward fans out where the graph lets it. Below the root the graph may
// fall into connected components — nodes joined by a parent link or by a
// leaf both reach; Detach and constants are where it comes apart, as between
// an augmented model's original and its decoys. Each keeps its slice of the
// one topological order and the drain rule above, so every accumulation
// chain is the sequential one, and they run as tensor.ParallelBranches: side
// by side where a kernel-pool worker is parked, in turn where not, same
// bits either way. A root with one interior parent takes the plain loop.
//
// An activation is a parameter, not a name: Activate, AddRowBias,
// AddChanBias, Linear, Conv2d and BatchNorm2d each take a tensor.Act and are
// one node with one output buffer whatever its value. The contract is
// tensor.Act's: the op applies it in place over its own output, and its
// backward first rewrites the node's own gradient in place into the
// gradient of the pre-activation — from the output alone, so neither a mask
// nor the pre-activation is kept — and only then computes the operand
// gradients from it. Nothing above tensor branches on
// which activation it is.
//
// A residual add is an epilogue too: BatchNorm2d(…, act, r) is act(norm(x)
// + r) in one buffer, the float32 operations of BatchNorm2d → Add →
// Activate in their order, and its backward gives r its gradient before
// the norm's dx, as the Add before the norm would: no gradient chain moves.
// Linear(…, act, r) is act(x·W + b + r) the same way, and Dropout(…, r) is
// r + mask⊙a, the mask drawn as without r, so a transformer block's two
// residual adds leave no value behind that only the add read.
//
// A broadcast is one rule, Add's and Mul's: b is a's shape with one run of
// adjacent axes set to 1, read as [p, 1, r] against [p, q, r]. CBAM's gates,
// DISCO's mask and the positional table are views of that shape, and a
// broadcast b's gradient sums in a's memory order.
//
// A layout op is an index map, written once: Conv2d's block reorders are
// swapMid, ConcatFeatures and ConcatChannels are concat, and each backward
// adds the gradient back along the same map. Attention gathers each head
// into scratch and keeps nothing for its backward, which gathers Q and K
// again and recomputes the softmax bit for bit.
package autodiff

import (
	"fmt"
	"slices"

	"amalgam/internal/tensor"
)

// Node is one vertex of the autodiff graph: a value, an optional gradient,
// and a backward closure that scatters the node's gradient to its parents.
type Node struct {
	// Val holds the forward value. Never nil for a constructed node.
	Val *tensor.Tensor
	// Grad accumulates ∂root/∂Val during Backward. Allocated lazily; nil
	// for nodes that do not require gradients or before Backward runs, and
	// nil again on an interior node once its own backward has consumed it.
	Grad *tensor.Tensor

	requiresGrad bool
	parents      []*Node
	backward     func()
	name         string
	// ownsVal marks interior nodes whose Val came from the tensor scratch
	// pool (and is not shared with any view), so Release may recycle it.
	ownsVal bool
	// scratch holds pooled buffers the op retained for its backward pass
	// (normalisation statistics, softmax probabilities, dropout masks).
	// Backward returns them right after the closure has run; Release returns
	// whatever is left, which covers eval-mode graphs where backward never
	// runs.
	scratch []*tensor.Tensor
	// step is a leaf's LeafStep for the Backward walking it, nil otherwise.
	step LeafStep
	// pinned keeps Val to Release under a LeafStep (see pin).
	pinned bool
}

// LeafStep is Backward's optional per-leaf step: the optimiser updating
// each parameter as soon as its gradient is final. Backward calls it from
// the goroutine that walks the leaf's component, so an implementation
// serialises only what leaves share.
type LeafStep interface {
	// Reuse returns storage of leaf's shape for the leaf's first gradient,
	// its contents undefined, or nil to have a fresh buffer allocated.
	Reuse(leaf *Node) *tensor.Tensor
	// Step receives leaf's final gradient in leaf.Grad once the leaf's
	// last consumer has run its backward. It may take the buffer.
	Step(leaf *Node)
}

// Leaf wraps t as a trainable graph input (requires gradients).
func Leaf(t *tensor.Tensor) *Node {
	return &Node{Val: t, requiresGrad: true}
}

// Constant wraps t as a non-trainable input; no gradient flows into it.
func Constant(t *tensor.Tensor) *Node {
	return &Node{Val: t}
}

// Named attaches a debugging name and returns the node.
func (n *Node) Named(name string) *Node {
	n.name = name
	return n
}

// Name returns the node's debugging name (may be empty).
func (n *Node) Name() string { return n.name }

// RequiresGrad reports whether gradients flow into this node.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// newNode builds an interior node. requiresGrad is inherited from parents.
func newNode(val *tensor.Tensor, parents []*Node, backward func()) *Node {
	req := false
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			req = true
			break
		}
	}
	n := &Node{Val: val, requiresGrad: req, parents: parents}
	if req {
		n.backward = backward
	}
	return n
}

// newPooledNode is newNode for ops that allocated val from the tensor
// scratch pool and fully own it (no views share the storage); Release will
// recycle such values once the step is over.
func newPooledNode(val *tensor.Tensor, parents []*Node, backward func()) *Node {
	n := newNode(val, parents, backward)
	n.ownsVal = true
	return n
}

// isLeaf reports whether n is a graph input (Leaf or Constant) rather than
// the output of an op.
func (n *Node) isLeaf() bool { return n.parents == nil }

// ensureGrad allocates (once) and returns the zeroed gradient buffer, for
// backward kernels that accumulate into it element by element. An interior
// node's comes from the scratch pool and flows back once the node's own
// backward has run. A leaf's is never handed back to the pool, so it is
// exact-size: a buffer its step hands out for reuse, cleared here, or a
// fresh one (a pooled power-of-two bucket would be held for the
// parameter's whole life at up to twice the bytes).
func (n *Node) ensureGrad() *tensor.Tensor {
	if n.Grad == nil {
		if !n.isLeaf() {
			n.Grad = tensor.GetZero(n.Val.Shape()...)
		} else if n.Grad = n.reusedGrad(); n.Grad != nil {
			n.Grad.Zero()
		} else {
			n.Grad = tensor.New(n.Val.Shape()...)
		}
	}
	return n.Grad
}

// reusedGrad is the buffer a leaf's step hands out for its gradient, or nil.
func (n *Node) reusedGrad() *tensor.Tensor {
	if n.step == nil {
		return nil
	}
	return n.step.Reuse(n)
}

// accumulate adds g into n's gradient if n participates in backprop. g
// stays the caller's — it is typically a consumer's out.Grad, which several
// parents may receive (every operand of AddN) — so it is never aliased: the
// first contribution is copied (into an un-zeroed pooled buffer on an
// interior node, one pass instead of zero-fill plus read-add-write; into
// exact-size storage on a leaf, see ensureGrad), later ones are added.
//
// The one arithmetic difference from adding into zeros: 0 + (−0) is +0,
// while a copy keeps −0. Every arm the repo compares bit for bit — plain
// and augmented, local and remote, fused and unfused — runs this same
// code, so no equality promise depends on which of the two it is.
func (n *Node) accumulate(g *tensor.Tensor) {
	if !n.requiresGrad {
		return
	}
	if n.Grad != nil {
		tensor.AddInto(n.Grad, g) // panics on a shape mismatch
		return
	}
	if !g.SameShape(n.Val) {
		panic(fmt.Sprintf("autodiff: gradient shape %v for value %v", g.Shape(), n.Val.Shape()))
	}
	if n.isLeaf() {
		if n.Grad = n.reusedGrad(); n.Grad != nil {
			n.Grad.CopyFrom(g)
		} else {
			n.Grad = g.Clone()
		}
		return
	}
	n.Grad = tensor.Get(n.Val.Shape()...)
	n.Grad.CopyFrom(g)
}

// accumulateOwned is accumulate for a pooled temporary the producer hands
// over: as an interior node's first contribution tmp becomes the gradient
// itself (no copy, no zero-fill), otherwise it is added — or, on a leaf,
// copied to exact size — and returned to the pool. tmp must come from
// tensor.Get with the shape of n.Val and be exclusively the caller's; the
// caller must not touch it afterwards. An adopted buffer is owned exactly as
// one from ensureGrad is.
func (n *Node) accumulateOwned(tmp *tensor.Tensor) {
	if n.requiresGrad && n.Grad == nil && !n.isLeaf() && tmp.SameShape(n.Val) {
		n.Grad = tmp
		return
	}
	n.accumulate(tmp) // panics on a shape mismatch
	tensor.Put(tmp)
}

// handGrad passes n's gradient to its parents unchanged, for ops whose
// backward is the identity on it (or has just rewritten it in place into
// the parents' gradient). n's own backward is the buffer's last reader, so
// nothing is held twice: every grad-requiring parent but the last copies or
// adds it, the last one takes the buffer over. Add(a, a) still adds.
func (n *Node) handGrad(parents ...*Node) {
	g := n.Grad
	n.Grad = nil
	last := -1
	for i, p := range parents {
		if p.requiresGrad {
			last = i
		}
	}
	if last < 0 {
		tensor.Put(g)
		return
	}
	for _, p := range parents[:last] {
		p.accumulate(g)
	}
	parents[last].accumulateOwned(g)
}

// ZeroGrad clears the node's gradient buffer in place (keeps allocation).
func (n *Node) ZeroGrad() {
	if n.Grad != nil {
		n.Grad.Zero()
	}
}

// Backward runs reverse-mode differentiation from the scalar root. It
// panics if the root is not a single-element tensor, mirroring PyTorch's
// requirement that .backward() start from a scalar loss.
//
// Backward consumes the graph as it goes (see the package comment): once a
// node's backward has run, its gradient and scratch return to the pool and
// the closure is dropped — the root's seed included, which a pass-through
// root such as AddN hands to a parent anyway. Reaching an already consumed
// (or Released) node panics instead of silently stopping there.
//
// Without a step, values stay until Release and leaf gradients stay with
// their parameters. With one (at most one), every leaf that receives a
// gradient is handed to step.Step at its place in the walk, its first
// gradient may be a buffer step.Reuse gives out, and pooled interior values
// go back as their nodes drain: only the root's, the leaves', views',
// FromSlice scalars' and Detach sources' values (pinned) are readable
// afterwards.
func Backward(root *Node, step ...LeafStep) {
	if root.Val.Numel() != 1 {
		panic(fmt.Sprintf("autodiff: Backward root must be scalar, got shape %v", root.Val.Shape()))
	}
	if len(step) > 1 {
		panic("autodiff: Backward takes at most one LeafStep")
	}
	var s LeafStep
	if len(step) == 1 {
		s = step[0]
	}
	order := topoSort(root)
	for _, n := range order {
		if n.isLeaf() {
			n.step = s
		} else if n.backward == nil {
			panic(fmt.Sprintf("autodiff: Backward through the graph a second time: node %q was already consumed by an earlier Backward or Release; build the graph again", n.name))
		}
	}
	root.pin()
	root.ensureGrad().Fill(1)
	last, vals := len(order)-1, s != nil
	backwardOver(order[last:], vals)
	if comps := components(root, order[:last]); len(comps) > 1 {
		tensor.ParallelBranches(len(comps), func(i int) { backwardOver(comps[i], vals) })
	} else {
		backwardOver(order[:last], vals)
	}
}

// backwardOver runs order's backwards last to first, draining as it goes
// (with vals, unpinned values too). A node's consumers all come after it in
// order, so when the walk reaches a leaf its gradient is final — that is
// where its step runs — and a drained node's value has no reader left.
func backwardOver(order []*Node, vals bool) {
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.isLeaf() {
			if n.step != nil && n.Grad != nil {
				n.step.Step(n)
			}
			n.step = nil
			continue
		}
		if n.Grad != nil {
			n.backward()
		}
		n.drain()
		if vals && !n.pinned {
			n.putVal()
		}
	}
}

// components splits order — the topological order under root, without it —
// into the package comment's components: slices of order, largest first (the
// deal is longest-first), ties by first node. Nil, and no work, unless root
// has two interior parents to send gradients through.
func components(root *Node, order []*Node) [][]*Node {
	heads := 0
	for _, p := range root.parents {
		if p != nil && p.requiresGrad && !p.isLeaf() {
			heads++
		}
	}
	if heads < 2 {
		return nil
	}
	index := make(map[*Node]int32, len(order))
	set := make([]int32, len(order)) // union-find over positions, least wins
	find := func(i int32) int32 {
		for ; set[i] != i; i = set[i] {
			set[i] = set[set[i]]
		}
		return i
	}
	for i, n := range order {
		index[n], set[i] = int32(i), int32(i)
		for _, p := range n.parents {
			if p != nil && p.requiresGrad {
				a, b := find(int32(i)), find(index[p])
				set[max(a, b)] = min(a, b)
			}
		}
	}
	var comps [][]*Node
	slot := make([]int, len(order)) // first node → component
	for i, n := range order {
		r := find(int32(i))
		if int(r) == i {
			slot[i] = len(comps)
			comps = append(comps, nil)
		}
		comps[slot[r]] = append(comps[slot[r]], n)
	}
	slices.SortStableFunc(comps, func(a, b []*Node) int { return len(b) - len(a) })
	return comps
}

// drain returns what only n's own backward reads — its gradient and its
// scratch — and drops the closure that captured them.
func (n *Node) drain() {
	tensor.Put(n.Grad) // Put(nil) is a no-op
	n.Grad = nil
	for i, s := range n.scratch {
		tensor.Put(s)
		n.scratch[i] = nil
	}
	n.scratch = nil
	n.backward = nil
}

// topoSort returns nodes reachable from root in topological order
// (parents before children), visiting only grad-requiring paths.
func topoSort(root *Node) []*Node {
	var order []*Node
	visited := map[*Node]bool{}
	// Iterative DFS; models can be thousands of nodes deep and Go default
	// goroutine stacks grow, but an explicit stack avoids any limit.
	type frame struct {
		n    *Node
		next int
	}
	stack := []frame{{n: root}}
	visited[root] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.n.parents) {
			p := top.n.parents[top.next]
			top.next++
			if p != nil && p.requiresGrad && !visited[p] {
				visited[p] = true
				stack = append(stack, frame{n: p})
			}
			continue
		}
		order = append(order, top.n)
		stack = stack[:len(stack)-1]
	}
	return order
}

// Release returns a finished graph's pooled storage — interior node values
// allocated from the tensor pool, plus whatever gradients and scratch
// Backward did not already hand back (all of them when it never ran) — so
// the next training step reuses the same storage instead of allocating.
// Call it after the optimizer step (and after reading any values such as
// the loss scalar); the graph must not be used afterwards. Leaves and
// constants are untouched: parameter values, parameter gradients, and
// input tensors all survive. Calling Release twice, or on overlapping
// graphs, is safe — buffers are handed back at most once.
func Release(root *Node) {
	if root == nil {
		return
	}
	eachInterior(root, func(n *Node) {
		n.putVal()
		n.drain()
	})
}

// pin keeps n's value to Release under a LeafStep, and through a node that
// may be a Reshape view (one parent, no value of its own) its parent's too.
func (n *Node) pin() {
	for ; n != nil && !n.pinned; n = n.parents[0] {
		n.pinned = true
		if n.ownsVal || len(n.parents) != 1 {
			return
		}
	}
}

// putVal returns n's value to the pool if n took it from there, once.
func (n *Node) putVal() {
	if n.ownsVal {
		tensor.Put(n.Val)
		n.Val = nil
		n.ownsVal = false
	}
}

// Retained walks the graph under root and counts the interior nodes that
// still hold a gradient and those that still hold backward scratch. Both
// are zero once Backward has run; tests and probes use it to see that
// lifetimes follow use.
func Retained(root *Node) (grads, scratch int) {
	eachInterior(root, func(n *Node) {
		if n.Grad != nil {
			grads++
		}
		if n.scratch != nil {
			scratch++
		}
	})
	return grads, scratch
}

// eachInterior calls fn once for every interior node reachable from root,
// whether or not gradients flow through it.
func eachInterior(root *Node, fn func(*Node)) {
	visited := map[*Node]bool{root: true}
	stack := []*Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !n.isLeaf() {
			fn(n)
		}
		for _, p := range n.parents {
			if p != nil && !visited[p] {
				visited[p] = true
				stack = append(stack, p)
			}
		}
	}
}

// Scalar returns the single element of a scalar node's value.
func (n *Node) Scalar() float32 {
	if n.Val.Numel() != 1 {
		panic(fmt.Sprintf("autodiff: Scalar on non-scalar shape %v", n.Val.Shape()))
	}
	return n.Val.Data[0]
}
