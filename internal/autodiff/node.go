// Package autodiff implements reverse-mode automatic differentiation over
// the tensor package. A computation builds a DAG of Nodes; Backward on a
// scalar root propagates gradients to every leaf that requires them.
//
// The engine is deliberately dynamic (define-by-run, like PyTorch's
// autograd) because Amalgam's model augmenter composes graphs at run time:
// decoy sub-networks, detached taps from original layers, and per-subnet
// loss heads are all graph-level constructs.
package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// Node is one vertex of the autodiff graph: a value, an optional gradient,
// and a backward closure that scatters the node's gradient to its parents.
type Node struct {
	// Val holds the forward value. Never nil for a constructed node.
	Val *tensor.Tensor
	// Grad accumulates ∂root/∂Val during Backward. Allocated lazily; nil
	// for nodes that do not require gradients or before Backward runs.
	Grad *tensor.Tensor

	requiresGrad bool
	parents      []*Node
	backward     func()
	name         string
	// ownsVal marks interior nodes whose Val came from the tensor scratch
	// pool (and is not shared with any view), so Release may recycle it.
	ownsVal bool
	// scratch holds pooled buffers the op retained for its backward pass
	// (im2col columns, normalisation xhat, softmax probabilities). The
	// backward closure may Put entries early and nil them; Release returns
	// whatever is left, which covers eval-mode graphs where backward never
	// runs.
	scratch []*tensor.Tensor
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

// ensureGrad allocates (once) and returns the zeroed gradient buffer, for
// backward kernels that accumulate into it element by element. Buffers come
// from the scratch pool; interior-node gradients flow back to it in Release
// while leaf gradients live as long as the parameter.
func (n *Node) ensureGrad() *tensor.Tensor {
	if n.Grad == nil {
		n.Grad = tensor.GetZero(n.Val.Shape()...)
	}
	return n.Grad
}

// accumulate adds g into n's gradient if n participates in backprop. g
// stays the caller's — it is typically a consumer's out.Grad, which several
// parents may receive (both operands of Add) — so it is never aliased: the
// first contribution is copied into an un-zeroed pooled buffer (one pass
// instead of zero-fill plus read-add-write), later ones are added.
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
	n.Grad = tensor.Get(n.Val.Shape()...)
	n.Grad.CopyFrom(g)
}

// accumulateOwned is accumulate for a pooled temporary the producer hands
// over: as the first contribution tmp becomes the gradient itself (no copy,
// no zero-fill), otherwise it is added and returned to the pool. tmp must
// come from tensor.Get with the shape of n.Val and be exclusively the
// caller's; the caller must not touch it afterwards. Release (interior
// nodes) or the parameter's lifetime (leaves) owns an adopted buffer exactly
// as it owns one from ensureGrad.
func (n *Node) accumulateOwned(tmp *tensor.Tensor) {
	if n.requiresGrad && n.Grad == nil && tmp.SameShape(n.Val) {
		n.Grad = tmp
		return
	}
	n.accumulate(tmp) // panics on a shape mismatch
	tensor.Put(tmp)
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
func Backward(root *Node) {
	if root.Val.Numel() != 1 {
		panic(fmt.Sprintf("autodiff: Backward root must be scalar, got shape %v", root.Val.Shape()))
	}
	order := topoSort(root)
	root.ensureGrad().Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil && n.Grad != nil {
			n.backward()
		}
	}
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

// Release returns a finished graph's pooled scratch — interior node values
// allocated from the tensor pool and every interior gradient buffer — so
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
	visited := map[*Node]bool{root: true}
	stack := []*Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.parents != nil { // interior node
			if n.ownsVal && n.Val != nil {
				tensor.Put(n.Val)
				n.Val = nil
				n.ownsVal = false
			}
			if n.Grad != nil {
				tensor.Put(n.Grad)
				n.Grad = nil
			}
			for i, s := range n.scratch {
				tensor.Put(s) // Put(nil) is a no-op for early-returned entries
				n.scratch[i] = nil
			}
			n.scratch = nil
			n.backward = nil
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
