// Package optim implements the optimisers used by the Amalgam evaluation:
// SGD with momentum/weight decay (Algorithm 1's update rule) and Adam with
// decoupled weight decay. Both are one Optimizer whose kind is a row of a
// table: the buffers the kind keeps per parameter, whether it counts
// steps, its defaults and its update rule. Naming, capturing, validating
// and restoring that resume state is therefore written once, so
// checkpointed runs of ANY kind continue bit-identically.
//
// A rule updates one parameter from its gradient, element by element, so
// it can run the moment that gradient is final. Optimizer.Backward does
// that: it is the training step (clear, backward, update) as one walk, the
// rule running as autodiff.Backward's per-leaf step, and no parameter
// gradient outlives its update nor any activation its last backward
// reader. Step runs the same rule over every
// parameter that carries a gradient, for callers that run
// autodiff.Backward themselves.
//
// A job carries its training recipe to the cloud service as wire-portable
// specs instead of the recipe living in the provider's source code:
// Build constructs the optimiser an OptimSpec names, ScheduleSpec.Rate is
// the learning rate at an epoch.
package optim

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// Optimiser kinds understood by Build, the checkpoint format, and the
// wire protocol's optimiser-state frames.
const (
	KindSGD  = "sgd"
	KindAdam = "adam"
)

// State is an optimiser's serialisable resume state — the optimiser
// section of checkpoints, on disk and on the wire alike.
type State struct {
	// Kind is the optimiser family that produced the state (KindSGD,
	// KindAdam); LoadStateDict refuses a state of another kind.
	Kind string
	// Step counts updates applied so far — Adam's bias-correction counter.
	// Always zero for SGD.
	Step int
	// LR is the learning rate at capture time. Informational only: resume
	// paths reconstruct the rate from (spec, epoch) via ScheduleSpec.Rate,
	// never from state, so schedules stay pure functions of the epoch.
	LR float64
	// Buffers holds the named per-parameter tensors: bare parameter names
	// for SGD velocity, "m/<param>" and "v/<param>" moment pairs for Adam.
	Buffers map[string]*tensor.Tensor
}

// NumBuffers reports how many named buffers the state carries (0 for nil).
func (s *State) NumBuffers() int {
	if s == nil {
		return 0
	}
	return len(s.Buffers)
}

// Empty reports whether the state carries nothing to resume: no buffers
// and no step count. Nil is empty.
func (s *State) Empty() bool {
	return s == nil || (s.Step == 0 && len(s.Buffers) == 0)
}

// kind is one optimiser family as data.
type kind struct {
	name string
	// slots lists the buffers the kind keeps per parameter under a spec,
	// as the prefix that names a parameter's buffer in State.Buffers.
	slots func(OptimSpec) []string
	// counts: the kind keeps a step counter; one that does not refuses a
	// state recording a step.
	counts bool
	// defaults holds what a zero Beta1, Beta2 or Eps in a spec stands for.
	defaults OptimSpec
	// rule applies one update to params[i] from its gradient g. It reads
	// and writes that parameter's value and buffers only, so parameters
	// update in any order, side by side.
	rule func(o *Optimizer, i int, g []float32)
}

var sgd = &kind{name: KindSGD, rule: sgdRule, slots: func(s OptimSpec) []string {
	if s.Momentum == 0 {
		return nil
	}
	return []string{""} // velocity, under the bare parameter name
}}

// kinds is the optimiser table Build reads; an empty kind is SGD.
var kinds = map[string]*kind{
	"":      sgd,
	KindSGD: sgd,
	KindAdam: {name: KindAdam, rule: adamRule, counts: true,
		slots:    func(OptimSpec) []string { return []string{"m/", "v/"} },
		defaults: OptimSpec{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}},
}

// Optimizer updates parameters in place from their accumulated gradients
// under its kind's rule, and captures and restores its resume state.
type Optimizer struct {
	kind   *kind
	spec   OptimSpec // the kind's defaults filled in; spec.LR is the current rate
	params []nn.Param
	slots  []string
	// bufs[k][i] is slot k's buffer for params[i]: nil until a step first
	// touches the parameter or a load restores it.
	bufs [][]*tensor.Tensor
	step int

	// Backward's bookkeeping. index is each parameter's position by node;
	// touched[i] records that params[i] has been updated or carried a
	// gradient into a Backward, reached[i] that this Backward's walk
	// updated it.
	index            map[*autodiff.Node]int
	touched, reached []bool
	grads            gradBuffers
}

// newOptimizer builds the optimiser of s's kind, which must be in kinds.
func newOptimizer(s OptimSpec, params []nn.Param) *Optimizer {
	k := kinds[s.Kind]
	s.Beta1 = cmp.Or(s.Beta1, k.defaults.Beta1)
	s.Beta2 = cmp.Or(s.Beta2, k.defaults.Beta2)
	s.Eps = cmp.Or(s.Eps, k.defaults.Eps)
	o := &Optimizer{kind: k, spec: s, params: params, slots: k.slots(s),
		index:   make(map[*autodiff.Node]int, len(params)),
		touched: make([]bool, len(params)),
		reached: make([]bool, len(params)),
	}
	o.bufs = make([][]*tensor.Tensor, len(o.slots))
	for i := range o.bufs {
		o.bufs[i] = make([]*tensor.Tensor, len(params))
	}
	for i, p := range params {
		o.index[p.Node] = i
	}
	return o
}

// NewSGD builds an SGD optimiser over the given parameters.
func NewSGD(params []nn.Param, lr, momentum, weightDecay float64) *Optimizer {
	return newOptimizer(OptimSpec{Kind: KindSGD, LR: lr, Momentum: momentum, WeightDecay: weightDecay}, params)
}

// NewAdam builds an Adam optimiser with the standard β₁=0.9, β₂=0.999.
func NewAdam(params []nn.Param, lr float64) *Optimizer {
	return newOptimizer(OptimSpec{Kind: KindAdam, LR: lr}, params)
}

// Step applies one update to every parameter that carries a gradient and
// leaves the gradients untouched (callers zero them via nn.ZeroGrads): the
// step for callers that run autodiff.Backward themselves.
func (o *Optimizer) Step() {
	o.count()
	for i, p := range o.params {
		if p.Node.Grad != nil {
			o.kind.rule(o, i, p.Node.Grad.Data)
		}
	}
}

// count advances a counting kind's step counter: once per step, before
// any parameter's update reads it.
func (o *Optimizer) count() {
	if o.kind.counts {
		o.step++
	}
}

// Backward is nn.ZeroGrads, autodiff.Backward(root) and Step in one walk,
// bit for bit: each parameter is updated as soon as its gradient is final,
// on the goroutine walking its component, and the gradient's buffer goes
// back to the run's free list for the next parameter of its size. In
// order:
//
//   - a gradient a parameter carries in is dropped (ZeroGrads would clear
//     it) and the parameter counts as touched;
//   - the step is counted, once;
//   - the walk updates every parameter it reaches, as it reaches it;
//   - every parameter touched before but not reached now takes the update
//     Step gives a zero gradient.
//
// No parameter leaves with a gradient attached, and the walk hands the
// graph's pooled activations back as it goes (autodiff.Backward under a
// step): read any value but the root's before calling it.
func (o *Optimizer) Backward(root *autodiff.Node) {
	for i, p := range o.params {
		if p.Node.Grad != nil {
			o.touched[i] = true
			p.Node.Grad = nil
		}
		o.reached[i] = false
	}
	o.count()
	autodiff.Backward(root, (*leafStep)(o))
	for i, p := range o.params {
		if o.touched[i] && !o.reached[i] {
			g := o.grads.get(p.Node.Val)
			if g == nil {
				g = tensor.New(p.Node.Val.Shape()...)
			} else {
				g.Zero()
			}
			o.kind.rule(o, i, g.Data)
			o.grads.put(g)
		}
	}
}

// leafStep is the Optimizer as autodiff.Backward's per-leaf step. A leaf
// that is not one of its parameters keeps its gradient as without a step.
type leafStep Optimizer

// Reuse hands a parameter's first gradient a spare buffer of its size.
func (s *leafStep) Reuse(leaf *autodiff.Node) *tensor.Tensor {
	if _, ok := s.index[leaf]; !ok {
		return nil
	}
	return s.grads.get(leaf.Val)
}

// Step updates the parameter from its final gradient and takes the buffer.
func (s *leafStep) Step(leaf *autodiff.Node) {
	o := (*Optimizer)(s)
	i, ok := o.index[leaf]
	if !ok {
		return
	}
	o.touched[i], o.reached[i] = true, true
	o.kind.rule(o, i, leaf.Grad.Data)
	o.grads.put(leaf.Grad)
	leaf.Grad = nil
}

// gradBuffers is a run's free list of exact-size gradient buffers, keyed by
// element count. A spare serves only gradients of its own size, so the list
// grows to about one spare per distinct parameter size (as many of a size
// as a step has alive at once), not to the gradients alive at once:
// cv_local's augmented step keeps 40.7 MB of spares for 65.5 MB of
// parameters. It holds them through the forward pass too. Exact sizes and
// ownership by the run still beat the pool: a power-of-two bucket would
// hold up to twice the bytes, and its trim may drop a buffer that sat out
// a whole interval, which a run that keeps a gradient's buffer for the next
// step does not want. Components walk side by side, hence the lock.
type gradBuffers struct {
	mu   sync.Mutex
	free map[int][]*tensor.Tensor
}

// get returns a spare buffer of like's shape, its contents undefined, or
// nil when there is none of its size.
func (b *gradBuffers) get(like *tensor.Tensor) *tensor.Tensor {
	n := like.Numel()
	b.mu.Lock()
	l := b.free[n]
	if len(l) == 0 {
		b.mu.Unlock()
		return nil
	}
	t := l[len(l)-1]
	l[len(l)-1] = nil
	b.free[n] = l[:len(l)-1]
	b.mu.Unlock()
	if !t.SameShape(like) {
		t = tensor.FromSlice(t.Data, like.Shape()...)
	}
	return t
}

// put makes t a spare; the caller must not touch it afterwards.
func (b *gradBuffers) put(t *tensor.Tensor) {
	b.mu.Lock()
	if b.free == nil {
		b.free = make(map[int][]*tensor.Tensor)
	}
	b.free[t.Numel()] = append(b.free[t.Numel()], t)
	b.mu.Unlock()
}

// buffer returns slot k's buffer for parameter i, allocated zeroed on
// first touch.
func (o *Optimizer) buffer(k, i int) []float32 {
	if o.bufs[k][i] == nil {
		o.bufs[k][i] = tensor.New(o.params[i].Node.Val.Shape()...)
	}
	return o.bufs[k][i].Data
}

// sgdRule is SGD with optional momentum and L2 weight decay:
// v ← µv + (g + λθ); θ ← θ − η·v, or θ ← θ − η·(g + λθ) without momentum.
func sgdRule(o *Optimizer, i int, g []float32) {
	lr := float32(o.spec.LR)
	mu := float32(o.spec.Momentum)
	wd := float32(o.spec.WeightDecay)
	w := o.params[i].Node.Val.Data
	g = g[:len(w)]
	if len(o.slots) == 0 {
		for j := range w {
			w[j] -= lr * (g[j] + wd*w[j])
		}
		return
	}
	v := o.buffer(0, i)
	for j := range w {
		gj := g[j] + wd*w[j]
		v[j] = mu*v[j] + gj
		w[j] -= lr * v[j]
	}
}

// adamRule is Adam (Kingma & Ba, 2015) with bias correction and
// DECOUPLED weight decay (Loshchilov & Hutter's AdamW): the decay shrinks
// weights directly (θ ← θ − η·λ·θ) instead of entering the adaptive
// moments, so its effective strength is not divided by √v̂. Per-element
// work stays in float32 over raw slices with the conversions hoisted out
// of the inner loop, so steady-state steps allocate nothing.
func adamRule(o *Optimizer, i int, g []float32) {
	s := &o.spec
	bc1 := 1 - math.Pow(s.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(s.Beta2, float64(o.step))
	lr := float32(s.LR * math.Sqrt(bc2) / bc1)
	b1 := float32(s.Beta1)
	b2 := float32(s.Beta2)
	eps := float32(s.Eps)
	decay := float32(s.LR * s.WeightDecay)
	md, vd := o.buffer(0, i), o.buffer(1, i)
	wd := o.params[i].Node.Val.Data
	g = g[:len(wd)]
	if decay != 0 {
		for j := range wd {
			wd[j] -= decay * wd[j]
		}
	}
	for j := range wd {
		gj := g[j]
		mj := b1*md[j] + (1-b1)*gj
		vj := b2*vd[j] + (1-b2)*gj*gj
		md[j] = mj
		vd[j] = vj
		wd[j] -= lr * mj / (float32(math.Sqrt(float64(vj))) + eps)
	}
}

// SetLR replaces the learning rate (for schedules).
func (o *Optimizer) SetLR(lr float64) { o.spec.LR = lr }

// LR returns the current learning rate.
func (o *Optimizer) LR() float64 { return o.spec.LR }

// Kind names the optimiser family (KindSGD, KindAdam) — the tag that
// travels in specs, checkpoints, and wire frames.
func (o *Optimizer) Kind() string { return o.kind.name }

// StateDict captures the optimiser's resume state: every buffer a step
// has touched, named by its slot's prefix and the parameter's name, and
// the step counter. Nil when there is nothing to resume (no step counted,
// no buffer touched). The buffers are the LIVE tensors (like
// nn.StateDict); serialise before stepping again if a frozen snapshot is
// needed.
func (o *Optimizer) StateDict() *State {
	buffers := make(map[string]*tensor.Tensor, len(o.slots)*len(o.params))
	for k, prefix := range o.slots {
		for i, b := range o.bufs[k] {
			if b != nil {
				buffers[prefix+o.params[i].Name] = b
			}
		}
	}
	if o.step == 0 && len(buffers) == 0 {
		return nil
	}
	return &State{Kind: o.kind.name, Step: o.step, LR: o.spec.LR, Buffers: buffers}
}

// LoadStateDict restores state captured by StateDict on an optimiser of
// the same kind over the same parameters, so a resumed run continues the
// velocity or moment trajectory instead of restarting it from zero. It
// refuses a state of another kind, a step counter the kind cannot hold, a
// buffer naming no slot of a known parameter, a shape mismatch, and a
// parameter carrying only some of its kind's slots: each means the state
// belongs to a different model or optimiser, and fails the load before
// any state is touched. An optimiser that keeps no buffers (SGD without
// momentum) ignores them: it would never advance them, and republishing
// them from StateDict would present epochs-stale state as current.
func (o *Optimizer) LoadStateDict(st *State) error {
	name := o.kind.name
	switch {
	case st.Empty():
		return nil
	case st.Kind != name:
		return fmt.Errorf("optim: %q state loaded into an %s optimiser", st.Kind, name)
	case st.Step < 0 || (!o.kind.counts && st.Step != 0):
		return fmt.Errorf("optim: %s state records step %d, which it cannot hold", name, st.Step)
	case len(o.slots) == 0:
		return nil
	}
	type at struct{ k, i int }
	slotOf := make(map[string]at, len(o.slots)*len(o.params))
	staged := make([][]*tensor.Tensor, len(o.slots))
	for k, prefix := range o.slots {
		staged[k] = make([]*tensor.Tensor, len(o.params))
		for i, p := range o.params {
			slotOf[prefix+p.Name] = at{k, i}
		}
	}
	for _, buf := range slices.Sorted(maps.Keys(st.Buffers)) {
		a, ok := slotOf[buf]
		if !ok {
			return fmt.Errorf("optim: %s state buffer %q names no slot of a parameter", name, buf)
		}
		src, w := st.Buffers[buf], o.params[a.i].Node.Val
		if !src.SameShape(w) {
			return fmt.Errorf("optim: %s state shape mismatch for %q: %v vs %v", name, buf, src.Shape(), w.Shape())
		}
		staged[a.k][a.i] = tensor.New(src.Shape()...)
		staged[a.k][a.i].CopyFrom(src)
	}
	for i, p := range o.params {
		for k := range staged {
			if (staged[k][i] == nil) != (staged[0][i] == nil) {
				return fmt.Errorf("optim: %s state for %q carries only some of its buffers", name, p.Name)
			}
		}
	}
	for k := range staged {
		for i, b := range staged[k] {
			if b != nil {
				o.bufs[k][i] = b
			}
		}
	}
	o.step = st.Step
	return nil
}
