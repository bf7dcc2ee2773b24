// Package nn provides neural-network layers on top of the autodiff engine
// — the substrate equivalent of torch.nn for this reproduction. Every
// layer carries stable, hierarchical parameter names so Amalgam's model
// extractor can identify original-layer weights inside an augmented model
// by name (§4.3).
//
// There is one composition, Children: a composite (a residual block, a
// zoo model, an augmented model) embeds it and registers its named parts
// once, in its constructor. The parameter listing, the train/eval switch,
// the mode query and the dropout-cursor capture are derived from that one
// list, so they cannot disagree about what the model contains. Forward
// passes are deliberately NOT composed: each composite's forward is plain
// code calling autodiff ops on its own struct fields, because real
// networks are not chains — they branch (residual shortcuts, dense
// concatenation), expose tap activations to decoys, fuse a layer with its
// activation, and take non-tensor inputs (token ids, masks) — and a
// container that hid that control flow would have to grow an option for
// each case.
package nn

import (
	"fmt"
	"maps"
	"slices"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

// Param is a named trainable tensor.
type Param struct {
	Name string
	Node *autodiff.Node
}

// Child is what a composite's tree needs from each part; every layer and
// every composite in this repository has both methods.
type Child interface {
	// Params returns the named parameters, prefixed hierarchically.
	Params() []Param
	// SetTraining toggles training-time behaviour (batch-norm statistics,
	// dropout) for this part and everything under it.
	SetTraining(training bool)
}

// Module is a tensor-to-tensor layer or network.
type Module interface {
	Child
	// Forward applies the module. Implementations may panic on shape
	// mismatch (programming error), mirroring the tensor package.
	Forward(x *autodiff.Node) *autodiff.Node
}

// TrainingMode reports a module's current train/eval mode for
// save-and-restore around forward-only passes (eval helpers, prediction
// servers): capture the mode, SetTraining(false), and restore the
// captured value afterwards, so an inference-only model is never left in
// training mode by a scoring call. Modules expose the mode via a
// Training() bool method; mode-less modules (no batch norm, no dropout)
// report true — the mode every layer is built in — which makes the
// restore a no-op for them.
func TrainingMode(m any) bool {
	if t, ok := m.(interface{ Training() bool }); ok {
		return t.Training()
	}
	return true
}

// PrefixParams returns params with prefix+"." prepended to every name.
func PrefixParams(prefix string, params []Param) []Param {
	out := make([]Param, len(params))
	for i, p := range params {
		out[i] = Param{Name: prefix + "." + p.Name, Node: p.Node}
	}
	return out
}

// NumParams sums the element counts of all trainable parameters
// (non-trainable state such as batch-norm running statistics is excluded).
func NumParams(m interface{ Params() []Param }) int {
	n := 0
	for _, p := range m.Params() {
		if p.Node.RequiresGrad() {
			n += p.Node.Val.Numel()
		}
	}
	return n
}

// ZeroGrads clears every parameter gradient.
func ZeroGrads(m interface{ Params() []Param }) {
	for _, p := range m.Params() {
		p.Node.ZeroGrad()
	}
}

// ParamByName finds a parameter by exact name.
func ParamByName(m interface{ Params() []Param }, name string) (Param, bool) {
	for _, p := range m.Params() {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// StateDict returns a name → tensor map of parameter values (the live
// tensors, not copies).
func StateDict(m interface{ Params() []Param }) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor)
	for _, p := range m.Params() {
		out[p.Name] = p.Node.Val
	}
	return out
}

// LoadStateDict copies values from dict into the matching parameters of m.
// Every parameter of m must be present in dict with a matching shape; all
// are checked before any is copied, so a failed load leaves m untouched.
func LoadStateDict(m interface{ Params() []Param }, dict map[string]*tensor.Tensor) error {
	params := m.Params()
	for _, p := range params {
		src, ok := dict[p.Name]
		if !ok {
			return fmt.Errorf("nn: LoadStateDict missing parameter %q", p.Name)
		}
		if !src.SameShape(p.Node.Val) {
			return fmt.Errorf("nn: LoadStateDict shape mismatch for %q: %v vs %v", p.Name, src.Shape(), p.Node.Val.Shape())
		}
	}
	for _, p := range params {
		p.Node.Val.CopyFrom(dict[p.Name])
	}
	return nil
}

// Children is the package's one composition: the ordered, named parts of
// a composite. A composite embeds it and registers each part once, in its
// constructor, with Add; Params, SetTraining, Training and the
// dropout-stream walks (RNGStates / LoadRNGStates) are all derived from
// that one list, so the state-dict keys, the mode switch and the RNG
// cursor names cannot drift apart.
type Children struct {
	list []namedChild
}

type namedChild struct {
	name string
	m    Child
}

// Add registers m under name (which may be dotted: "down.conv"). Order is
// parameter order. Optional parts are simply not added.
func (c *Children) Add(name string, m Child) {
	c.list = append(c.list, namedChild{name, m})
}

// Params returns every child's parameters under its name, in Add order.
// It sits on the per-step path (ZeroGrads), so it is the plain prefix
// walk and nothing more.
func (c *Children) Params() []Param {
	var out []Param
	for _, ch := range c.list {
		out = append(out, PrefixParams(ch.name, ch.m.Params())...)
	}
	return out
}

// SetTraining propagates to every child.
func (c *Children) SetTraining(training bool) {
	for _, ch := range c.list {
		ch.m.SetTraining(training)
	}
}

// Training reports the mode of the first batch norm or dropout in the
// tree (SetTraining keeps them all in sync); a tree without any reports
// true, as TrainingMode documents.
func (c *Children) Training() bool {
	training, ok := mode(c)
	return training || !ok
}

// tree is promoted into every type that embeds Children; it is how the
// walks below tell a composite from a leaf.
func (c *Children) tree() []namedChild { return c.list }

type composite interface{ tree() []namedChild }

// mode finds m's train/eval mode, skipping mode-less subtrees: a
// composite of only linear layers listed before a Dropout must not answer
// for it.
func mode(m any) (training, ok bool) {
	switch v := m.(type) {
	case composite:
		for _, ch := range v.tree() {
			if training, ok = mode(ch.m); ok {
				return training, true
			}
		}
	case interface{ Training() bool }:
		return v.Training(), true
	}
	return false, false
}

// dropouts visits every Dropout under m with its dotted path.
func dropouts(m any, path string, visit func(name string, d *Dropout)) {
	switch v := m.(type) {
	case *Dropout:
		visit(path, v)
	case composite:
		for _, ch := range v.tree() {
			name := ch.name
			if path != "" {
				name = path + "." + name
			}
			dropouts(ch.m, name, visit)
		}
	}
}

// RNGStates captures the dropout-stream cursor of every Dropout in m's
// tree under its dotted path ("orig.block0.drop"), the same naming the
// state dict uses. Together with the weights and optimiser state these
// make an interrupted Dropout > 0 run resumable bit-identically: the
// restored streams continue the mask sequence instead of replaying it
// from the model's build. A model without dropout yields a nil map.
func RNGStates(m any) (map[string][]byte, error) {
	var out map[string][]byte
	var firstErr error
	dropouts(m, "", func(name string, d *Dropout) {
		b, err := d.rng.MarshalState()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("nn: dropout stream %q: %w", name, err)
		}
		if out == nil {
			out = make(map[string][]byte)
		}
		out[name] = b
	})
	return out, firstErr
}

// LoadRNGStates restores cursors captured by RNGStates. A stream missing
// from states is left untouched (checkpoints without the section still
// load); a name outside m's tree or undecodable bytes are errors, since
// they signal a checkpoint from a different architecture.
func LoadRNGStates(m any, states map[string][]byte) error {
	known := make(map[string]*Dropout)
	dropouts(m, "", func(name string, d *Dropout) { known[name] = d })
	for _, name := range slices.Sorted(maps.Keys(states)) {
		d, ok := known[name]
		if !ok {
			return fmt.Errorf("nn: unknown dropout stream %q", name)
		}
		if err := d.rng.UnmarshalState(states[name]); err != nil {
			return fmt.Errorf("nn: dropout stream %q: %w", name, err)
		}
	}
	return nil
}
