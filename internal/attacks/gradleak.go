package attacks

import (
	"math"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// Gradient-leakage attacks (Fig. 16, DLG/iDLG): the cloud, which computes
// gradients during training, tries to reconstruct the training input.
//
// Two attacks are implemented:
//
//   - RecoverFromLinearGradients: the closed-form inversion for a
//     first-layer fully connected network — dW[:,j] = x · dz_j, so
//     x = dW[:,j] / db[j] for any unit with non-zero bias gradient.
//     Exact for batch size 1 (iDLG's observation).
//   - DLG: iterative gradient matching — optimise a dummy input until its
//     gradients match the observed ones (Zhu et al.), with the matching
//     objective differentiated by central finite differences (our autodiff
//     is first-order).

// RecoverFromLinearGradients inverts a single sample from the gradients of
// the first fully connected layer (weight grad [in, out], bias grad
// [out]). Returns nil when no output unit carries usable signal.
func RecoverFromLinearGradients(dW, dB *tensor.Tensor) *tensor.Tensor {
	in, out := dW.Dim(0), dW.Dim(1)
	best := -1
	var bestMag float64
	for j := 0; j < out; j++ {
		if m := math.Abs(float64(dB.Data[j])); m > bestMag {
			bestMag, best = m, j
		}
	}
	if best < 0 || bestMag < 1e-12 {
		return nil
	}
	x := tensor.New(in)
	inv := 1 / dB.Data[best]
	for i := 0; i < in; i++ {
		x.Data[i] = dW.At(i, best) * inv
	}
	return x
}

// GradModel is the attacked network: any model mapping a flat input to
// logits whose parameter gradients the server observes.
type GradModel interface {
	Params() []nn.Param
	Forward(x *autodiff.Node) *autodiff.Node
}

// ObservedGradients computes the gradients the server sees for one
// (input, label) training example.
func ObservedGradients(m GradModel, x *tensor.Tensor, label int) map[string]*tensor.Tensor {
	nn.ZeroGrads(m)
	logits := m.Forward(autodiff.Constant(x))
	autodiff.Backward(autodiff.SoftmaxCrossEntropy(logits, []int{label}))
	out := make(map[string]*tensor.Tensor)
	for _, p := range m.Params() {
		if p.Node.Grad != nil {
			out[p.Name] = p.Node.Grad.Clone()
		}
	}
	return out
}

// gradMatchLoss is the DLG objective: Σ‖∇θL(x̂) − G*‖².
func gradMatchLoss(m GradModel, x *tensor.Tensor, label int, target map[string]*tensor.Tensor) float64 {
	got := ObservedGradients(m, x, label)
	var s float64
	for name, g := range target {
		h, ok := got[name]
		if !ok {
			continue
		}
		for i := range g.Data {
			d := float64(g.Data[i] - h.Data[i])
			s += d * d
		}
	}
	return s
}

// DLGOptions configures the iterative attack.
type DLGOptions struct {
	Iterations int
	LR         float64
	FDEps      float64 // finite-difference step
	Seed       uint64
}

// DefaultDLGOptions mirrors the paper's 84-iteration budget.
func DefaultDLGOptions() DLGOptions {
	return DLGOptions{Iterations: 84, LR: 0.3, FDEps: 1e-2, Seed: 1}
}

// DLGResult reports the attack outcome.
type DLGResult struct {
	Reconstruction *tensor.Tensor
	MatchLoss      float64
	Iterations     int
}

// DLG runs iterative gradient matching against m for the observed
// gradients of a single example with known label (iDLG first recovers the
// label from the sign structure of the last-layer gradient; we grant the
// attacker the label outright, strengthening the attack).
func DLG(m GradModel, inputShape []int, label int, observed map[string]*tensor.Tensor, opts DLGOptions) DLGResult {
	rng := tensor.NewRNG(opts.Seed)
	x := tensor.New(inputShape...)
	rng.FillUniform(x, 0, 1)
	loss := gradMatchLoss(m, x, label, observed)
	// Adam-style moments over the dummy input.
	mom := tensor.New(inputShape...)
	vel := tensor.New(inputShape...)
	const b1, b2, eps = 0.9, 0.999, 1e-8
	for it := 1; it <= opts.Iterations; it++ {
		// Central-difference gradient of the matching loss w.r.t. x.
		grad := tensor.New(inputShape...)
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + float32(opts.FDEps)
			fp := gradMatchLoss(m, x, label, observed)
			x.Data[i] = orig - float32(opts.FDEps)
			fm := gradMatchLoss(m, x, label, observed)
			x.Data[i] = orig
			grad.Data[i] = float32((fp - fm) / (2 * opts.FDEps))
		}
		bc1 := 1 - math.Pow(b1, float64(it))
		bc2 := 1 - math.Pow(b2, float64(it))
		for i := range x.Data {
			mom.Data[i] = b1*mom.Data[i] + (1-b1)*grad.Data[i]
			vel.Data[i] = b2*vel.Data[i] + (1-b2)*grad.Data[i]*grad.Data[i]
			mhat := float64(mom.Data[i]) / bc1
			vhat := float64(vel.Data[i]) / bc2
			x.Data[i] -= float32(opts.LR * mhat / (math.Sqrt(vhat) + eps))
			if x.Data[i] < 0 {
				x.Data[i] = 0
			} else if x.Data[i] > 1 {
				x.Data[i] = 1
			}
		}
		loss = gradMatchLoss(m, x, label, observed)
	}
	return DLGResult{Reconstruction: x, MatchLoss: loss, Iterations: opts.Iterations}
}

// RecoverLabelFromGradients implements iDLG's label-inference step: for
// cross-entropy with batch size 1, the last-layer bias gradient is
// softmax(logits) − onehot(label), so exactly one entry is negative — the
// true label. Returns -1 when the signature is absent (batch > 1 or a
// non-CE loss).
func RecoverLabelFromGradients(lastBiasGrad *tensor.Tensor) int {
	label := -1
	for i, g := range lastBiasGrad.Data {
		if g < 0 {
			if label >= 0 {
				return -1 // more than one negative entry: not a 1-sample CE gradient
			}
			label = i
		}
	}
	return label
}

// AttackMLP is a small two-layer network used as the gradient-leakage
// victim (finite-difference DLG is tractable on it; the closed-form attack
// uses its first layer).
type AttackMLP struct {
	FC1, FC2 *nn.Linear
}

// NewAttackMLP builds the victim model.
func NewAttackMLP(rng *tensor.RNG, in, hidden, classes int) *AttackMLP {
	return &AttackMLP{
		FC1: nn.NewLinear(rng.Split(1), in, hidden),
		FC2: nn.NewLinear(rng.Split(2), hidden, classes),
	}
}

// Forward maps a flat [1, in] input to logits.
func (m *AttackMLP) Forward(x *autodiff.Node) *autodiff.Node {
	flat := autodiff.Flatten(x)
	return m.FC2.Forward(m.FC1.ForwardAct(flat, tensor.ActReLU))
}

// Params returns the victim's parameters.
func (m *AttackMLP) Params() []nn.Param {
	var out []nn.Param
	out = append(out, nn.PrefixParams("fc1", m.FC1.Params())...)
	out = append(out, nn.PrefixParams("fc2", m.FC2.Params())...)
	return out
}

// SetTraining is a no-op.
func (m *AttackMLP) SetTraining(bool) {}
