package models

import (
	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// LeNet5 is the classic LeCun'98 convolutional network, the model used in
// the paper's framework comparison (Fig. 14) and attack analysis (§6.3).
type LeNet5 struct {
	nn.Children
	tapWidths
	cfg           CVConfig
	Conv1, Conv2  *nn.Conv2d
	FC1, FC2, FC3 *nn.Linear
	flatDim       int
}

// NewLeNet5 builds LeNet-5 for the given input geometry.
func NewLeNet5(rng *tensor.RNG, cfg CVConfig) *LeNet5 {
	// conv5x5 pad2 keeps spatial size; two 2× pools quarter it.
	h, w := cfg.InH/2/2, cfg.InW/2/2
	flat := 16 * h * w
	m := &LeNet5{
		cfg:     cfg,
		Conv1:   nn.NewConv2d(rng.Split(1), cfg.InC, 6, 5, 1, 2),
		Conv2:   nn.NewConv2d(rng.Split(2), 6, 16, 5, 1, 2),
		FC1:     nn.NewLinear(rng.Split(3), flat, 120),
		FC2:     nn.NewLinear(rng.Split(4), 120, 84),
		FC3:     nn.NewLinear(rng.Split(5), 84, cfg.Classes),
		flatDim: flat,
	}
	m.tapWidths = tapWidths{m.Conv1.OutC, m.Conv2.OutC}
	m.Add("conv1", m.Conv1)
	m.Add("conv2", m.Conv2)
	m.Add("fc1", m.FC1)
	m.Add("fc2", m.FC2)
	m.Add("fc3", m.FC3)
	return m
}

// Forward returns class logits.
func (m *LeNet5) Forward(x *autodiff.Node) *autodiff.Node {
	logits, _ := m.ForwardFeatures(x)
	return logits
}

// ForwardFeatures returns logits and tap points (after each conv stage).
func (m *LeNet5) ForwardFeatures(x *autodiff.Node) (*autodiff.Node, []*autodiff.Node) {
	nn.CheckImageInput(x, m.cfg.InC)
	f1 := autodiff.MaxPool2d(m.Conv1.ForwardAct(x, tensor.ActReLU), 2, 2, 0)
	f2 := autodiff.MaxPool2d(m.Conv2.ForwardAct(f1, tensor.ActReLU), 2, 2, 0)
	flat := autodiff.Flatten(f2)
	h := m.FC1.ForwardAct(flat, tensor.ActReLU)
	h = m.FC2.ForwardAct(h, tensor.ActReLU)
	return m.FC3.Forward(h), []*autodiff.Node{f1, f2}
}

var _ CVModel = (*LeNet5)(nil)
