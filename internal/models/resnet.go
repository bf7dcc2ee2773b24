package models

import (
	"fmt"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// basicBlock is ResNet's two-conv residual block with optional projection
// shortcut.
type basicBlock struct {
	nn.Children
	conv1, conv2 *nn.Conv2d
	bn1, bn2     *nn.BatchNorm2d
	downConv     *nn.Conv2d // nil for identity shortcut
	downBN       *nn.BatchNorm2d
}

func newBasicBlock(rng *tensor.RNG, inC, outC, stride int) *basicBlock {
	b := &basicBlock{
		conv1: nn.NewConv2dNoBias(rng.Split(1), inC, outC, 3, stride, 1),
		bn1:   nn.NewBatchNorm2d(outC),
		conv2: nn.NewConv2dNoBias(rng.Split(2), outC, outC, 3, 1, 1),
		bn2:   nn.NewBatchNorm2d(outC),
	}
	b.Add("conv1", b.conv1)
	b.Add("bn1", b.bn1)
	b.Add("conv2", b.conv2)
	b.Add("bn2", b.bn2)
	if stride != 1 || inC != outC {
		b.downConv = nn.NewConv2dNoBias(rng.Split(3), inC, outC, 1, stride, 0)
		b.downBN = nn.NewBatchNorm2d(outC)
		b.Add("down.conv", b.downConv)
		b.Add("down.bn", b.downBN)
	}
	return b
}

func (b *basicBlock) forward(x *autodiff.Node) *autodiff.Node {
	out := b.conv2.Forward(b.bn1.ForwardAct(b.conv1.Forward(x), tensor.ActReLU))
	short := x
	if b.downConv != nil {
		short = b.downBN.Forward(b.downConv.Forward(x))
	}
	return b.bn2.ForwardResidual(out, short, tensor.ActReLU)
}

// ResNet18 is the CIFAR-style ResNet-18 (3×3 stem, four 2-block stages,
// global average pooling) used throughout the paper's CV evaluation;
// 11.17M parameters at 10 classes, matching Table 3's original row.
type ResNet18 struct {
	nn.Children
	tapWidths
	cfg    CVConfig
	stem   *nn.Conv2d
	stemBN *nn.BatchNorm2d
	stages [4][]*basicBlock
	fc     *nn.Linear
}

// NewResNet18 builds the network for the given input geometry.
func NewResNet18(rng *tensor.RNG, cfg CVConfig) *ResNet18 {
	m := &ResNet18{
		cfg:    cfg,
		stem:   nn.NewConv2dNoBias(rng.Split(1), cfg.InC, 64, 3, 1, 1),
		stemBN: nn.NewBatchNorm2d(64),
		fc:     nn.NewLinear(rng.Split(2), 512, cfg.Classes),
	}
	m.Add("stem", m.stem)
	m.Add("stembn", m.stemBN)
	widths := []int{64, 128, 256, 512}
	inC := 64
	for s, w := range widths {
		stride := 1
		if s > 0 {
			stride = 2
		}
		srng := rng.Split(uint64(10 + s))
		m.stages[s] = []*basicBlock{
			newBasicBlock(srng.Split(0), inC, w, stride),
			newBasicBlock(srng.Split(1), w, w, 1),
		}
		for b, blk := range m.stages[s] {
			m.Add(fmt.Sprintf("layer%d.%d", s+1, b), blk)
		}
		inC = w
		m.tapWidths = append(m.tapWidths, m.stages[s][1].conv2.OutC)
	}
	m.Add("fc", m.fc)
	return m
}

// Forward returns class logits.
func (m *ResNet18) Forward(x *autodiff.Node) *autodiff.Node {
	logits, _ := m.ForwardFeatures(x)
	return logits
}

// ForwardFeatures returns logits plus per-stage activations as tap points.
func (m *ResNet18) ForwardFeatures(x *autodiff.Node) (*autodiff.Node, []*autodiff.Node) {
	nn.CheckImageInput(x, m.cfg.InC)
	h := m.stemBN.ForwardAct(m.stem.Forward(x), tensor.ActReLU)
	feats := make([]*autodiff.Node, 0, 4)
	for _, stage := range m.stages {
		for _, blk := range stage {
			h = blk.forward(h)
		}
		feats = append(feats, h)
	}
	pooled := autodiff.GlobalAvgPool(h)
	return m.fc.Forward(pooled), feats
}

var _ CVModel = (*ResNet18)(nil)
