package models

import (
	"fmt"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// invertedResidual is MobileNetV2's block: 1×1 expand → 3×3 depthwise →
// 1×1 project, with a residual connection when stride is 1 and channel
// counts match.
type invertedResidual struct {
	nn.Children
	expand    *nn.Conv2d // nil when expansion factor is 1
	expandBN  *nn.BatchNorm2d
	dw        *nn.DepthwiseConv2d
	dwBN      *nn.BatchNorm2d
	project   *nn.Conv2d
	projectBN *nn.BatchNorm2d
	residual  bool
}

func newInvertedResidual(rng *tensor.RNG, inC, outC, stride, expandRatio int) *invertedResidual {
	hidden := inC * expandRatio
	b := &invertedResidual{residual: stride == 1 && inC == outC}
	if expandRatio != 1 {
		b.expand = nn.NewConv2dNoBias(rng.Split(1), inC, hidden, 1, 1, 0)
		b.expandBN = nn.NewBatchNorm2d(hidden)
		b.Add("expand", b.expand)
		b.Add("expandbn", b.expandBN)
	}
	b.dw = nn.NewDepthwiseConv2d(rng.Split(2), hidden, 3, stride, 1)
	b.dwBN = nn.NewBatchNorm2d(hidden)
	b.project = nn.NewConv2dNoBias(rng.Split(3), hidden, outC, 1, 1, 0)
	b.projectBN = nn.NewBatchNorm2d(outC)
	b.Add("dw", b.dw)
	b.Add("dwbn", b.dwBN)
	b.Add("project", b.project)
	b.Add("projectbn", b.projectBN)
	return b
}

func (b *invertedResidual) forward(x *autodiff.Node) *autodiff.Node {
	h := x
	if b.expand != nil {
		h = b.expandBN.ForwardAct(b.expand.Forward(h), tensor.ActReLU6)
	}
	h = b.project.Forward(b.dwBN.ForwardAct(b.dw.Forward(h), tensor.ActReLU6))
	if b.residual {
		return b.projectBN.ForwardResidual(h, x, tensor.ActNone)
	}
	return b.projectBN.Forward(h)
}

// MobileNetV2 is the CIFAR-style MobileNetV2 (stride-1 stem, the standard
// (t,c,n,s) schedule, 1280-wide head) — ≈2.3M parameters at 10 classes,
// matching Table 3's original row.
type MobileNetV2 struct {
	nn.Children
	tapWidths
	cfg     CVConfig
	stem    *nn.Conv2d
	stemBN  *nn.BatchNorm2d
	blocks  []*invertedResidual
	stageIx []int // indices into blocks after which a tap is exposed
	head    *nn.Conv2d
	headBN  *nn.BatchNorm2d
	fc      *nn.Linear
}

// NewMobileNetV2 builds the network for the given input geometry.
func NewMobileNetV2(rng *tensor.RNG, cfg CVConfig) *MobileNetV2 {
	m := &MobileNetV2{
		cfg:    cfg,
		stem:   nn.NewConv2dNoBias(rng.Split(1), cfg.InC, 32, 3, 1, 1),
		stemBN: nn.NewBatchNorm2d(32),
	}
	m.Add("stem", m.stem)
	m.Add("stembn", m.stemBN)
	// (expansion, outC, repeats, firstStride) — strides reduced for 32×32
	// inputs per the common CIFAR adaptation.
	schedule := []struct{ t, c, n, s int }{
		{1, 16, 1, 1}, {6, 24, 2, 1}, {6, 32, 3, 2}, {6, 64, 4, 2}, {6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
	}
	inC := 32
	for si, st := range schedule {
		srng := rng.Split(uint64(10 + si))
		for i := 0; i < st.n; i++ {
			stride := 1
			if i == 0 {
				stride = st.s
			}
			blk := newInvertedResidual(srng.Split(uint64(i)), inC, st.c, stride, st.t)
			m.Add(fmt.Sprintf("block%d", len(m.blocks)), blk)
			m.blocks = append(m.blocks, blk)
			inC = st.c
		}
		m.stageIx = append(m.stageIx, len(m.blocks)-1)
		m.tapWidths = append(m.tapWidths, m.blocks[len(m.blocks)-1].project.OutC)
	}
	m.head = nn.NewConv2dNoBias(rng.Split(2), inC, 1280, 1, 1, 0)
	m.headBN = nn.NewBatchNorm2d(1280)
	m.fc = nn.NewLinear(rng.Split(3), 1280, cfg.Classes)
	m.Add("headconv", m.head)
	m.Add("headbn", m.headBN)
	m.Add("fc", m.fc)
	return m
}

// Forward returns class logits.
func (m *MobileNetV2) Forward(x *autodiff.Node) *autodiff.Node {
	logits, _ := m.ForwardFeatures(x)
	return logits
}

// ForwardFeatures returns logits plus activations after selected stages.
func (m *MobileNetV2) ForwardFeatures(x *autodiff.Node) (*autodiff.Node, []*autodiff.Node) {
	nn.CheckImageInput(x, m.cfg.InC)
	h := m.stemBN.ForwardAct(m.stem.Forward(x), tensor.ActReLU6)
	var feats []*autodiff.Node
	next := 0
	for i, blk := range m.blocks {
		h = blk.forward(h)
		if next < len(m.stageIx) && i == m.stageIx[next] {
			feats = append(feats, h)
			next++
		}
	}
	h = m.headBN.ForwardAct(m.head.Forward(h), tensor.ActReLU6)
	return m.fc.Forward(autodiff.GlobalAvgPool(h)), feats
}

var _ CVModel = (*MobileNetV2)(nil)
