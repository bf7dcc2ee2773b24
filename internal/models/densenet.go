package models

import (
	"fmt"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// denseLayer is DenseNet-BC's bottleneck unit: BN-ReLU-Conv1×1(4k) →
// BN-ReLU-Conv3×3(k); its output is concatenated onto its input.
type denseLayer struct {
	nn.Children
	bn1, bn2     *nn.BatchNorm2d
	conv1, conv2 *nn.Conv2d
}

func newDenseLayer(rng *tensor.RNG, inC, growth int) *denseLayer {
	inter := 4 * growth
	l := &denseLayer{
		bn1:   nn.NewBatchNorm2d(inC),
		conv1: nn.NewConv2dNoBias(rng.Split(1), inC, inter, 1, 1, 0),
		bn2:   nn.NewBatchNorm2d(inter),
		conv2: nn.NewConv2dNoBias(rng.Split(2), inter, growth, 3, 1, 1),
	}
	l.Add("bn1", l.bn1)
	l.Add("conv1", l.conv1)
	l.Add("bn2", l.bn2)
	l.Add("conv2", l.conv2)
	return l
}

func (l *denseLayer) forward(x *autodiff.Node) *autodiff.Node {
	h := l.conv1.Forward(l.bn1.ForwardAct(x, tensor.ActReLU))
	h = l.conv2.Forward(l.bn2.ForwardAct(h, tensor.ActReLU))
	return autodiff.ConcatChannels(x, h)
}

// transition halves channels (compression 0.5) and spatial size.
type transition struct {
	bn   *nn.BatchNorm2d
	conv *nn.Conv2d
}

func newTransition(rng *tensor.RNG, inC, outC int) *transition {
	return &transition{bn: nn.NewBatchNorm2d(inC), conv: nn.NewConv2dNoBias(rng, inC, outC, 1, 1, 0)}
}

func (t *transition) forward(x *autodiff.Node) *autodiff.Node {
	h := t.conv.Forward(t.bn.ForwardAct(x, tensor.ActReLU))
	return autodiff.AvgPool2d(h, 2, 2, 0)
}

// DenseNetLite is a DenseNet-BC with DenseNet-121's block pattern
// (6/12/24/16 layers) but growth rate 12 instead of 32, sizing it to the
// ~1.0M parameters the paper reports for its DenseNet121 configuration
// (Table 3 lists 10.00×10⁵). Structure — dense connectivity, bottlenecks,
// 0.5-compression transitions — is faithful to Huang et al.
type DenseNetLite struct {
	nn.Children
	tapWidths
	cfg     CVConfig
	stem    *nn.Conv2d
	blocks  [][]*denseLayer
	trans   []*transition
	finalBN *nn.BatchNorm2d
	fc      *nn.Linear
}

// DenseNetLiteGrowth is the growth rate selected to hit the paper's
// parameter budget (growth 12 lands at ≈0.99M parameters vs the paper's
// 1.00M; `amalgam-bench -experiment table3` prints the measured count).
const DenseNetLiteGrowth = 12

// NewDenseNetLite builds the network for the given input geometry.
func NewDenseNetLite(rng *tensor.RNG, cfg CVConfig) *DenseNetLite {
	growth := DenseNetLiteGrowth
	blockSizes := []int{6, 12, 24, 16}
	width := 2 * growth
	m := &DenseNetLite{
		cfg:  cfg,
		stem: nn.NewConv2dNoBias(rng.Split(1), cfg.InC, width, 3, 1, 1),
	}
	m.Add("stem", m.stem)
	for bi, nLayers := range blockSizes {
		brng := rng.Split(uint64(10 + bi))
		var layers []*denseLayer
		for li := 0; li < nLayers; li++ {
			l := newDenseLayer(brng.Split(uint64(li)), width, growth)
			m.Add(fmt.Sprintf("block%d.%d", bi+1, li), l)
			layers = append(layers, l)
			width += growth
		}
		m.blocks = append(m.blocks, layers)
		m.tapWidths = append(m.tapWidths, width)
		if bi < len(blockSizes)-1 {
			out := width / 2
			tr := newTransition(brng.Split(999), width, out)
			m.trans = append(m.trans, tr)
			m.Add(fmt.Sprintf("trans%d.bn", bi+1), tr.bn)
			m.Add(fmt.Sprintf("trans%d.conv", bi+1), tr.conv)
			width = out
		}
	}
	m.finalBN = nn.NewBatchNorm2d(width)
	m.fc = nn.NewLinear(rng.Split(2), width, cfg.Classes)
	m.Add("finalbn", m.finalBN)
	m.Add("fc", m.fc)
	return m
}

// Forward returns class logits.
func (m *DenseNetLite) Forward(x *autodiff.Node) *autodiff.Node {
	logits, _ := m.ForwardFeatures(x)
	return logits
}

// ForwardFeatures returns logits plus per-block activations.
func (m *DenseNetLite) ForwardFeatures(x *autodiff.Node) (*autodiff.Node, []*autodiff.Node) {
	nn.CheckImageInput(x, m.cfg.InC)
	h := m.stem.Forward(x)
	var feats []*autodiff.Node
	for bi, block := range m.blocks {
		for _, l := range block {
			h = l.forward(h)
		}
		feats = append(feats, h)
		if bi < len(m.trans) {
			h = m.trans[bi].forward(h)
		}
	}
	h = m.finalBN.ForwardAct(h, tensor.ActReLU)
	return m.fc.Forward(autodiff.GlobalAvgPool(h)), feats
}

var _ CVModel = (*DenseNetLite)(nil)
