package models

import (
	"fmt"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// vggCfg16 is configuration "D" of Simonyan & Zisserman: 13 conv layers in
// five stages (pool after each stage).
var vggCfg16 = [][]int{
	{64, 64},
	{128, 128},
	{256, 256, 256},
	{512, 512, 512},
	{512, 512, 512},
}

// VGG16 implements VGG-16 with batch norm. Two heads are supported:
//
//   - CIFAR head (imagenetHead=false): global average pool + one linear
//     layer — 14.72M parameters at 10 classes, matching Table 3.
//   - ImageNet head (imagenetHead=true): the original 4096-wide classifier,
//     used by the transfer-learning experiment (≈138M parameters at
//     224×224, matching the paper's custom VGG16 row).
//
// Pools that would shrink the spatial size below 1 are skipped so the model
// accepts small inputs (28×28 MNIST) and Amalgam-augmented sizes alike.
//
// CBAM parameters (when present) sit under "cbam<stage>"; the extractor
// treats them as part of the original model, matching the paper's workflow
// where the user modifies the model (adds CBAMs) before augmentation.
type VGG16 struct {
	nn.Children
	tapWidths
	cfg          CVConfig
	imagenetHead bool
	convs        [][]*nn.Conv2d
	bns          [][]*nn.BatchNorm2d
	poolAfter    []bool
	cbams        []*nn.CBAM // optional, one per stage (VGG16CBAM)
	headFC       []*nn.Linear
	drop         *nn.Dropout
	headInDim    int
}

// NewVGG16 builds the network for the given input geometry.
func NewVGG16(rng *tensor.RNG, cfg CVConfig, imagenetHead bool) *VGG16 {
	return buildVGG16(rng, cfg, imagenetHead, false)
}

// NewVGG16CBAM builds the paper's transfer-learning model: VGG16 with a
// Convolutional Block Attention Module inserted after every stage and the
// ImageNet 4096-wide classifier.
func NewVGG16CBAM(rng *tensor.RNG, cfg CVConfig) *VGG16 {
	return buildVGG16(rng, cfg, true, true)
}

func buildVGG16(rng *tensor.RNG, cfg CVConfig, imagenetHead, withCBAM bool) *VGG16 {
	m := &VGG16{cfg: cfg, imagenetHead: imagenetHead, drop: nn.NewDropout(rng.Split(999), 0.5)}
	inC := cfg.InC
	h, w := cfg.InH, cfg.InW
	for s, stage := range vggCfg16 {
		var convs []*nn.Conv2d
		var bns []*nn.BatchNorm2d
		srng := rng.Split(uint64(s + 1))
		for i, outC := range stage {
			convs = append(convs, nn.NewConv2dNoBias(srng.Split(uint64(i)), inC, outC, 3, 1, 1))
			bns = append(bns, nn.NewBatchNorm2d(outC))
			m.Add(fmt.Sprintf("stage%d.conv%d", s+1, i), convs[i])
			m.Add(fmt.Sprintf("stage%d.bn%d", s+1, i), bns[i])
			inC = outC
		}
		m.convs = append(m.convs, convs)
		m.bns = append(m.bns, bns)
		m.tapWidths = append(m.tapWidths, convs[len(convs)-1].OutC) // CBAM keeps it
		pool := h >= 2 && w >= 2
		if pool {
			h, w = h/2, w/2
		}
		m.poolAfter = append(m.poolAfter, pool)
		if withCBAM {
			m.cbams = append(m.cbams, nn.NewCBAM(srng.Split(77), inC))
			m.Add(fmt.Sprintf("cbam%d", s+1), m.cbams[s])
		}
	}
	hrng := rng.Split(100)
	if imagenetHead {
		m.headInDim = 512 * h * w
		m.headFC = []*nn.Linear{
			nn.NewLinear(hrng.Split(1), m.headInDim, 4096),
			nn.NewLinear(hrng.Split(2), 4096, 4096),
			nn.NewLinear(hrng.Split(3), 4096, cfg.Classes),
		}
	} else {
		m.headInDim = 512
		m.headFC = []*nn.Linear{nn.NewLinear(hrng.Split(1), 512, cfg.Classes)}
	}
	for i, fc := range m.headFC {
		m.Add(fmt.Sprintf("head%d", i), fc)
	}
	if imagenetHead { // the CIFAR head never runs the dropout
		m.Add("drop", m.drop)
	}
	return m
}

// Forward returns class logits.
func (m *VGG16) Forward(x *autodiff.Node) *autodiff.Node {
	logits, _ := m.ForwardFeatures(x)
	return logits
}

// ForwardFeatures returns logits plus per-stage activations.
func (m *VGG16) ForwardFeatures(x *autodiff.Node) (*autodiff.Node, []*autodiff.Node) {
	nn.CheckImageInput(x, m.cfg.InC)
	h := x
	var feats []*autodiff.Node
	for s := range m.convs {
		for i := range m.convs[s] {
			h = m.bns[s][i].ForwardAct(m.convs[s][i].Forward(h), tensor.ActReLU)
		}
		if m.poolAfter[s] {
			h = autodiff.MaxPool2d(h, 2, 2, 0)
		}
		if len(m.cbams) > 0 {
			h = m.cbams[s].Forward(h)
		}
		feats = append(feats, h)
	}
	var flat *autodiff.Node
	if m.imagenetHead {
		flat = autodiff.Flatten(h)
		flat = m.drop.Forward(m.headFC[0].ForwardAct(flat, tensor.ActReLU))
		flat = m.drop.Forward(m.headFC[1].ForwardAct(flat, tensor.ActReLU))
		return m.headFC[2].Forward(flat), feats
	}
	flat = autodiff.GlobalAvgPool(h)
	return m.headFC[0].Forward(flat), feats
}

var _ CVModel = (*VGG16)(nil)
