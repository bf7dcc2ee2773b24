// Package models implements the paper's evaluation model zoo from scratch
// on the nn substrate: LeNet-5, ResNet-18, VGG-16 (CIFAR and ImageNet
// heads, with optional CBAM modules), a DenseNet-BC variant sized to the
// paper's ~1.0M-parameter DenseNet121 row, MobileNetV2, the AG News text
// classifier, and the WikiText-2 transformer language model.
//
// Every computer-vision model implements CVModel: alongside plain Forward
// it exposes ForwardFeatures, returning intermediate activations that
// Amalgam's model augmenter taps (detached) into decoy sub-networks, and
// TapChannels, their channel counts, which size the taps without a forward.
// A user-built model implements both methods, and the two must agree.
package models

import (
	"fmt"
	"slices"

	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// CVModel is an image classifier whose intermediate features can be tapped.
// A user-built model implements both methods, and they must agree.
type CVModel interface {
	nn.Module
	// ForwardFeatures returns the logits and a list of intermediate
	// activations (earliest first) usable as taps.
	ForwardFeatures(x *autodiff.Node) (logits *autodiff.Node, feats []*autodiff.Node)
	// TapChannels returns each tap's channel count (dim 1), earliest first.
	TapChannels() []int
}

// tapWidths gives a zoo model its TapChannels: the constructor records each
// tap's width from the layer that produces it.
type tapWidths []int

func (t tapWidths) TapChannels() []int { return slices.Clone(t) }

// TextModel is a token-input model (classification or language modelling).
type TextModel interface {
	// ForwardIDs maps a batch of token sequences to logits.
	ForwardIDs(ids [][]int) *autodiff.Node
	Params() []nn.Param
	SetTraining(training bool)
}

// CVConfig describes the input geometry a CV model is built for.
type CVConfig struct {
	InC, InH, InW int
	Classes       int
}

// BuildCV constructs a zoo model by name ("lenet", "resnet18", "vgg16",
// "densenet121", "mobilenetv2", "vgg16cbam").
func BuildCV(name string, rng *tensor.RNG, cfg CVConfig) (CVModel, error) {
	switch name {
	case "lenet":
		return NewLeNet5(rng, cfg), nil
	case "resnet18":
		return NewResNet18(rng, cfg), nil
	case "vgg16":
		return NewVGG16(rng, cfg, false), nil
	case "vgg16cbam":
		return NewVGG16CBAM(rng, cfg), nil
	case "densenet121":
		return NewDenseNetLite(rng, cfg), nil
	case "mobilenetv2":
		return NewMobileNetV2(rng, cfg), nil
	default:
		return nil, fmt.Errorf("models: unknown CV model %q", name)
	}
}

// CVModelNames lists the registry contents in evaluation order.
func CVModelNames() []string {
	return []string{"lenet", "resnet18", "vgg16", "densenet121", "mobilenetv2", "vgg16cbam"}
}
