package models

import (
	"testing"

	"amalgam/internal/tensor"
)

func TestVGG16ImagenetHeadParamScale(t *testing.T) {
	// At 224×224 the ImageNet-head VGG16 must land near the canonical 138M.
	cfg := CVConfig{InC: 3, InH: 224, InW: 224, Classes: 10}
	m := NewVGG16(tensor.NewRNG(1), cfg, true)
	n := 0
	for _, p := range m.Params() {
		if p.Node.RequiresGrad() {
			n += p.Node.Val.Numel()
		}
	}
	if n < 125_000_000 || n > 145_000_000 {
		t.Fatalf("ImageNet-head VGG16 params %d, want ≈134–138M", n)
	}
}
