package core

import (
	"fmt"
	"sort"

	"amalgam/internal/tensor"
)

// ImageAugKey is the secret that ties an augmented image dataset to the
// skip-convolution layers of an augmented model: the positions inside the
// augmented pixel plane that hold original pixels. The same positions are
// used for every sample and shared across channels — the
// layout Eq. 1's fixed skip sets (x_a, y_a) imply, and the accounting
// under Table 2's per-channel search-space column.
//
// The key never leaves the user's machine; the cloud sees only the
// augmented artifacts.
type ImageAugKey struct {
	OrigH, OrigW int
	AugH, AugW   int
	// Keep lists, in original raster order, the flat indices (within one
	// augmented channel plane) holding original pixels. len == OrigH*OrigW.
	Keep []int
	// Insert lists the complementary indices holding noise, ascending.
	Insert []int
}

// AugmentedDim returns the augmented side length for an original side of x
// at augmentation amount a: x + round(x·a), the paper's X + X·A_d.
func AugmentedDim(x int, amount float64) int {
	return x + int(float64(x)*amount+0.5)
}

// NewImageAugKey draws a fresh secret for the given geometry.
func NewImageAugKey(rng *tensor.RNG, origH, origW int, amount float64) (*ImageAugKey, error) {
	if amount < 0 {
		return nil, fmt.Errorf("core: augmentation amount must be ≥ 0, got %v", amount)
	}
	augH, augW := AugmentedDim(origH, amount), AugmentedDim(origW, amount)
	n, na := origH*origW, augH*augW
	keep := rng.SampleIndices(na, n)
	sort.Ints(keep) // ascending keeps original raster order intact
	return &ImageAugKey{
		OrigH: origH, OrigW: origW, AugH: augH, AugW: augW,
		Keep:   keep,
		Insert: complementOf(keep, na),
	}, nil
}

// ImageAugKeyFromKeep rebuilds and validates a key from its geometry and
// keep set alone — the form it travels in (a wire spec carries no insert
// set; it is the complement).
func ImageAugKeyFromKeep(origH, origW, augH, augW int, keep []int) (*ImageAugKey, error) {
	k := &ImageAugKey{OrigH: origH, OrigW: origW, AugH: augH, AugW: augW, Keep: keep, Insert: complementOf(keep, augH*augW)}
	return k, k.Validate()
}

// Validate checks internal consistency (used after deserialisation).
func (k *ImageAugKey) Validate() error {
	return checkPartition(k.Keep, k.Insert, k.OrigH*k.OrigW, k.AugH*k.AugW)
}

// checkPartition is the one consistency check behind both key kinds: keep
// holds orig ascending positions (ascending preserves raster / token
// order), insert the remaining aug-orig, and together they use every
// position of [0, aug) exactly once.
func checkPartition(keep, insert []int, orig, aug int) error {
	if orig < 0 || aug < orig || len(keep) != orig || len(insert) != aug-orig {
		return fmt.Errorf("core: key has %d keep and %d insert positions, want %d and %d", len(keep), len(insert), orig, aug-orig)
	}
	seen := make([]bool, aug)
	for _, list := range [][]int{keep, insert} {
		for _, p := range list {
			if p < 0 || p >= aug {
				return fmt.Errorf("core: key position %d out of range [0,%d)", p, aug)
			}
			if seen[p] {
				return fmt.Errorf("core: key position %d duplicated", p)
			}
			seen[p] = true
		}
	}
	if !sort.IntsAreSorted(keep) {
		return fmt.Errorf("core: keep positions must be ascending to preserve original order")
	}
	return nil
}

// TextAugKey is the text counterpart: positions within each fixed-length
// window (BPTT window for LM streams, sample length for classification)
// holding original tokens — Eq. 2's ignore-set x_a is Insert.
type TextAugKey struct {
	OrigLen, AugLen int
	Keep            []int // ascending, len == OrigLen
	Insert          []int
}

// NewTextAugKey draws a fresh secret for sequences of length origLen.
func NewTextAugKey(rng *tensor.RNG, origLen int, amount float64) (*TextAugKey, error) {
	if amount < 0 {
		return nil, fmt.Errorf("core: augmentation amount must be ≥ 0, got %v", amount)
	}
	augLen := AugmentedDim(origLen, amount)
	keep := rng.SampleIndices(augLen, origLen)
	sort.Ints(keep)
	return &TextAugKey{
		OrigLen: origLen, AugLen: augLen,
		Keep:   keep,
		Insert: complementOf(keep, augLen),
	}, nil
}

// TextAugKeyFromKeep rebuilds and validates a key from its window lengths
// and keep set alone (see ImageAugKeyFromKeep).
func TextAugKeyFromKeep(origLen, augLen int, keep []int) (*TextAugKey, error) {
	k := &TextAugKey{OrigLen: origLen, AugLen: augLen, Keep: keep, Insert: complementOf(keep, augLen)}
	return k, k.Validate()
}

// Validate checks internal consistency.
func (k *TextAugKey) Validate() error {
	return checkPartition(k.Keep, k.Insert, k.OrigLen, k.AugLen)
}

// complementOf returns [0,n) minus the ascending set s. A set that is not
// ascending within [0,n) (possible when it arrived from outside) yields a
// complement of the wrong size, which checkPartition rejects.
func complementOf(s []int, n int) []int {
	if len(s) > n {
		return nil
	}
	out := make([]int, 0, n-len(s))
	j := 0
	for i := 0; i < n; i++ {
		if j < len(s) && s[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}
