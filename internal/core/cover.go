package core

import (
	"fmt"
	"sort"

	"amalgam/internal/data"
	"amalgam/internal/tensor"
)

// Cover-image augmentation is this reproduction's hardening against the
// smoothness identification attack (`amalgam-bench -experiment identify`).
//
// The attack works because only the true keep set reassembles a natural
// image. The countermeasure: at augmentation amounts ≥ 1, the insert
// region is large enough to hold a complete second image — a decoy *cover*
// dataset laid out in raster order at its own secret positions — and one
// decoy sub-network's gather is pointed exactly at it. The provider's
// smoothness ranking then faces two (or more) equally natural views and
// degrades toward a coin flip. The paper hints at the ingredient ("a user
// may use pixels from actual meaningful images", §4.1); wiring it to a
// decoy's gather set is the part that makes it effective.

// CoverAugmentedImages extends AugmentedImages with the cover's secret.
type CoverAugmentedImages struct {
	Dataset *data.ImageDataset
	Key     *ImageAugKey
	// CoverSet lists, in the cover's raster order, the augmented-plane
	// positions holding cover pixels. Hand it to the model augmenter as a
	// decoy gather (ModelAugmentOptions.DecoyGathers).
	CoverSet []int
}

// AugmentImagesWithCover obfuscates ds at the given amount (must be ≥ 1 so
// the insert region fits a full cover image) and embeds cover — a dataset
// with identical geometry and at least as many samples — at secret
// positions. Remaining insert positions receive noise as usual.
func AugmentImagesWithCover(ds, cover *data.ImageDataset, amount float64, noise NoiseSpec, seed uint64) (*CoverAugmentedImages, error) {
	if amount < 1 {
		return nil, fmt.Errorf("core: cover augmentation needs amount ≥ 1 (insert region must fit a full image), got %v", amount)
	}
	if err := noise.Validate(); err != nil {
		return nil, err
	}
	if noise.Type == NoiseSmoothInfill {
		return nil, fmt.Errorf("core: smooth-infill noise is not supported with cover images")
	}
	if cover.C() != ds.C() || cover.H() != ds.H() || cover.W() != ds.W() {
		return nil, fmt.Errorf("core: cover geometry %dx%dx%d must match dataset %dx%dx%d",
			cover.C(), cover.H(), cover.W(), ds.C(), ds.H(), ds.W())
	}
	if cover.N() < ds.N() {
		return nil, fmt.Errorf("core: cover has %d samples for %d dataset samples", cover.N(), ds.N())
	}
	rng := tensor.NewRNG(seed)
	keyRNG, noiseRNG := rng.Split(1), rng.Split(2)

	h, w, c := ds.H(), ds.W(), ds.C()
	key, err := NewImageAugKey(keyRNG, h, w, amount)
	if err != nil {
		return nil, err
	}
	n := h * w
	if len(key.Insert) < n {
		return nil, fmt.Errorf("core: insert region %d too small for cover of %d pixels", len(key.Insert), n)
	}
	// Choose the cover's positions among the insert region, sorted so the
	// cover keeps raster order (an exact, plausible keep set).
	pick := keyRNG.SampleIndices(len(key.Insert), n)
	sort.Ints(pick)
	coverSet := make([]int, n)
	coverMember := map[int]bool{}
	for i, j := range pick {
		coverSet[i] = key.Insert[j]
		coverMember[key.Insert[j]] = true
	}

	planeIn := n
	planeOut := key.AugH * key.AugW
	out := tensor.New(ds.N(), c, key.AugH, key.AugW)
	sample := noise.sampler(noiseRNG)
	for i := 0; i < ds.N(); i++ {
		for ch := 0; ch < c; ch++ {
			src := ds.Images.Data[(i*c+ch)*planeIn : (i*c+ch+1)*planeIn]
			cov := cover.Images.Data[(i*c+ch)*planeIn : (i*c+ch+1)*planeIn]
			dst := out.Data[(i*c+ch)*planeOut : (i*c+ch+1)*planeOut]
			for pi, pos := range key.Keep {
				dst[pos] = src[pi]
			}
			for pi, pos := range coverSet {
				dst[pos] = cov[pi]
			}
			for _, pos := range key.Insert {
				if !coverMember[pos] {
					dst[pos] = sample()
				}
			}
		}
	}
	return &CoverAugmentedImages{
		Dataset: &data.ImageDataset{
			Name:    ds.Name + "+cover",
			Images:  out,
			Labels:  append([]int(nil), ds.Labels...),
			Classes: ds.Classes,
		},
		Key:      key,
		CoverSet: coverSet,
	}, nil
}
