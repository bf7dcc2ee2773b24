package core

import (
	"fmt"

	"amalgam/internal/data"
	"amalgam/internal/tensor"
)

// ImageAugmentOptions configures the Dataset Augmenter for images (§4.1).
type ImageAugmentOptions struct {
	// Amount is the augmentation amount A_d (0.25 = 25%). Each spatial side
	// grows to X + X·A_d.
	Amount float64
	// Noise selects the synthetic-pixel distribution.
	Noise NoiseSpec
	// Seed drives both key generation and noise sampling.
	Seed uint64
}

// AugmentedImages pairs the augmented dataset with its secret key.
type AugmentedImages struct {
	Dataset *data.ImageDataset
	Key     *ImageAugKey
}

// AugmentImages obfuscates an image dataset: every sample's channel planes
// are vectorised and synthetic pixels are inserted at the key's secret
// positions (fresh noise per sample and channel), growing X×Y images to
// (X+X·A)×(Y+Y·A) as in Fig. 2. Labels are unchanged.
func AugmentImages(ds *data.ImageDataset, opts ImageAugmentOptions) (*AugmentedImages, error) {
	if err := opts.Noise.Validate(); err != nil {
		return nil, err
	}
	if opts.Amount < 0 {
		return nil, fmt.Errorf("core: augmentation amount must be ≥ 0, got %v", opts.Amount)
	}
	rng := tensor.NewRNG(opts.Seed)
	keyRNG, noiseRNG := rng.Split(1), rng.Split(2)
	key, err := NewImageAugKey(keyRNG, ds.H(), ds.W(), opts.Amount)
	if err != nil {
		return nil, err
	}
	return &AugmentedImages{Dataset: augmentWithKey(ds, key, opts.Noise, noiseRNG), Key: key}, nil
}

// AugmentImagesWithKey obfuscates using an existing shared-position key so
// train and test splits (or later fine-tuning data) can share one secret.
func AugmentImagesWithKey(ds *data.ImageDataset, key *ImageAugKey, noise NoiseSpec, seed uint64) (*data.ImageDataset, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	if err := noise.Validate(); err != nil {
		return nil, err
	}
	if key.OrigH != ds.H() || key.OrigW != ds.W() {
		return nil, fmt.Errorf("core: key geometry %dx%d does not match dataset %dx%d", key.OrigH, key.OrigW, ds.H(), ds.W())
	}
	return augmentWithKey(ds, key, noise, tensor.NewRNG(seed).Split(2)), nil
}

// augmentWithKey scatters every channel plane of ds into the key's
// augmented plane (the positions are shared across channels, the pixel
// alignment Eq. 1 assumes) and fills the insert set from noiseRNG. The
// key's geometry matches ds: it was drawn for it or checked by the caller.
func augmentWithKey(ds *data.ImageDataset, k *ImageAugKey, noise NoiseSpec, noiseRNG *tensor.RNG) *data.ImageDataset {
	n, c := ds.N(), ds.C()
	planeIn := ds.H() * ds.W()
	planeOut := k.AugH * k.AugW
	out := tensor.New(n, c, k.AugH, k.AugW)
	smooth := noise.Type == NoiseSmoothInfill
	var sample func() float32
	if !smooth {
		sample = noise.sampler(noiseRNG)
	}
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := ds.Images.Data[(i*c+ch)*planeIn : (i*c+ch+1)*planeIn]
			dst := out.Data[(i*c+ch)*planeOut : (i*c+ch+1)*planeOut]
			for pi, pos := range k.Keep {
				dst[pos] = src[pi]
			}
			if smooth {
				smoothInfill(dst, k, noise.Sigma, noiseRNG)
				continue
			}
			for _, pos := range k.Insert {
				dst[pos] = sample()
			}
		}
	}
	return &data.ImageDataset{
		Name:    ds.Name + "+aug",
		Images:  out,
		Labels:  append([]int(nil), ds.Labels...),
		Classes: ds.Classes,
	}
}

// smoothInfill fills each insert position with the mean of its nearest
// already-placed raster neighbours (scanning outward along the flat
// layout), plus Gaussian jitter. The result keeps every sub-network's
// gathered view similarly smooth, blunting smoothness-based
// identification; `amalgam-bench -experiment identify` measures the
// effect.
func smoothInfill(dst []float32, k *ImageAugKey, sigma float64, rng *tensor.RNG) {
	filled := make([]bool, len(dst))
	for _, pos := range k.Keep {
		filled[pos] = true
	}
	for _, pos := range k.Insert {
		var sum float32
		var count int
		for d := 1; d < len(dst) && count < 2; d++ {
			if p := pos - d; p >= 0 && filled[p] {
				sum += dst[p]
				count++
			}
			if p := pos + d; p < len(dst) && filled[p] {
				sum += dst[p]
				count++
			}
		}
		v := float64(0.5)
		if count > 0 {
			v = float64(sum / float32(count))
		}
		v += rng.Normal(0, sigma)
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		dst[pos] = float32(v)
		filled[pos] = true
	}
}

// RecoverImages inverts augmentation with the key — the user-side
// operation proving the noise "does not alter the original information"
// (§4.1). It is also what an attacker *cannot* do without the key.
func RecoverImages(aug *data.ImageDataset, key *ImageAugKey) (*data.ImageDataset, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	if aug.H() != key.AugH || aug.W() != key.AugW {
		return nil, fmt.Errorf("core: augmented geometry %dx%d does not match key %dx%d", aug.H(), aug.W(), key.AugH, key.AugW)
	}
	n, c := aug.N(), aug.C()
	planeIn := key.AugH * key.AugW
	planeOut := key.OrigH * key.OrigW
	out := tensor.New(n, c, key.OrigH, key.OrigW)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := aug.Images.Data[(i*c+ch)*planeIn : (i*c+ch+1)*planeIn]
			dst := out.Data[(i*c+ch)*planeOut : (i*c+ch+1)*planeOut]
			for pi, pos := range key.Keep {
				dst[pi] = src[pos]
			}
		}
	}
	return &data.ImageDataset{
		Name:    aug.Name + "+recovered",
		Images:  out,
		Labels:  append([]int(nil), aug.Labels...),
		Classes: aug.Classes,
	}, nil
}
