package attacks

import (
	"math"
	"sort"

	"amalgam/internal/tensor"
)

// Deep-denoising attack (Fig. 18): the provider treats the uploaded
// augmented image as a "noisy" photo and runs denoisers over it, hoping to
// recover the original. The paper uses Restormer and KBNet; any denoiser
// built on the additive-noise-on-a-fixed-grid assumption shares the
// failure mode (Amalgam inserts pixels, changing the geometry), so we
// substitute classical denoisers: Gaussian, median, and bilateral
// filtering.

// GaussianBlur convolves each channel with a normalised Gaussian kernel.
func GaussianBlur(img *tensor.Tensor, sigma float64) *tensor.Tensor {
	radius := int(math.Ceil(2 * sigma))
	if radius < 1 {
		radius = 1
	}
	size := 2*radius + 1
	kernel := make([]float64, size)
	var sum float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	tmp := tensor.New(c, h, w)
	out := tensor.New(c, h, w)
	// Separable: horizontal then vertical.
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var s float64
				for k := -radius; k <= radius; k++ {
					xx := clampInt(x+k, 0, w-1)
					s += kernel[k+radius] * float64(img.At(ch, y, xx))
				}
				tmp.Set(float32(s), ch, y, x)
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var s float64
				for k := -radius; k <= radius; k++ {
					yy := clampInt(y+k, 0, h-1)
					s += kernel[k+radius] * float64(tmp.At(ch, yy, x))
				}
				out.Set(float32(s), ch, y, x)
			}
		}
	}
	return out
}

// MedianFilter replaces each pixel with the median of its (2r+1)² window.
func MedianFilter(img *tensor.Tensor, radius int) *tensor.Tensor {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := tensor.New(c, h, w)
	window := make([]float64, 0, (2*radius+1)*(2*radius+1))
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				window = window[:0]
				for dy := -radius; dy <= radius; dy++ {
					for dx := -radius; dx <= radius; dx++ {
						yy := clampInt(y+dy, 0, h-1)
						xx := clampInt(x+dx, 0, w-1)
						window = append(window, float64(img.At(ch, yy, xx)))
					}
				}
				sort.Float64s(window)
				out.Set(float32(window[len(window)/2]), ch, y, x)
			}
		}
	}
	return out
}

// BilateralFilter smooths while preserving edges (spatial σs, range σr).
func BilateralFilter(img *tensor.Tensor, sigmaS, sigmaR float64) *tensor.Tensor {
	radius := int(math.Ceil(2 * sigmaS))
	if radius < 1 {
		radius = 1
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := tensor.New(c, h, w)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				center := float64(img.At(ch, y, x))
				var num, den float64
				for dy := -radius; dy <= radius; dy++ {
					for dx := -radius; dx <= radius; dx++ {
						yy := clampInt(y+dy, 0, h-1)
						xx := clampInt(x+dx, 0, w-1)
						v := float64(img.At(ch, yy, xx))
						ws := math.Exp(-float64(dy*dy+dx*dx) / (2 * sigmaS * sigmaS))
						wr := math.Exp(-(v - center) * (v - center) / (2 * sigmaR * sigmaR))
						num += ws * wr * v
						den += ws * wr
					}
				}
				out.Set(float32(num/den), ch, y, x)
			}
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DenoiseAttackResult reports PSNR (dB, vs the original image) for one
// denoiser on one input condition.
type DenoiseAttackResult struct {
	Denoiser string
	PSNR     float64
}

// RunDenoiseAttack applies every denoiser to the attacked image and scores
// the recovery against ground truth. If the attacked image's geometry
// differs from the original's (Amalgam augmentation), the attacker must
// naively resize — exactly the step that destroys the recovery.
func RunDenoiseAttack(attacked, original *tensor.Tensor) []DenoiseAttackResult {
	denoisers := []struct {
		name string
		fn   func(*tensor.Tensor) *tensor.Tensor
	}{
		{"gaussian", func(t *tensor.Tensor) *tensor.Tensor { return GaussianBlur(t, 1.0) }},
		{"median", func(t *tensor.Tensor) *tensor.Tensor { return MedianFilter(t, 1) }},
		{"bilateral", func(t *tensor.Tensor) *tensor.Tensor { return BilateralFilter(t, 1.5, 0.2) }},
	}
	oh, ow := original.Dim(1), original.Dim(2)
	out := make([]DenoiseAttackResult, 0, len(denoisers))
	for _, d := range denoisers {
		rec := d.fn(attacked)
		if rec.Dim(1) != oh || rec.Dim(2) != ow {
			rec = ResizeNaive(rec, oh, ow)
		}
		out = append(out, DenoiseAttackResult{Denoiser: d.name, PSNR: PSNR(rec, original)})
	}
	return out
}

// AddGaussianNoise returns img + N(0, σ²) clamped to [0,1] — the control
// condition where denoisers are expected to work.
func AddGaussianNoise(img *tensor.Tensor, sigma float64, rng *tensor.RNG) *tensor.Tensor {
	out := img.Clone()
	for i := range out.Data {
		v := float64(out.Data[i]) + rng.Normal(0, sigma)
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out.Data[i] = float32(v)
	}
	return out
}
