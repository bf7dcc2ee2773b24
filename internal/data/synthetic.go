package data

import (
	"fmt"
	"math"

	"amalgam/internal/tensor"
)

// ImageConfig parameterises a synthetic image dataset.
type ImageConfig struct {
	Name    string
	N       int // number of samples
	C, H, W int
	Classes int
	Seed    uint64
	// Noise is the per-pixel Gaussian jitter added on top of the class
	// pattern; higher values make the classification task harder.
	Noise float64
}

// GenerateImages builds a class-conditional synthetic image dataset.
//
// Each class k is assigned a smooth 2-D sinusoidal texture with
// class-specific frequencies, phases, and per-channel gains; samples add a
// random translation and pixel noise. CNNs learn these quickly (they are
// oriented-frequency detectors), giving meaningful accuracy/loss curves,
// while shapes, ranges, and sizes match the real datasets.
func GenerateImages(cfg ImageConfig) *ImageDataset {
	if cfg.N <= 0 || cfg.Classes <= 0 {
		panic(fmt.Sprintf("data: bad ImageConfig %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)
	images := tensor.New(cfg.N, cfg.C, cfg.H, cfg.W)
	labels := make([]int, cfg.N)

	type classPattern struct {
		fy, fx, phase float64
		gain          []float64
	}
	patterns := make([]classPattern, cfg.Classes)
	prng := rng.Split(1)
	for k := range patterns {
		gains := make([]float64, cfg.C)
		for c := range gains {
			gains[c] = 0.35 + 0.45*prng.Float64()
		}
		patterns[k] = classPattern{
			fy:    1 + float64(k%5) + prng.Float64(),
			fx:    1 + float64((k/5)%5) + prng.Float64(),
			phase: 2 * math.Pi * prng.Float64(),
			gain:  gains,
		}
	}

	srng := rng.Split(2)
	sz := cfg.C * cfg.H * cfg.W
	for i := 0; i < cfg.N; i++ {
		k := i % cfg.Classes // balanced classes
		labels[i] = k
		p := patterns[k]
		dy := srng.Float64() * 2 * math.Pi
		dx := srng.Float64() * 2 * math.Pi
		base := i * sz
		for c := 0; c < cfg.C; c++ {
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					v := 0.5 + 0.5*p.gain[c]*math.Sin(
						2*math.Pi*(p.fy*float64(y)/float64(cfg.H)+p.fx*float64(x)/float64(cfg.W))+p.phase+dy*0.1+dx*0.1)
					v += srng.Normal(0, cfg.Noise)
					if v < 0 {
						v = 0
					} else if v > 1 {
						v = 1
					}
					images.Data[base+(c*cfg.H+y)*cfg.W+x] = float32(v)
				}
			}
		}
	}
	return &ImageDataset{Name: cfg.Name, Images: images, Labels: labels, Classes: cfg.Classes}
}

// PaperImageSet is one of the paper's image datasets: the geometry of its
// synthetic stand-in (Table 2 row 0) and the real dataset's sample count
// (train+test, as Table 2's sizes imply), so harnesses report paper-scale
// sizes while computing on reduced sets of identical per-image geometry.
type PaperImageSet struct {
	Config ImageConfig // N and Seed are left zero; Synthetic sets them
	PaperN int
}

// PaperImageSets is the image dataset registry, by name.
var PaperImageSets = map[string]PaperImageSet{
	"mnist":      {ImageConfig{Name: "mnist", C: 1, H: 28, W: 28, Classes: 10, Noise: 0.05}, 70000},
	"cifar10":    {ImageConfig{Name: "cifar10", C: 3, H: 32, W: 32, Classes: 10, Noise: 0.08}, 60000},
	"cifar100":   {ImageConfig{Name: "cifar100", C: 3, H: 32, W: 32, Classes: 100, Noise: 0.08}, 60000},
	"imagenette": {ImageConfig{Name: "imagenette", C: 3, H: 224, W: 224, Classes: 10, Noise: 0.08}, 13394},
}

// Synthetic returns an n-sample stand-in for the dataset.
func (s PaperImageSet) Synthetic(n int, seed uint64) *ImageDataset {
	cfg := s.Config
	cfg.N, cfg.Seed = n, seed
	return GenerateImages(cfg)
}

// SyntheticImages returns an n-sample stand-in for the named paper image
// dataset; a name the registry lacks is an error.
func SyntheticImages(name string, n int, seed uint64) (*ImageDataset, error) {
	s, ok := PaperImageSets[name]
	if !ok {
		return nil, fmt.Errorf("data: unknown image dataset %q", name)
	}
	return s.Synthetic(n, seed), nil
}

// SyntheticMNIST returns an n-sample 1×28×28, 10-class dataset.
func SyntheticMNIST(n int, seed uint64) *ImageDataset {
	return PaperImageSets["mnist"].Synthetic(n, seed)
}

// SyntheticCIFAR10 returns an n-sample 3×32×32, 10-class dataset.
func SyntheticCIFAR10(n int, seed uint64) *ImageDataset {
	return PaperImageSets["cifar10"].Synthetic(n, seed)
}

// SyntheticCIFAR100 returns an n-sample 3×32×32, 100-class dataset.
func SyntheticCIFAR100(n int, seed uint64) *ImageDataset {
	return PaperImageSets["cifar100"].Synthetic(n, seed)
}

// SyntheticImagenette returns an n-sample 3×224×224, 10-class dataset.
func SyntheticImagenette(n int, seed uint64) *ImageDataset {
	return PaperImageSets["imagenette"].Synthetic(n, seed)
}

// TextConfig parameterises a synthetic token stream.
type TextConfig struct {
	Name   string
	Tokens int
	Vocab  int
	Seed   uint64
}

// GenerateTokenStream builds a WikiText-2-style corpus: a first-order
// Markov chain whose unigram distribution is Zipfian, giving realistic
// token statistics for an LM to model (the transformer's loss decreases
// as it learns the transition structure).
func GenerateTokenStream(cfg TextConfig) *TokenStream {
	rng := tensor.NewRNG(cfg.Seed)
	toks := make([]int, cfg.Tokens)
	// Zipfian sampler via inverse CDF over harmonic weights.
	cdf := make([]float64, cfg.Vocab)
	var total float64
	for i := 0; i < cfg.Vocab; i++ {
		total += 1 / math.Pow(float64(i+1), 1.1)
		cdf[i] = total
	}
	sample := func(r float64) int {
		lo, hi := 0, cfg.Vocab-1
		target := r * total
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Markov structure: each token deterministically biases the next draw
	// towards a "successor cluster", making sequences predictable enough to
	// learn but not trivial.
	prev := 0
	for i := range toks {
		if rng.Float64() < 0.55 {
			// Follow the chain: successor cluster of prev.
			toks[i] = (prev*7 + 1 + rng.IntN(13)) % cfg.Vocab
		} else {
			toks[i] = sample(rng.Float64())
		}
		prev = toks[i]
	}
	return &TokenStream{Name: cfg.Name, Tokens: toks, Vocab: cfg.Vocab}
}

// WikiText2Vocab matches the real WikiText-2 vocabulary size, which the
// paper's 12.03M-parameter transformer implies.
const WikiText2Vocab = 28782

// WikiText2PaperTokens is the approximate token count of the real corpus
// (drives Table 2's 16.4 MB size at 8 bytes/token).
const WikiText2PaperTokens = 2050000

// SyntheticWikiText2 returns an n-token WikiText-2 stand-in.
func SyntheticWikiText2(n int, seed uint64) *TokenStream {
	return GenerateTokenStream(TextConfig{Name: "wikitext2", Tokens: n, Vocab: WikiText2Vocab, Seed: seed})
}

// ClassTextConfig parameterises a synthetic text-classification corpus.
type ClassTextConfig struct {
	Name    string
	N       int
	SeqLen  int
	Vocab   int
	Classes int
	Seed    uint64
}

// GenerateClassifiedText builds an AG News-style classification dataset:
// each class owns a pool of "topic" tokens; a sample mixes topic tokens
// with Zipfian background tokens.
func GenerateClassifiedText(cfg ClassTextConfig) *TextDataset {
	rng := tensor.NewRNG(cfg.Seed)
	samples := make([][]int, cfg.N)
	labels := make([]int, cfg.N)
	const topicPool = 200
	for i := 0; i < cfg.N; i++ {
		k := i % cfg.Classes
		labels[i] = k
		seq := make([]int, cfg.SeqLen)
		for j := range seq {
			if rng.Float64() < 0.4 {
				// Topic token: class-specific band of the vocabulary.
				seq[j] = (k*topicPool + rng.IntN(topicPool)) % cfg.Vocab
			} else {
				// Background token: low-id-biased (Zipf-ish by squaring).
				u := rng.Float64()
				seq[j] = int(u * u * float64(cfg.Vocab))
				if seq[j] >= cfg.Vocab {
					seq[j] = cfg.Vocab - 1
				}
			}
		}
		samples[i] = seq
	}
	return &TextDataset{Name: cfg.Name, Samples: samples, Labels: labels, Vocab: cfg.Vocab, Classes: cfg.Classes}
}

// AGNewsVocab matches the real AG News vocabulary, implied by the paper's
// 6.13M-parameter text classifier (95812 × 64-d embedding ≈ 6.13M).
const AGNewsVocab = 95812

// AGNewsSeqLen is the fixed token length per sample reverse-engineered
// from Table 2's search-space column: at L=144, C(180,36) ≈ 9.73e37,
// C(216,72) ≈ 2.94e58 and C(252,108) ≈ 2.78e73 match the paper's 25/50/75%
// rows to two decimals. (The paper's 100% row reads 2.33e86 where C(288,144)
// is 2.33e85 — an off-by-one-decade typo.)
const AGNewsSeqLen = 144

// AGNewsPaperSamples is the real corpus size (120k train + 7.6k test).
const AGNewsPaperSamples = 127600

// SyntheticAGNews returns an n-sample AG News stand-in (4 classes).
func SyntheticAGNews(n int, seed uint64) *TextDataset {
	return GenerateClassifiedText(ClassTextConfig{
		Name: "agnews", N: n, SeqLen: AGNewsSeqLen, Vocab: AGNewsVocab, Classes: 4, Seed: seed,
	})
}
