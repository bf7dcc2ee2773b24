// Command amalgam-augment obfuscates a dataset and reports the resulting
// geometry, size, and search space (the Dataset Augmenter of Fig. 1). The
// augmented tensors and the secret key are written as binary artifacts.
// Both modalities are supported: image datasets grow in the pixel plane,
// text datasets (agnews) grow per token window (Fig. 3).
//
//	amalgam-augment -dataset cifar10 -n 128 -amount 0.5 -out /tmp/job
//	amalgam-augment -dataset agnews -n 256 -amount 0.5 -out /tmp/job
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/serialize"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "amalgam-augment:", err)
		os.Exit(1)
	}
}

func run() error {
	dataset := flag.String("dataset", "cifar10", "agnews|"+strings.Join(slices.Sorted(maps.Keys(data.PaperImageSets)), "|"))
	n := flag.Int("n", 128, "number of synthetic samples")
	amount := flag.Float64("amount", 0.5, "augmentation amount")
	noise := flag.String("noise", "uniform", "uniform|gaussian|laplace")
	sigma := flag.Float64("sigma", 0.25, "sigma for gaussian/laplace noise")
	seed := flag.Uint64("seed", 42, "random seed")
	out := flag.String("out", "", "output directory for artifacts (optional)")
	flag.Parse()

	if *dataset == "agnews" {
		return runText(*n, *amount, *seed, *out)
	}

	ds, err := data.SyntheticImages(*dataset, *n, *seed)
	if err != nil {
		return err
	}

	spec := core.DefaultImageNoise()
	switch *noise {
	case "uniform":
	case "gaussian":
		spec = core.NoiseSpec{Type: core.NoiseGaussian, Mean: 0.5, Sigma: *sigma, Min: 0, Max: 1}
	case "laplace":
		spec = core.NoiseSpec{Type: core.NoiseLaplace, Mean: 0.5, Sigma: *sigma, Min: 0, Max: 1}
	default:
		return fmt.Errorf("unknown noise %q", *noise)
	}

	aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: *amount, Noise: spec, Seed: *seed})
	if err != nil {
		return err
	}
	origUnit := ds.H() * ds.W()
	augUnit := aug.Key.AugH * aug.Key.AugW
	fmt.Printf("dataset    : %s, %d samples\n", ds.Name, ds.N())
	fmt.Printf("resolution : %dx%d -> %dx%d (amount %.0f%%)\n", ds.H(), ds.W(), aug.Key.AugH, aug.Key.AugW, *amount*100)
	fmt.Printf("size       : %.1f MB -> %.1f MB\n", float64(ds.SizeBytes())/1e6, float64(aug.Dataset.SizeBytes())/1e6)
	fmt.Printf("searchspace: %s per channel (log10 %.1f)\n", core.SearchSpaceString(origUnit, augUnit), core.LogSearchSpace(origUnit, augUnit))
	fmt.Printf("privacy    : ε=%.3f ρ=%.3f\n", core.PrivacyLoss(*amount), core.ComputePerformanceLoss(*amount))

	if *out == "" {
		return nil
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	imgPath := filepath.Join(*out, "augmented_images.amt")
	if err := serialize.SaveAtomic(imgPath, func(w io.Writer) error {
		return serialize.WriteTensor(w, aug.Dataset.Images)
	}); err != nil {
		return err
	}
	keyPath := filepath.Join(*out, "key.amk")
	if err := serialize.SaveAtomic(keyPath, func(w io.Writer) error {
		return serialize.WriteIntSlice(w, aug.Key.Keep)
	}); err != nil {
		return err
	}
	fmt.Printf("artifacts  : %s (ship to cloud), %s (KEEP SECRET)\n", imgPath, keyPath)
	return nil
}

// runText augments the AG News-style classification corpus: every sample
// of length L grows to L + L·amount with synthetic tokens at the key's
// secret positions.
func runText(n int, amount float64, seed uint64, out string) error {
	ds := data.SyntheticAGNews(n, seed)
	aug, err := core.AugmentTextDataset(ds, core.TextAugmentOptions{
		Amount: amount, Noise: core.DefaultTextNoise(ds.Vocab), Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("dataset    : %s, %d samples (vocab %d)\n", ds.Name, ds.N(), ds.Vocab)
	fmt.Printf("seq length : %d -> %d tokens (amount %.0f%%)\n", ds.SeqLen(), aug.Dataset.SeqLen(), amount*100)
	fmt.Printf("size       : %.1f MB -> %.1f MB\n", float64(ds.SizeBytes())/1e6, float64(aug.Dataset.SizeBytes())/1e6)
	fmt.Printf("searchspace: %s per sample (log10 %.1f)\n",
		core.SearchSpaceString(ds.SeqLen(), aug.Dataset.SeqLen()), core.LogSearchSpace(ds.SeqLen(), aug.Dataset.SeqLen()))
	fmt.Printf("privacy    : ε=%.3f ρ=%.3f\n", core.PrivacyLoss(amount), core.ComputePerformanceLoss(amount))

	if out == "" {
		return nil
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	flat := make([]int, 0, aug.Dataset.N()*aug.Dataset.SeqLen())
	for _, s := range aug.Dataset.Samples {
		flat = append(flat, s...)
	}
	tokPath := filepath.Join(out, "augmented_tokens.ami")
	if err := serialize.SaveAtomic(tokPath, func(w io.Writer) error {
		return serialize.WriteIntSlice(w, flat)
	}); err != nil {
		return err
	}
	keyPath := filepath.Join(out, "key.amk")
	if err := serialize.SaveAtomic(keyPath, func(w io.Writer) error {
		return serialize.WriteIntSlice(w, aug.Key.Keep)
	}); err != nil {
		return err
	}
	fmt.Printf("artifacts  : %s (ship to cloud), %s (KEEP SECRET)\n", tokPath, keyPath)
	return nil
}
