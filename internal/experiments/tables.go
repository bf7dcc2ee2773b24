package experiments

import (
	"fmt"
	"io"
	"time"

	"amalgam"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// Amounts are the paper's augmentation amounts.
var Amounts = []float64{0.25, 0.5, 0.75, 1.0}

// Table1 prints the qualitative framework comparison.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: privacy-preserving framework properties")
	fmt.Fprintf(w, "%-10s %-10s %-10s %-14s %-16s %s\n", "Technique", "Usability", "Overhead", "AccuracyLoss", "GPUAcceleration", "Compatibility")
	rows := [][]string{
		{"SMPC", "Complex", "High", "No", "Yes", "All models"},
		{"HE", "Simple", "VeryHigh", "Yes", "No", "Limited models"},
		{"FL", "Complex", "Medium", "Yes", "Yes", "All models"},
		{"DP", "Simple", "High", "Yes", "Yes", "Limited datasets"},
		{"TEE", "Complex", "High", "No", "No", "Limited models"},
		{"Amalgam", "Simple", "Low", "No", "Yes", "All models"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-10s %-10s %-14s %-16s %s\n", r[0], r[1], r[2], r[3], r[4], r[5])
	}
}

// table2Dataset describes one Table 2 dataset family. An image family is
// one data.PaperImageSets names, and its geometry and paper-scale count
// are that row's.
type table2Dataset struct {
	name     string
	window   int // text window (BPTT / sample length)
	paperN   int // paper-scale token (wikitext2) or sample (agnews) count
	measureN int // samples actually augmented for timing
	vocab    int
}

func table2Config(quick bool) []table2Dataset {
	imgMeasure := 256
	imagenetteMeasure := 4
	if quick {
		imgMeasure = 64
		imagenetteMeasure = 2
	}
	return []table2Dataset{
		{name: "mnist", measureN: imgMeasure},
		{name: "cifar10", measureN: imgMeasure},
		{name: "cifar100", measureN: imgMeasure},
		{name: "imagenette", measureN: imagenetteMeasure},
		{name: "wikitext2", window: 20, paperN: data.WikiText2PaperTokens, measureN: 200000, vocab: data.WikiText2Vocab},
		{name: "agnews", window: data.AGNewsSeqLen, paperN: data.AGNewsPaperSamples, measureN: 2000, vocab: data.AGNewsVocab},
	}
}

// Table2 reproduces the dataset-augmentation table: per augmentation
// amount, the measured augmentation time (scaled to the paper's dataset
// size), resulting resolution, dataset size, and search space.
func Table2(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "Table 2: dataset augmentation results")
	fmt.Fprintf(w, "%-11s %-8s %-14s %-11s %-13s %s\n", "Dataset", "Amount", "AvgTime(s)*", "Resolution", "Size", "SearchSpace")
	fmt.Fprintln(w, "  (*) measured on a subset, scaled linearly to the paper's sample count")
	for _, cfg := range table2Config(quick) {
		row := table2Text
		if _, ok := data.PaperImageSets[cfg.name]; ok {
			row = table2Image
		}
		if err := row(w, cfg); err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
	}
	return nil
}

func table2Image(w io.Writer, cfg table2Dataset) error {
	set := data.PaperImageSets[cfg.name]
	ds := set.Synthetic(cfg.measureN, 1)
	c, h, paperN := set.Config.C, set.Config.H, set.PaperN
	origBytes := int64(paperN) * int64(c) * int64(h) * int64(h) * 4
	fmt.Fprintf(w, "%-11s %-8s %-14s %-11s %-13s %s\n", cfg.name, "0%", "-", fmt.Sprintf("%dx%d", h, h), sizeStr(origBytes), "-")
	for _, a := range Amounts {
		start := time.Now()
		aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: a, Noise: core.DefaultImageNoise(), Seed: 2})
		if err != nil {
			return err
		}
		perSample := time.Since(start).Seconds() / float64(cfg.measureN)
		scaled := perSample * float64(paperN)
		augH := aug.Key.AugH
		augBytes := int64(paperN) * int64(c) * int64(augH) * int64(augH) * 4
		space := core.ImageSearchSpaceString(c, h*h, augH*augH)
		fmt.Fprintf(w, "%-11s %-8s %-14.1f %-11s %-13s %s\n",
			cfg.name, pct(a), scaled, fmt.Sprintf("%dx%d", augH, augH), sizeStr(augBytes), space)
	}
	return nil
}

func table2Text(w io.Writer, cfg table2Dataset) error {
	origBytes := int64(cfg.paperN) * 8
	if cfg.name == "agnews" {
		origBytes = int64(cfg.paperN) * int64(cfg.window) * 8
	}
	fmt.Fprintf(w, "%-11s %-8s %-14s %-11s %-13s %s\n", cfg.name, "0%", "-", "-", sizeStr(origBytes), "-")
	for _, a := range Amounts {
		var perUnit float64
		var augLen int
		if cfg.name == "wikitext2" {
			stream := data.SyntheticWikiText2(cfg.measureN, 1)
			start := time.Now()
			aug, err := core.AugmentTokenStream(stream, core.TextAugmentOptions{Amount: a, WindowLen: cfg.window, Noise: core.DefaultTextNoise(cfg.vocab), Seed: 2})
			if err != nil {
				return err
			}
			perUnit = time.Since(start).Seconds() / float64(cfg.measureN)
			augLen = aug.Key.AugLen
		} else {
			ds := data.SyntheticAGNews(cfg.measureN, 1)
			start := time.Now()
			aug, err := core.AugmentTextDataset(ds, core.TextAugmentOptions{Amount: a, Noise: core.DefaultTextNoise(cfg.vocab), Seed: 2})
			if err != nil {
				return err
			}
			perUnit = time.Since(start).Seconds() / float64(cfg.measureN)
			augLen = aug.Key.AugLen
		}
		scaled := perUnit * float64(cfg.paperN)
		augBytes := int64(float64(origBytes) * (1 + a))
		fmt.Fprintf(w, "%-11s %-8s %-14.1f %-11s %-13s %s\n",
			cfg.name, pct(a), scaled, "-", sizeStr(augBytes), core.SearchSpaceString(cfg.window, augLen))
	}
	return nil
}

// rowAmounts are a table's rows per model: the un-obfuscated baseline
// (amount 0, the same product path with nothing added) then Amounts.
var rowAmounts = append([]float64{0}, Amounts...)

// Table3 reproduces the CV-model table: parameter counts after
// augmentation (exact, at paper geometry) and measured training time per
// run at the harness scale.
func Table3(w io.Writer, datasets []string, modelNames []string, sc Scale) error {
	fmt.Fprintln(w, "Table 3: computer-vision model training with different augmentation amounts")
	fmt.Fprintf(w, "%-10s %-13s %-8s %-14s %-14s\n", "Dataset", "Model", "Amount", "Params", "TrainTime(s)")
	for _, dsName := range datasets {
		base, err := data.SyntheticImages(dsName, sc.TrainN, 3)
		if err != nil {
			return err
		}
		cfg := models.CVConfig{InC: base.C(), InH: base.H(), InW: base.W(), Classes: base.Classes}
		for _, mn := range modelNames {
			for _, a := range rowAmounts {
				m, err := amalgam.BuildCV(mn, 7, cfg)
				if err != nil {
					return err
				}
				res, err := trainCV(mn, m, base, nil, amalgam.Options{Amount: a, SubNets: 3, Seed: 11}, sc)
				if err != nil {
					return fmt.Errorf("%s/%s at %s: %w", dsName, mn, pct(a), err)
				}
				fmt.Fprintf(w, "%-10s %-13s %-8s %-14d %-14.1f\n", dsName, mn, pct(a), res.Params, res.Seconds)
			}
		}
	}
	return nil
}

// Table4 reproduces the NLP-model table (parameters and training time).
func Table4(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "Table 4: NLP model training with different augmentations")
	fmt.Fprintf(w, "%-28s %-8s %-14s %-14s\n", "Model/Dataset", "Amount", "Params", "TrainTime(s)")

	// Transformer / WikiText-2-like stream. Reduced vocab keeps the quick
	// run tractable; params are also reported at paper vocab separately.
	const lmRow, window, vocab = "transformer/wikitext2", 20, 2000
	stream := data.GenerateTokenStream(data.TextConfig{Name: "wikitext2", Tokens: sc.TrainN * window * 4, Vocab: vocab, Seed: 5})
	for _, a := range rowAmounts {
		res, err := trainLM(lmRow, newLM(vocab), stream, nil, window, amalgam.Options{Amount: a, SubNets: 2, Seed: 6}, sc)
		if err != nil {
			return fmt.Errorf("%s at %s: %w", lmRow, pct(a), err)
		}
		fmt.Fprintf(w, "%-28s %-8s %-14d %-14.1f\n", lmRow, pct(a), res.Params, res.Seconds)
	}

	// Text classification / AG News-like dataset (reduced vocab).
	const clsRow, clsVocab = "textclassifier/agnews", 5000
	cls := data.GenerateClassifiedText(data.ClassTextConfig{Name: "agnews", N: sc.TrainN * 2, SeqLen: 64, Vocab: clsVocab, Classes: 4, Seed: 8})
	for _, a := range rowAmounts {
		res, err := trainText(clsRow, amalgam.BuildTextClassifier(31, clsVocab, 64, 4), cls, nil, amalgam.Options{Amount: a, SubNets: 2, Seed: 9}, sc)
		if err != nil {
			return fmt.Errorf("%s at %s: %w", clsRow, pct(a), err)
		}
		fmt.Fprintf(w, "%-28s %-8s %-14d %-14.1f\n", clsRow, pct(a), res.Params, res.Seconds)
	}

	fmt.Fprintf(w, "paper-vocab parameter check: transformer(28782)=%d textclassifier(95812)=%d\n",
		nn.NumParams(models.NewTransformerLM(tensor.NewRNG(1), models.DefaultTransformerLMConfig(data.WikiText2Vocab))),
		nn.NumParams(models.NewTextClassifier(tensor.NewRNG(1), data.AGNewsVocab, 64, 4)))
	return nil
}

// newLM builds the reduced transformer Table 4 and Fig. 11 train, from
// the seed every amount shares.
func newLM(vocab int) *models.TransformerLM {
	return amalgam.BuildLMModel(21, models.TransformerLMConfig{Vocab: vocab, D: 64, Heads: 2, FF: 64, Layers: 2, MaxT: 64, Dropout: 0})
}

func pct(a float64) string { return fmt.Sprintf("%.0f%%", a*100) }

func sizeStr(bytes int64) string {
	switch {
	case bytes >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(bytes)/1e9)
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(bytes)/1e6)
	default:
		return fmt.Sprintf("%.1fKB", float64(bytes)/1e3)
	}
}
