package experiments

import (
	"fmt"
	"io"
	"math"

	"amalgam"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// CurveAmounts are the augmentation amounts plotted in Figs. 5–13
// (0% is the original-training reference curve).
var CurveAmounts = []float64{0, 0.25, 0.5, 0.75, 1.0}

// CVCurves reproduces one of Figs. 5–10/13: per-epoch train/val loss and
// accuracy for the given model on the given dataset, one series per
// augmentation amount. The paper's claim is that all series coincide with
// the 0% reference; the printed Max…Gap lines quantify it.
func CVCurves(w io.Writer, modelName, dsName string, sc Scale, amounts []float64) error {
	fmt.Fprintf(w, "Figure series: %s on %s (train/val loss+accuracy per epoch)\n", modelName, dsName)
	ds, err := datasetByName(dsName, sc.TrainN, 3)
	if err != nil {
		return err
	}
	test, err := datasetByName(dsName, sc.TestN, 4)
	if err != nil {
		return err
	}
	cfg := models.CVConfig{InC: ds.C(), InH: ds.H(), InW: ds.W(), Classes: ds.Classes}
	return curves(w, amounts, func(a float64) (RunResult, error) {
		m, err := amalgam.BuildCV(modelName, 7, cfg)
		if err != nil {
			return RunResult{}, err
		}
		return trainCV(pct(a), m, ds, test, amalgam.Options{Amount: a, SubNets: 3, Seed: 11}, sc)
	})
}

// curves trains one series per amount — every amount from the same
// seeds, so only the obfuscation differs — and prints one row per
// (series, epoch), then how far any series strays from the first (0% in
// every figure).
func curves(w io.Writer, amounts []float64, run func(amount float64) (RunResult, error)) error {
	var runs []RunResult
	for _, a := range amounts {
		r, err := run(a)
		if err != nil {
			return fmt.Errorf("series %s: %w", pct(a), err)
		}
		runs = append(runs, r)
	}
	fmt.Fprintf(w, "%-8s %-6s %-11s %-10s %-11s %-10s\n", "series", "epoch", "trainLoss", "trainAcc", "valLoss", "valAcc")
	for _, r := range runs {
		for _, p := range r.Points {
			fmt.Fprintf(w, "%-8s %-6d %-11.4f %-10.4f %-11.4f %-10.4f\n", r.Label, p.Epoch, p.TrainLoss, p.TrainAcc, p.ValLoss, p.ValAcc)
		}
	}
	if len(runs) == 0 {
		return nil
	}
	ref := runs[0]
	fmt.Fprintf(w, "MaxValAccGap vs %s: %.4f (coincide ⇒ ≈0; identical seeds give exactly 0)\n",
		ref.Label, maxGap(ref, runs, func(p EpochPoint) float64 { return p.ValAcc }))
	fmt.Fprintf(w, "MaxValLossGap vs %s: %.4f\n",
		ref.Label, maxGap(ref, runs, func(p EpochPoint) float64 { return p.ValLoss }))
	return nil
}

// maxGap is the largest per-epoch distance of any run's curve from ref's.
func maxGap(ref RunResult, runs []RunResult, curve func(EpochPoint) float64) float64 {
	var gap float64
	for _, r := range runs {
		for i, p := range r.Points {
			gap = math.Max(gap, math.Abs(curve(p)-curve(ref.Points[i])))
		}
	}
	return gap
}

// Fig11TransformerCurves reproduces the transformer LM loss curves.
func Fig11TransformerCurves(w io.Writer, sc Scale, amounts []float64) error {
	fmt.Fprintln(w, "Figure 11: transformer LM train/val loss on wikitext2-like stream")
	const window, vocab = 20, 2000
	stream := data.GenerateTokenStream(data.TextConfig{Name: "wt2", Tokens: sc.TrainN * window * 4, Vocab: vocab, Seed: 5})
	val := data.GenerateTokenStream(data.TextConfig{Name: "wt2v", Tokens: sc.TestN * window * 2, Vocab: vocab, Seed: 6})
	return curves(w, amounts, func(a float64) (RunResult, error) {
		return trainLM(pct(a), newLM(vocab), stream, val, window, amalgam.Options{Amount: a, SubNets: 2, Seed: 7}, sc)
	})
}

// Fig12TextClassifierCurves reproduces the AG News classifier curves.
func Fig12TextClassifierCurves(w io.Writer, sc Scale, amounts []float64) error {
	fmt.Fprintln(w, "Figure 12: text classification train/val loss+accuracy on agnews-like data")
	const vocab = 5000
	ds := data.GenerateClassifiedText(data.ClassTextConfig{Name: "ag", N: sc.TrainN * 2, SeqLen: 64, Vocab: vocab, Classes: 4, Seed: 8})
	val := data.GenerateClassifiedText(data.ClassTextConfig{Name: "agv", N: sc.TestN * 2, SeqLen: 64, Vocab: vocab, Classes: 4, Seed: 9})
	return curves(w, amounts, func(a float64) (RunResult, error) {
		return trainText(pct(a), amalgam.BuildTextClassifier(31, vocab, 64, 4), ds, val, amalgam.Options{Amount: a, SubNets: 2, Seed: 10}, sc)
	})
}

// Fig13TransferLearning reproduces the fine-tuning experiment: a
// "pre-trained" VGG16+CBAM (feature stages trained on a source task) is
// augmented and fine-tuned; curves must coincide with un-augmented
// fine-tuning. Runs at imagenette-lite geometry (64×64) for CPU sanity.
func Fig13TransferLearning(w io.Writer, sc Scale, amounts []float64) error {
	fmt.Fprintln(w, "Figure 13: transfer learning with VGG16+CBAM on imagenette-lite (64x64 stand-in)")
	lite := func(n int, seed uint64) *data.ImageDataset {
		return data.GenerateImages(data.ImageConfig{Name: "imagenette-lite", N: n, C: 3, H: 64, W: 64, Classes: 10, Seed: seed, Noise: 0.08})
	}
	source, target, test := lite(sc.TrainN, 41), lite(sc.TrainN, 42), lite(sc.TestN, 43)
	cfg := models.CVConfig{InC: 3, InH: 64, InW: 64, Classes: 10}

	// "Pre-train" on the source task briefly, then snapshot the feature
	// weights into every fine-tuning run.
	pre := models.NewVGG16CBAM(tensor.NewRNG(51), cfg)
	preSc := sc
	preSc.Epochs = 1
	if _, err := trainCV("pretrain", pre, source, nil, amalgam.Options{Seed: 44}, preSc); err != nil {
		return fmt.Errorf("pretrain: %w", err)
	}
	pretrained := nn.StateDict(pre)

	return curves(w, amounts, func(a float64) (RunResult, error) {
		m := models.NewVGG16CBAM(tensor.NewRNG(51), cfg)
		if err := nn.LoadStateDict(m, pretrained); err != nil {
			return RunResult{}, err
		}
		return trainCV(pct(a), m, target, test, amalgam.Options{Amount: a, SubNets: 2, Seed: 45}, sc)
	})
}

// Fig15PrivacyLoss prints Eqs. 5–6 over a sweep of augmentation amounts.
func Fig15PrivacyLoss(w io.Writer) {
	fmt.Fprintln(w, "Figure 15: privacy loss ε=1/(1+α) and computing performance loss ρ=α/(1+α)")
	fmt.Fprintf(w, "%-8s %-12s %-12s\n", "alpha", "privacyLoss", "perfLoss")
	var alphas []float64
	for a := 0.0; a <= 4.0001; a += 0.25 {
		alphas = append(alphas, a)
	}
	for _, row := range core.TradeoffCurve(alphas) {
		fmt.Fprintf(w, "%-8.2f %-12.4f %-12.4f\n", row.Alpha, row.PrivacyLoss, row.PerfLoss)
	}
}
