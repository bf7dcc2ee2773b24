package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
)

// tinyScale keeps harness tests to seconds.
func tinyScale() Scale { return Scale{TrainN: 16, TestN: 8, Epochs: 1, BatchSize: 8, LR: 0.05} }

func TestTable1Prints(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Amalgam", "SMPC", "HE", "TEE", "Low"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2QuickContainsPaperGeometries(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Resolution column from the paper.
	for _, want := range []string{"35x35", "48x48", "56x56", "280x280", "53130"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3MonotoneParams(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf, []string{"mnist"}, []string{"lenet"}, tinyScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// One row per amount, 0% first; the Params column is field 3.
	var params []int
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[1] == "lenet" {
			p, err := strconv.Atoi(f[3])
			if err != nil {
				t.Fatalf("Params column of %q: %v", line, err)
			}
			params = append(params, p)
		}
	}
	if len(params) != 1+len(Amounts) {
		t.Fatalf("Table 3 has %d lenet rows, want %d:\n%s", len(params), 1+len(Amounts), out)
	}
	ds := data.SyntheticMNIST(1, 3)
	zoo, err := amalgam.BuildCV("lenet", 7, models.CVConfig{InC: ds.C(), InH: ds.H(), InW: ds.W(), Classes: ds.Classes})
	if err != nil {
		t.Fatal(err)
	}
	if params[0] != nn.NumParams(zoo) {
		t.Fatalf("0%% row reports %d params, the zoo model has %d", params[0], nn.NumParams(zoo))
	}
	for i := 1; i < len(params); i++ {
		if params[i] <= params[i-1] {
			t.Fatalf("Params not strictly increasing in amount: %v", params)
		}
	}
}

// A failed row is the experiment's error, not a line in the table.
func TestFailedRowIsAnError(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf, []string{"mnist"}, []string{"no-such-model"}, tinyScale()); err == nil {
		t.Fatalf("unknown zoo model passed:\n%s", buf.String())
	}
	if err := CVCurves(&buf, "lenet", "no-such-dataset", tinyScale(), []float64{0}); err == nil {
		t.Fatalf("unknown dataset passed:\n%s", buf.String())
	}
}

func TestTable4Prints(t *testing.T) {
	var buf bytes.Buffer
	if err := Table4(&buf, tinyScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "transformer/wikitext2") || !strings.Contains(out, "textclassifier/agnews") {
		t.Fatalf("Table 4 incomplete:\n%s", out)
	}
	// Paper-vocab parameter check rows.
	if !strings.Contains(out, "12025582") || !strings.Contains(out, "6132228") {
		t.Fatalf("paper-vocab parameter check missing:\n%s", out)
	}
}

func TestCVCurvesCoincide(t *testing.T) {
	// The headline claim: augmented training curves match the original.
	// With identical seeds our exactness invariant makes the gap exactly 0.
	var buf bytes.Buffer
	CVCurves(&buf, "lenet", "mnist", tinyScale(), []float64{0, 0.5})
	out := buf.String()
	if !strings.Contains(out, "MaxValAccGap vs 0%: 0.0000") {
		t.Fatalf("curves did not coincide exactly:\n%s", out)
	}
}

// The paper's claim (ii) for NLP: obfuscated text and LM training follow
// the un-obfuscated curves exactly.
func TestNLPCurvesCoincide(t *testing.T) {
	for name, fig := range map[string]func(*bytes.Buffer) error{
		"Fig11 LM":   func(b *bytes.Buffer) error { return Fig11TransformerCurves(b, tinyScale(), []float64{0, 0.5}) },
		"Fig12 text": func(b *bytes.Buffer) error { return Fig12TextClassifierCurves(b, tinyScale(), []float64{0, 0.5}) },
	} {
		var buf bytes.Buffer
		if err := fig(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range []string{"MaxValAccGap vs 0%: 0.0000", "MaxValLossGap vs 0%: 0.0000"} {
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("%s curves did not coincide exactly (no %q):\n%s", name, want, buf.String())
			}
		}
	}
}

// meanLoss runs between the epochs of a live training run (and, outside
// one, over models being served): it must leave the mode as it found it.
func TestMeanLossRestoresTrainingMode(t *testing.T) {
	ds := data.SyntheticMNIST(4, 1)
	resnet, err := amalgam.BuildCV("resnet18", 7, models.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	job, err := amalgam.Obfuscate(resnet, ds, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lm := newLM(50)
	for _, tc := range []struct {
		name  string
		model interface{ SetTraining(bool) }
		n     int
		loss  func(idx []int) (*autodiff.Node, int)
	}{
		{"augmented CV (batch norm)", job.Augmented, job.AugmentedDataset.N(), func(idx []int) (*autodiff.Node, int) {
			x, labels := job.AugmentedDataset.Batch(idx)
			return autodiff.SoftmaxCrossEntropy(job.Augmented.Forward(autodiff.Constant(x)), labels), len(labels)
		}},
		{"plain LM (dropout)", lm, 2, func(idx []int) (*autodiff.Node, int) {
			return autodiff.SoftmaxCrossEntropy(lm.ForwardIDs([][]int{{1, 2, 3}}), []int{2, 3, 4}), 3
		}},
	} {
		for _, training := range []bool{true, false} {
			tc.model.SetTraining(training)
			inside := !training
			meanLoss(tc.model, tc.n, 2, func(idx []int) (*autodiff.Node, int) {
				inside = nn.TrainingMode(tc.model)
				return tc.loss(idx)
			})
			if inside {
				t.Errorf("%s: loss scored in training mode", tc.name)
			}
			if got := nn.TrainingMode(tc.model); got != training {
				t.Errorf("%s: mode %v before meanLoss, %v after", tc.name, training, got)
			}
		}
	}
}

func TestFig15Prints(t *testing.T) {
	var buf bytes.Buffer
	Fig15PrivacyLoss(&buf)
	if !strings.Contains(buf.String(), "0.5000") { // α=1 → ε=ρ=0.5
		t.Fatalf("Fig 15 output wrong:\n%s", buf.String())
	}
}

func TestBruteForcePrints(t *testing.T) {
	var buf bytes.Buffer
	BruteForce(&buf)
	out := buf.String()
	if !strings.Contains(out, "+Inf") {
		t.Fatalf("brute-force years should be +Inf for image datasets:\n%s", out)
	}
}

func TestFig16GradientLeakage(t *testing.T) {
	if testing.Short() {
		t.Skip("DLG finite differences are slow")
	}
	var buf bytes.Buffer
	if err := Fig16GradientLeakage(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Amalgam 50%") {
		t.Fatalf("Fig 16 incomplete:\n%s", buf.String())
	}
}

func TestFig18DenoisingAttack(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig18DenoisingAttack(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "amalgam") {
		t.Fatalf("Fig 18 incomplete:\n%s", buf.String())
	}
}

func TestSubnetIdentification(t *testing.T) {
	var buf bytes.Buffer
	if err := SubnetIdentification(&buf, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "accuracy") {
		t.Fatalf("identification output incomplete:\n%s", buf.String())
	}
}
