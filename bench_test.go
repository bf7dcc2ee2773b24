package amalgam_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates the corresponding rows/series via the experiments harness
// (every training run in it is amalgam.Train over a job) and prints them
// on the first iteration only. These are the paper's shapes; the repo's
// perf gate is go run ./bench — README "Benchmarks" tells the two apart.
// Run: go test -bench=. -benchmem
//
// Scale: quick-scale synthetic data (see internal/experiments); shapes —
// orderings, monotone growth, curve coincidence — reproduce the paper,
// absolute times do not (CPU vs 2×RTX 3090).

import (
	"io"
	"os"
	"sync"
	"testing"

	"amalgam/internal/experiments"
)

// benchWriter prints to stdout exactly once per benchmark name so the
// tables land in bench_output.txt without repeating b.N times.
var benchOnce sync.Map

func out(b *testing.B) io.Writer {
	if _, loaded := benchOnce.LoadOrStore(b.Name(), true); loaded {
		return io.Discard
	}
	return os.Stdout
}

func quick() experiments.Scale {
	return experiments.Scale{TrainN: 16, TestN: 8, Epochs: 1, BatchSize: 8, LR: 0.05}
}

// floor is the minimal scale used for the heaviest models (VGG-16,
// DenseNet, MobileNet, CBAM) so the default bench run stays tractable;
// cmd/amalgam-bench -full runs them at larger scales.
func floor() experiments.Scale {
	return experiments.Scale{TrainN: 8, TestN: 4, Epochs: 1, BatchSize: 8, LR: 0.05}
}

func BenchmarkTable1Qualitative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(out(b))
	}
}

func BenchmarkTable2DatasetAugmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(out(b), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3CVTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(out(b), []string{"mnist"}, []string{"lenet", "resnet18"}, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3CVTrainingAllModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(out(b), []string{"mnist"}, []string{"vgg16", "densenet121", "mobilenetv2"}, floor()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4NLPTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table4(out(b), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5to7ResNetCurves(b *testing.B) {
	// Amount sweep {0,50%} per dataset keeps the default run tractable;
	// cmd/amalgam-bench -full runs the full {0,25,50,75,100}% sweep.
	for i := 0; i < b.N; i++ {
		w := out(b)
		for _, ds := range []string{"mnist", "cifar10", "cifar100"} {
			if err := experiments.CVCurves(w, "resnet18", ds, quick(), []float64{0, 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig8to10VGGCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := out(b)
		for _, ds := range []string{"mnist", "cifar10", "cifar100"} {
			if err := experiments.CVCurves(w, "vgg16", ds, floor(), []float64{0, 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigA1DenseNetMobileNetCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := out(b)
		for _, m := range []string{"densenet121", "mobilenetv2"} {
			if err := experiments.CVCurves(w, m, "mnist", floor(), []float64{0, 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig11TransformerCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig11TransformerCurves(out(b), quick(), []float64{0, 0.5, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12TextClassifierCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig12TextClassifierCurves(out(b), quick(), []float64{0, 0.5, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13TransferLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig13TransferLearning(out(b), floor(), []float64{0, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14FrameworkComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig14FrameworkComparison(out(b), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15PrivacyLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15PrivacyLoss(out(b))
	}
}

func BenchmarkFig16GradientLeakage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig16GradientLeakage(out(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17SHAPDistortion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig17SHAPDistortion(out(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18DenoisingAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig18DenoisingAttack(out(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForceAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.BruteForce(out(b))
	}
}

func BenchmarkSubnetIdentification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.SubnetIdentification(out(b), 3); err != nil {
			b.Fatal(err)
		}
	}
}
