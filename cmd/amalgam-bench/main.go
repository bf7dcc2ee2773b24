// Command amalgam-bench regenerates the paper's tables and figures; it is
// not the perf harness, which is bench/ (go run ./bench).
//
//	amalgam-bench -experiment all            # everything, quick scale
//	amalgam-bench -experiment table2         # one experiment
//	amalgam-bench -experiment table3 -full   # heavier sweep
//
// Experiments: table1 table2 table3 table4 curves nlpcurves transfer
// fig14 fig15 fig16 fig17 fig18 bruteforce identify all
package main

import (
	"flag"
	"fmt"
	"os"

	"amalgam/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "amalgam-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("experiment", "all", "which experiment to run")
	full := flag.Bool("full", false, "heavier sweep (more samples/epochs/models)")
	flag.Parse()

	sc := experiments.QuickScale()
	if *full {
		sc = experiments.FullScale()
	}
	w := os.Stdout
	amounts := []float64{0, 0.25, 0.5, 0.75, 1.0}
	if !*full {
		amounts = []float64{0, 0.5, 1.0}
	}

	runOne := func(name string) error {
		switch name {
		case "table1":
			experiments.Table1(w)
		case "table2":
			return experiments.Table2(w, !*full)
		case "table3":
			modelsList := []string{"lenet", "resnet18"}
			datasets := []string{"mnist"}
			if *full {
				modelsList = []string{"resnet18", "vgg16", "densenet121", "mobilenetv2"}
				datasets = []string{"mnist", "cifar10", "cifar100"}
			}
			return experiments.Table3(w, datasets, modelsList, sc)
		case "table4":
			return experiments.Table4(w, sc)
		case "curves":
			datasets := []string{"mnist"}
			if *full {
				datasets = []string{"mnist", "cifar10", "cifar100"}
			}
			for _, ds := range datasets {
				if err := experiments.CVCurves(w, "resnet18", ds, sc, amounts); err != nil {
					return err
				}
			}
		case "nlpcurves":
			if err := experiments.Fig11TransformerCurves(w, sc, amounts); err != nil {
				return err
			}
			return experiments.Fig12TextClassifierCurves(w, sc, amounts)
		case "transfer":
			tsc := sc
			if !*full {
				tsc.TrainN, tsc.TestN = 8, 8
			}
			return experiments.Fig13TransferLearning(w, tsc, []float64{0, 0.5})
		case "fig14":
			return experiments.Fig14FrameworkComparison(w, sc)
		case "fig15":
			experiments.Fig15PrivacyLoss(w)
		case "fig16":
			return experiments.Fig16GradientLeakage(w)
		case "fig17":
			return experiments.Fig17SHAPDistortion(w)
		case "fig18":
			return experiments.Fig18DenoisingAttack(w)
		case "bruteforce":
			experiments.BruteForce(w)
		case "identify":
			return experiments.SubnetIdentification(w, 5)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *exp != "all" {
		return runOne(*exp)
	}
	for _, name := range []string{
		"table1", "table2", "table3", "table4",
		"curves", "nlpcurves", "transfer",
		"fig14", "fig15", "fig16", "fig17", "fig18",
		"bruteforce", "identify",
	} {
		fmt.Fprintf(w, "\n===== %s =====\n", name)
		if err := runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
