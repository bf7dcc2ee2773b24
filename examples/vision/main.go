// Vision example: ResNet-18 on synthetic CIFAR-10 with the full paper
// protocol — train augmented and un-augmented models side by side and show
// that the original sub-network's curves coincide exactly, then verify
// extraction parity on the test set.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"amalgam"
	"amalgam/internal/experiments"
)

func main() {
	// Side-by-side curves (the harness behind Figs. 6a–6d).
	sc := experiments.Scale{TrainN: 48, TestN: 24, Epochs: 2, BatchSize: 16, LR: 0.02}
	if err := experiments.CVCurves(os.Stdout, "resnet18", "cifar10", sc, []float64{0, 0.5}); err != nil {
		log.Fatal(err)
	}

	// The public-API version of the same workflow with extraction checks.
	train := amalgam.SyntheticCIFAR10(48, 3)
	test := amalgam.SyntheticCIFAR10(24, 4)
	model, err := amalgam.BuildCV("resnet18", 7, amalgam.CVConfig{InC: 3, InH: 32, InW: 32, Classes: 10})
	if err != nil {
		log.Fatal(err)
	}
	job, err := amalgam.Obfuscate(model, train, amalgam.Options{Amount: 0.5, SubNets: 3, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	// Train with a per-epoch eval of the held-out split, obfuscated with
	// the job key (§5.4's cloud-side validation path).
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job,
		amalgam.TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.02, Momentum: 0.9},
		amalgam.WithEvalSet(test),
		amalgam.WithProgress(func(s amalgam.EpochStats) {
			fmt.Printf("epoch %d: loss=%.4f train=%.3f eval=%.3f\n", s.Epoch, s.Loss, s.Accuracy, s.EvalAccuracy)
		})); err != nil {
		log.Fatal(err)
	}
	extracted, err := job.Extract("resnet18", 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted ResNet-18 accuracy on original test set: %.3f\n", amalgam.Predict(extracted, test, 16))

	// Validate the augmented model on the augmented test set (§5.4): the
	// two validation paths must agree.
	augTest, err := job.ObfuscateTestSet(test, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("augmented-model accuracy on augmented test set: %.3f (must match)\n",
		amalgam.Predict(job.Augmented, augTest, 16))
}
