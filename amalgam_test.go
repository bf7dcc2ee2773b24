package amalgam_test

import (
	"context"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"amalgam"
	"amalgam/internal/cloudsim"
	"amalgam/internal/nn"
)

// TestPublicAPIWorkflow exercises the documented quickstart path
// end-to-end: obfuscate → train → extract → evaluate.
func TestPublicAPIWorkflow(t *testing.T) {
	ds := amalgam.SyntheticMNIST(32, 1)
	test := amalgam.SyntheticMNIST(16, 2)
	model, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	job, err := amalgam.Obfuscate(model, ds, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if job.AugmentedDataset.H() != 42 {
		t.Fatalf("augmented geometry %d, want 42", job.AugmentedDataset.H())
	}
	stats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats %v", stats)
	}
	trained, err := job.Extract("lenet", 7)
	if err != nil {
		t.Fatal(err)
	}
	acc := amalgam.Predict(trained, test, 16)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
	augTest, err := job.ObfuscateTestSet(test, 9)
	if err != nil {
		t.Fatal(err)
	}
	if augTest.H() != 42 {
		t.Fatal("test split must share the key geometry")
	}
}

// TestTrainRemoteWorkflow runs the complete Fig. 1 loop through the public
// API against an in-process TCP training service, and verifies the
// extracted weights match local training bit-for-bit.
func TestTrainRemoteWorkflow(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := cloudsim.NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	ds := amalgam.SyntheticMNIST(16, 1)
	cfg := amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10}
	mk := func() *amalgam.Job {
		model, err := amalgam.BuildCV("lenet", 7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		job, err := amalgam.Obfuscate(model, ds, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 5, ModelName: "lenet"})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	tc := amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0.9}

	remote := mk()
	if _, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: l.Addr().String()}, remote, tc); err != nil {
		t.Fatal(err)
	}
	local := mk()
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, tc); err != nil {
		t.Fatal(err)
	}

	a, err := remote.Extract("lenet", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := local.Extract("lenet", 7)
	if err != nil {
		t.Fatal(err)
	}
	da, db := nn.StateDict(a), nn.StateDict(b)
	for name, src := range da {
		if !db[name].Equal(src) {
			t.Fatalf("remote vs local training diverged at %q", name)
		}
	}

	// ModelName is required.
	noName := func() *amalgam.Job {
		model, _ := amalgam.BuildCV("lenet", 7, cfg)
		job, _ := amalgam.Obfuscate(model, ds, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 5})
		return job
	}()
	if _, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: l.Addr().String()}, noName, tc); err == nil {
		t.Fatal("TrainRemote without ModelName should error")
	}
}

func TestPublicAPIValidation(t *testing.T) {
	ds := amalgam.SyntheticMNIST(8, 1)
	model, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := amalgam.Obfuscate(model, ds, amalgam.Options{Amount: -1}); err == nil {
		t.Fatal("negative amount should error")
	}
	job, err := amalgam.Obfuscate(model, ds, amalgam.Options{Amount: 0.25, SubNets: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job, amalgam.TrainConfig{}); err == nil {
		t.Fatal("zero-epoch training should error")
	}
	if _, err := amalgam.BuildCV("nope", 1, amalgam.CVConfig{}); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestEquationsExposed(t *testing.T) {
	if amalgam.PrivacyLoss(1) != 0.5 || amalgam.ComputePerformanceLoss(1) != 0.5 {
		t.Fatal("Eqs. 5-6 wrong")
	}
	if s := amalgam.SearchSpace(784, 1225); s < 345 || s > 347 {
		t.Fatalf("search space %v, want ≈346", s)
	}
}

// TestExtractBuildsForLoad: Extract, ExtractText and ExtractLM build their
// fresh model for load, and what they return is what building it normally
// with the same seed and extracting into it returns — the same weights and,
// for the language model, the same BuildSeed and dropout-stream cursors. A
// diverged run's NaN weight is copied and verified like any other: the
// copy is exact.
func TestExtractBuildsForLoad(t *testing.T) {
	same := func(t *testing.T, got, want interface{ Params() []nn.Param }) {
		t.Helper()
		gd, wd := nn.StateDict(got), nn.StateDict(want)
		if len(gd) != len(wd) {
			t.Fatalf("%d extracted tensors, want %d", len(gd), len(wd))
		}
		for name, w := range wd {
			if g, ok := gd[name]; !ok || !g.Equal(w) {
				t.Fatalf("extracted %q differs from extraction into a normally built model", name)
			}
		}
		gr, err1 := nn.RNGStates(got)
		wr, err2 := nn.RNGStates(want)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(gr, wr) {
			t.Fatalf("dropout-stream cursors differ (%v, %v)", err1, err2)
		}
	}
	poison := func(t *testing.T, aug interface{ Params() []nn.Param }) {
		t.Helper()
		for _, p := range aug.Params() {
			if strings.HasPrefix(p.Name, "orig.") {
				p.Node.Val.Data[0] = float32(math.NaN())
				return
			}
		}
		t.Fatal("fixture: no original parameter to poison")
	}

	t.Run("cv", func(t *testing.T) {
		job := mkCVJob(t, 42)
		poison(t, job.Augmented)
		got, err := job.Extract("lenet", 5)
		if err != nil {
			t.Fatalf("extracting a model that holds a NaN weight: %v", err)
		}
		want, err := amalgam.BuildCV("lenet", 5, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
		if err == nil {
			err = job.ExtractInto(want)
		}
		if err != nil {
			t.Fatal(err)
		}
		same(t, got, want)
	})
	t.Run("text", func(t *testing.T) {
		job := mkTextJob(t)
		poison(t, job.Augmented)
		got, err := job.ExtractText(5)
		if err != nil {
			t.Fatalf("extracting a classifier that holds a NaN weight: %v", err)
		}
		want := amalgam.BuildTextClassifier(5, 500, 16, 4)
		if err := job.ExtractTextInto(want); err != nil {
			t.Fatal(err)
		}
		same(t, got, want)
	})
	t.Run("lm", func(t *testing.T) {
		job := mkLMJob(t)
		poison(t, job.Augmented)
		got, err := job.ExtractLM(5)
		if err != nil {
			t.Fatalf("extracting a language model that holds a NaN weight: %v", err)
		}
		want := amalgam.BuildLMModel(5, lmConfig(300))
		if err := job.ExtractLMInto(want); err != nil {
			t.Fatal(err)
		}
		same(t, got, want)
		if got.BuildSeed != want.BuildSeed || got.Cfg != want.Cfg {
			t.Fatalf("extracted model records seed %d / config %+v, want %d / %+v", got.BuildSeed, got.Cfg, want.BuildSeed, want.Cfg)
		}
	})
}
