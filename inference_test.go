package amalgam_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/faultnet"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// TestPredictRestoresTrainingMode pins the mode-leak fix: eval helpers
// must save and restore the model's prior train/eval mode instead of
// unconditionally forcing training mode afterwards, so back-to-back
// Predict calls are bit-identical and a model mid-training is not
// silently flipped.
func TestPredictRestoresTrainingMode(t *testing.T) {
	ds := amalgam.SyntheticMNIST(8, 2)
	m, err := amalgam.BuildCV("resnet18", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}

	// A model explicitly in eval mode must stay there.
	m.SetTraining(false)
	a := amalgam.Predict(m, ds, 4)
	if nn.TrainingMode(m) {
		t.Fatal("Predict flipped an eval-mode model back to training mode")
	}
	b := amalgam.Predict(m, ds, 4)
	if a != b {
		t.Fatalf("back-to-back Predict diverged: %v vs %v", a, b)
	}

	// A model mid-training must come back in training mode.
	m.SetTraining(true)
	_ = amalgam.Predict(m, ds, 4)
	if !nn.TrainingMode(m) {
		t.Fatal("Predict left a training-mode model in eval mode")
	}

	// A non-positive batch size scores one sample at a time instead of
	// panicking out of internal/data, and still restores the mode.
	if zero, one := amalgam.Predict(m, ds, 0), amalgam.Predict(m, ds, 1); zero != one {
		t.Fatalf("batch 0 scored %v, batch 1 scored %v", zero, one)
	}
	if !nn.TrainingMode(m) {
		t.Fatal("Predict with batch 0 left a training-mode model in eval mode")
	}
	empty := &amalgam.ImageDataset{Images: tensor.New(0, 1, 28, 28), Classes: 10}
	if got := amalgam.Predict(m, empty, 0); got != 0 {
		t.Fatalf("empty dataset scored %v, want 0", got)
	}
}

// TestPredictSteadyStatePoolStable pins the eval-path leak fix: scoring
// releases every forward graph back to the tensor pool, so steady-state
// evaluation allocates no fresh pool buffers.
func TestPredictSteadyStatePoolStable(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; miss counts are meaningless")
	}
	// sync.Pool keeps a private slot per P and is emptied by the collector,
	// so which Get misses depends on scheduling and GC timing; on one P
	// with the collector off, a miss can only be a buffer that leaked.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ds := amalgam.SyntheticMNIST(16, 2)
	m, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := amalgam.Predict(m, ds, 8) // warmup populates the pool
	_, miss0 := tensor.PoolStats()
	for i := 0; i < 5; i++ {
		if got := amalgam.Predict(m, ds, 8); got != want {
			t.Fatalf("accuracy drifted: %v vs %v", got, want)
		}
	}
	_, miss1 := tensor.PoolStats()
	if miss1 != miss0 {
		t.Errorf("steady-state eval allocated %d fresh pool buffers over 5 passes; want 0", miss1-miss0)
	}
}

// TestEmptyEvalSetRejected pins the NaN guard: an empty held-out split is
// refused at option-apply time with a typed sentinel instead of training
// for epochs and reporting NaN accuracy.
func TestEmptyEvalSetRejected(t *testing.T) {
	job := mkCVJob(t, 5)
	empty := &amalgam.ImageDataset{Images: tensor.New(0, 1, 28, 28), Classes: 10}
	_, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job,
		amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.05},
		amalgam.WithEvalSet(empty))
	if !errors.Is(err, amalgam.ErrEmptyEvalSet) {
		t.Fatalf("want ErrEmptyEvalSet, got %v", err)
	}
}

// TestPredictServerServesAugmented pins the tentpole's core promise: one
// server serves a still-obfuscated augmented model and its extracted
// original side by side, and concurrent batched predictions are
// bit-identical to direct sequential forwards through the same models.
func TestPredictServerServesAugmented(t *testing.T) {
	job := mkTextJob(t)
	extracted, err := job.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}

	srv := amalgam.NewPredictServer(amalgam.PredictServerConfig{MaxBatch: 8, Workers: 2})
	defer srv.Close()
	// The augmented model sees augmented windows (noise tokens included),
	// so vocabulary validation stays off for it.
	if err := srv.RegisterText("augmented", job.Augmented, 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterText("extracted", extracted, 0); err != nil {
		t.Fatal(err)
	}

	aug := job.AugmentedDataset
	n := 8
	wantAug := make([]int, n)
	wantExt := make([]int, n)
	for i := 0; i < n; i++ {
		out := job.Augmented.ForwardIDs([][]int{aug.Samples[i]})
		wantAug[i] = tensor.ArgmaxRows(out.Val)[0]
		autodiff.Release(out)
		out = extracted.ForwardIDs([][]int{aug.Samples[i]})
		wantExt[i] = tensor.ArgmaxRows(out.Val)[0]
		autodiff.Release(out)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			res, err := srv.PredictText(amalgam.PredictTextRequest{Model: "augmented", Tokens: aug.Samples[i]})
			if err != nil {
				errs <- err
			} else if res.Class != wantAug[i] {
				errs <- errors.New("augmented batched prediction differs from direct forward")
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			res, err := srv.PredictText(amalgam.PredictTextRequest{Model: "extracted", Tokens: aug.Samples[i]})
			if err != nil {
				errs <- err
			} else if res.Class != wantExt[i] {
				errs <- errors.New("extracted batched prediction differs from direct forward")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPredictClientRetriesAcrossKill pins the remote client's fault
// story: a connection killed mid-exchange is transparently redialed and
// the prediction resent (predictions are idempotent), so the caller sees
// only the correct answer. Uses the same fault-injection harness as the
// trainer's kill/retry tests, now over infer frames.
func TestPredictClientRetriesAcrossKill(t *testing.T) {
	txt := amalgam.BuildTextClassifier(3, 50, 8, 3)
	backend := amalgam.NewPredictServer(amalgam.PredictServerConfig{MaxBatch: 4, Workers: 1})
	defer backend.Close()
	if err := backend.RegisterText("txt", txt, 0); err != nil {
		t.Fatal(err)
	}

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Connection 0 dies after reading a handful of bytes — mid-frame,
	// while the first prediction is in flight. Later connections run
	// clean.
	fl := faultnet.Wrap(inner, func(i int) faultnet.ConnPlan {
		if i == 0 {
			return faultnet.ConnPlan{CutAfterReadBytes: 30}
		}
		return faultnet.ConnPlan{}
	})
	server := cloudsim.NewServerConfig(fl, cloudsim.ServerConfig{Infer: backend.Backend()})
	defer func() {
		fl.Close()
		server.Wait()
	}()

	tokens := []int{3, 14, 15, 9}
	out := txt.ForwardIDs([][]int{tokens})
	want := tensor.ArgmaxRows(out.Val)[0]
	autodiff.Release(out)

	client := amalgam.NewPredictClient(fl.Addr().String(), amalgam.RetryPolicy{
		MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 9,
	})
	defer client.Close()
	res, err := client.PredictText(context.Background(), amalgam.PredictTextRequest{Model: "txt", Tokens: tokens})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != want {
		t.Fatalf("retried prediction class %d, direct forward %d", res.Class, want)
	}
	if fl.Accepted() < 2 {
		t.Fatalf("expected a redial after the kill, saw %d connections", fl.Accepted())
	}

	// Fatal errors must NOT be retried: an unknown model fails once.
	before := fl.Accepted()
	if _, err := client.PredictText(context.Background(), amalgam.PredictTextRequest{Model: "nope", Tokens: tokens}); !errors.Is(err, cloudsim.ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
	if fl.Accepted() != before {
		t.Fatalf("fatal error triggered %d redials", fl.Accepted()-before)
	}
}
