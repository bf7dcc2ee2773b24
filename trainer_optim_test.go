package amalgam_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"amalgam"
	"amalgam/internal/faultnet"
	"amalgam/internal/optim"
	"amalgam/internal/serialize"
)

// TestOptimizerResumeBitIdentical is the tentpole acceptance test for the
// pluggable-optimiser extension: an Adam + StepLR text job trained 2
// epochs, checkpointed to disk (AMC3 — kind, step counter, moment
// buffers), and resumed in a FRESH job to epoch 4 matches a straight
// 4-epoch run bit-for-bit, locally and over the wire. The LR is never
// stored: resume re-derives it from (schedule spec, completed epochs),
// and the streamed per-epoch LR pins that derivation against a golden
// halving sequence.
func TestOptimizerResumeBitIdentical(t *testing.T) {
	full := amalgam.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.5,
		Optimizer: amalgam.Adam(0.01), LRSchedule: amalgam.StepDecay(1, 0.5)}
	half := full
	half.Epochs = 2

	for _, mode := range []string{"local", "remote"} {
		t.Run(mode, func(t *testing.T) {
			var trainer amalgam.Trainer = amalgam.LocalTrainer{}
			if mode == "remote" {
				trainer = amalgam.RemoteTrainer{Addr: startServer(t)}
			}
			ckpt := filepath.Join(t.TempDir(), "adam.amc")

			first := mkTextJob(t)
			if _, err := amalgam.Train(context.Background(), trainer, first, half,
				amalgam.WithCheckpoint(ckpt, 1)); err != nil {
				t.Fatal(err)
			}
			ck, err := serialize.LoadTrainCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if ck.OptState.Kind != optim.KindAdam || ck.OptState.Step == 0 || ck.OptState.NumBuffers() == 0 {
				t.Fatalf("checkpoint optimiser section: kind=%q step=%d buffers=%d",
					ck.OptState.Kind, ck.OptState.Step, ck.OptState.NumBuffers())
			}

			resumed := mkTextJob(t) // fresh job: nothing lives outside the file
			if _, err := amalgam.Train(context.Background(), trainer, resumed, full,
				amalgam.WithResume(ckpt)); err != nil {
				t.Fatal(err)
			}

			straight := mkTextJob(t)
			stats, err := amalgam.Train(context.Background(), trainer, straight, full)
			if err != nil {
				t.Fatal(err)
			}
			wantLR := []float64{0.01, 0.005, 0.0025, 0.00125}
			for i, s := range stats {
				if s.LR != wantLR[i] {
					t.Fatalf("epoch %d reports LR %v, want %v", s.Epoch, s.LR, wantLR[i])
				}
			}

			want := extractedState(t, straight)
			got := extractedState(t, resumed)
			for name, w := range want {
				if !got[name].Equal(w) {
					t.Fatalf("%s Adam resume-from-checkpoint diverged from straight run at %q", mode, name)
				}
			}
		})
	}
}

// TestOptimizerRetryResumesAfterMidTrainingKill closes the acceptance
// loop over faultnet: an AdamW + cosine-schedule job (specs on the
// TrainConfig this time) has its connection killed mid-training, and
// WithRetry resumes from the last streamed AMC3 snapshot — step counter,
// moment buffers, re-derived LR — to weights bit-identical to an unbroken
// local run.
func TestOptimizerRetryResumesAfterMidTrainingKill(t *testing.T) {
	cfg := amalgam.TrainConfig{Epochs: 12, BatchSize: 8, LR: 0.5}
	cfg.Optimizer = amalgam.AdamW(0.01, 0.01)
	cfg.LRSchedule = amalgam.CosineDecay(10, 0.001)

	fl := startFaultServer(t, func(i int) faultnet.ConnPlan {
		if i == 0 {
			return faultnet.ConnPlan{WriteDelay: 10 * time.Millisecond}
		}
		return faultnet.ConnPlan{}
	})

	var once sync.Once
	job := mkTextJob(t)
	stats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: fl.Addr().String()}, job, cfg,
		amalgam.WithRetry(amalgam.RetryPolicy{
			MaxRetries: 3,
			BaseDelay:  time.Millisecond,
			MaxDelay:   10 * time.Millisecond,
			Seed:       7,
		}),
		amalgam.WithProgress(func(s amalgam.EpochStats) {
			if s.Epoch >= 2 {
				once.Do(fl.KillAll)
			}
		}))
	if err != nil {
		t.Fatalf("retried Adam run failed: %v", err)
	}
	if len(stats) != cfg.Epochs {
		t.Fatalf("delivered %d epoch stats, want %d", len(stats), cfg.Epochs)
	}
	for i, s := range stats {
		if s.Epoch != i+1 {
			t.Fatalf("stats[%d].Epoch = %d; replayed epochs must be deduplicated", i, s.Epoch)
		}
	}
	if fl.Accepted() < 2 {
		t.Fatalf("only %d connection(s) accepted; the kill never forced a retry", fl.Accepted())
	}

	local := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg); err != nil {
		t.Fatal(err)
	}
	want := extractedState(t, local)
	got := extractedState(t, job)
	for name, w := range want {
		if !got[name].Equal(w) {
			t.Fatalf("killed-and-resumed Adam run diverged from unbroken run at %q", name)
		}
	}
}
