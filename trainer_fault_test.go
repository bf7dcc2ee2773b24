package amalgam_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"amalgam"
	"amalgam/internal/cloudsim"
	"amalgam/internal/faultnet"
	"amalgam/internal/nn"
	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// startFaultServer spins a cloudsim service behind a fault-injecting
// listener whose per-connection plan the test controls.
func startFaultServer(t *testing.T, plan func(i int) faultnet.ConnPlan) *faultnet.Listener {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultnet.Wrap(inner, plan)
	server := cloudsim.NewServer(fl)
	t.Cleanup(func() {
		fl.Close()
		server.Wait()
	})
	return fl
}

// extractedState pulls the recovered original model's state dict out of a
// trained job, for bit-identity comparison across runs.
func extractedState(t *testing.T, job amalgam.TrainableJob) map[string]*tensor.Tensor {
	t.Helper()
	switch j := job.(type) {
	case *amalgam.Job:
		m, err := j.Extract("lenet", 7)
		if err != nil {
			t.Fatal(err)
		}
		return nn.StateDict(m)
	case *amalgam.TextJob:
		m, err := j.ExtractText(3)
		if err != nil {
			t.Fatal(err)
		}
		return nn.StateDict(m)
	case *amalgam.LMJob:
		m, err := j.ExtractLM(3)
		if err != nil {
			t.Fatal(err)
		}
		return nn.StateDict(m)
	default:
		t.Fatalf("unknown job type %T", job)
		return nil
	}
}

// TestRetryResumesAfterMidTrainingKill is the tentpole acceptance test:
// for every modality — CV, text, and LM with momentum AND dropout — the
// server connection is killed at an epoch boundary mid-training, WithRetry
// reconnects and resumes from the last streamed snapshot, every epoch's
// stats are delivered exactly once, and the final extracted weights are
// bit-identical to an unbroken local run.
//
// The first connection's writes are throttled (WriteDelay) so the server
// provably cannot finish before the kill triggered off the second progress
// frame lands; the retry connection is transparent.
func TestRetryResumesAfterMidTrainingKill(t *testing.T) {
	cases := []struct {
		name  string
		mk    func(t *testing.T) amalgam.TrainableJob
		cfg   amalgam.TrainConfig
		delay time.Duration
	}{
		{"cv", func(t *testing.T) amalgam.TrainableJob { return mkCVJob(t, 5) },
			amalgam.TrainConfig{Epochs: 8, BatchSize: 8, LR: 0.05, Momentum: 0.9}, 15 * time.Millisecond},
		{"text", func(t *testing.T) amalgam.TrainableJob { return mkTextJob(t) },
			amalgam.TrainConfig{Epochs: 20, BatchSize: 8, LR: 0.5, Momentum: 0.9}, 10 * time.Millisecond},
		{"lm", func(t *testing.T) amalgam.TrainableJob { return mkLMJob(t) },
			amalgam.TrainConfig{Epochs: 8, BatchSize: 8, LR: 0.1, Momentum: 0.9}, 20 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fl := startFaultServer(t, func(i int) faultnet.ConnPlan {
				if i == 0 {
					return faultnet.ConnPlan{WriteDelay: c.delay}
				}
				return faultnet.ConnPlan{}
			})

			var once sync.Once
			job := c.mk(t)
			stats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: fl.Addr().String()}, job, c.cfg,
				amalgam.WithRetry(amalgam.RetryPolicy{
					MaxRetries: 3,
					BaseDelay:  time.Millisecond,
					MaxDelay:   10 * time.Millisecond,
					Seed:       7,
				}),
				amalgam.WithProgress(func(s amalgam.EpochStats) {
					// Epoch 2's progress frame proves epoch 1's snapshot is
					// already client-side (same ordered stream), so the retry
					// resumes rather than restarting.
					if s.Epoch >= 2 {
						once.Do(fl.KillAll)
					}
				}))
			if err != nil {
				t.Fatalf("retried run failed: %v", err)
			}
			if len(stats) != c.cfg.Epochs {
				t.Fatalf("delivered %d epoch stats, want %d", len(stats), c.cfg.Epochs)
			}
			for i, s := range stats {
				if s.Epoch != i+1 {
					t.Fatalf("stats[%d].Epoch = %d; replayed epochs must be deduplicated", i, s.Epoch)
				}
			}
			if fl.Accepted() < 2 {
				t.Fatalf("only %d connection(s) accepted; the kill never forced a retry", fl.Accepted())
			}

			local := c.mk(t)
			if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, c.cfg); err != nil {
				t.Fatal(err)
			}
			want := extractedState(t, local)
			got := extractedState(t, job)
			for name, w := range want {
				if !got[name].Equal(w) {
					t.Fatalf("killed-and-resumed run diverged from unbroken run at %q", name)
				}
			}
		})
	}
}

// TestConnectionLostInTerminalFramesRetrainsOneEpoch cuts the connection
// after the job has finished every epoch, inside the frame that carries its
// result: msgState, the final checkpoint. The last epoch's state crosses
// the wire once — as that frame, not also as a checkpoint frame before
// it — so the newest snapshot the client holds is epoch Epochs-1: the
// retry resumes there, the server retrains exactly one epoch, every
// epoch's stats reach the caller exactly once, and the final weights are
// bit-identical to the unbroken run's.
func TestConnectionLostInTerminalFramesRetrainsOneEpoch(t *testing.T) {
	cfg := amalgam.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.5, Momentum: 0.9}
	ctx := context.Background()

	// The unbroken run, and from its final checkpoint file the exact size
	// of a checkpoint frame, the terminal msgState frame included.
	local := mkTextJob(t)
	ckpt := filepath.Join(t.TempDir(), "local.amc")
	if _, err := amalgam.Train(ctx, amalgam.LocalTrainer{}, local, cfg, amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}
	want := extractedState(t, local)
	ck, err := serialize.LoadTrainCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	stateSize := serialize.TrainCheckpointSize(ck)
	// Everything before msgState: Epochs-1 checkpoint frames, and the JSON
	// of Epochs progress frames and the result frame listing them again —
	// some 150 bytes per metric, give or take a digit of wall clock,
	// against a state frame of ~90 KB.
	lead := (cfg.Epochs-1)*(5+stateSize) + 2*cfg.Epochs*150
	if stateSize < 40_000 {
		t.Fatalf("a state frame of %d bytes is too small to aim a cut into", stateSize)
	}

	for _, c := range []struct {
		name string
		cut  int
	}{
		{"inside msgState", lead + stateSize/2},
	} {
		t.Run(c.name, func(t *testing.T) {
			fl := startFaultServer(t, func(i int) faultnet.ConnPlan {
				if i == 0 {
					return faultnet.ConnPlan{CutAfterWriteBytes: int64(c.cut)}
				}
				return faultnet.ConnPlan{}
			})
			addr := fl.Addr().String()
			job := mkTextJob(t)
			stats, err := amalgam.Train(ctx, amalgam.RemoteTrainer{Addr: addr}, job, cfg,
				amalgam.WithRetry(amalgam.RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 5}))
			if err != nil {
				t.Fatalf("retried run failed: %v", err)
			}
			if fl.Accepted() != 2 {
				t.Fatalf("%d connections, want the cut one and one retry", fl.Accepted())
			}
			if len(stats) != cfg.Epochs {
				t.Fatalf("delivered %d epoch stats, want %d", len(stats), cfg.Epochs)
			}
			for i, s := range stats {
				if s.Epoch != i+1 {
					t.Fatalf("stats[%d].Epoch = %d; every epoch exactly once", i, s.Epoch)
				}
			}
			got := extractedState(t, job)
			for name, w := range want {
				if !got[name].Equal(w) {
					t.Fatalf("run cut %s diverged from the unbroken run at %q", c.name, name)
				}
			}
			// What each attempt's job trained: a finished job replays its
			// buffered epochs to whoever attaches.
			trained := func(id string) (epochs []int) {
				_, err := cloudsim.AttachContext(ctx, addr, cloudsim.AttachRequest{JobID: id},
					cloudsim.StreamHandlers{Progress: func(m cloudsim.EpochMetric) { epochs = append(epochs, m.Epoch) }}, cloudsim.NetConfig{})
				if err != nil {
					t.Fatalf("attach %s: %v", id, err)
				}
				return epochs
			}
			if first := trained("job-000001"); len(first) != cfg.Epochs {
				t.Fatalf("the cut attempt trained epochs %v, want all %d (the cut must land after training)", first, cfg.Epochs)
			}
			if second := trained("job-000002"); len(second) != 1 || second[0] != cfg.Epochs {
				t.Fatalf("the retry trained epochs %v, want exactly the last one, %d", second, cfg.Epochs)
			}
		})
	}
}

// TestFailedRemoteRunLeavesModelAtLastBoundary: every epoch boundary a
// remote run streams lands in the job's model, so a run that fails after
// epoch k leaves the model at boundary k — as a failed LocalTrainer run
// does — not at its initial weights, and not at a boundary cut short. The
// connection is cut halfway into checkpoint k+1, with no retry allowed.
func TestFailedRemoteRunLeavesModelAtLastBoundary(t *testing.T) {
	const k = 2
	cfg := amalgam.TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.5, Momentum: 0.9}
	ctx := context.Background()

	// Boundary k, trained locally; its file gives a checkpoint frame's size.
	local := mkTextJob(t)
	short := cfg
	short.Epochs = k
	ckpt := filepath.Join(t.TempDir(), "k.amc")
	if _, err := amalgam.Train(ctx, amalgam.LocalTrainer{}, local, short, amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}
	want := extractedState(t, local)
	ck, err := serialize.LoadTrainCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// k checkpoint frames and k+1 progress frames of some 150 bytes come
	// before checkpoint k+1, a frame of ~90 KB.
	stateSize := serialize.TrainCheckpointSize(ck)
	cut := k*(5+stateSize) + (k+1)*150 + 5 + stateSize/2

	fl := startFaultServer(t, func(int) faultnet.ConnPlan { return faultnet.ConnPlan{CutAfterWriteBytes: int64(cut)} })
	job := mkTextJob(t)
	initial := extractedState(t, job)
	stats, err := amalgam.Train(ctx, amalgam.RemoteTrainer{Addr: fl.Addr().String()}, job, cfg,
		amalgam.WithRetry(amalgam.RetryPolicy{MaxRetries: 0, Seed: 1}))
	if !errors.Is(err, amalgam.ErrRetriesExhausted) {
		t.Fatalf("the cut run ended with %v, want ErrRetriesExhausted", err)
	}
	if len(stats) != k+1 {
		t.Fatalf("%d epochs reported before the cut, want %d: the cut missed checkpoint %d", len(stats), k+1, k+1)
	}
	got := extractedState(t, job)
	moved := false
	for name, w := range want {
		if !got[name].Equal(w) {
			t.Fatalf("after the failed run the model differs from boundary %d at %q", k, name)
		}
		moved = moved || !initial[name].Equal(w)
	}
	if !moved {
		t.Fatal("boundary k equals the initial weights: the test cannot tell them apart")
	}
}

// TestRetryExhaustedReportsSentinel pins the failure shape when every
// attempt dies: ErrRetriesExhausted wraps the last transport error, both
// reachable with errors.Is.
func TestRetryExhaustedReportsSentinel(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens: every dial fails transiently

	job := mkTextJob(t)
	_, err = amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, job,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5},
		amalgam.WithRetry(amalgam.RetryPolicy{
			MaxRetries: 2,
			BaseDelay:  time.Millisecond,
			MaxDelay:   2 * time.Millisecond,
			Seed:       1,
		}))
	if !errors.Is(err, amalgam.ErrRetriesExhausted) {
		t.Fatalf("got %v, want ErrRetriesExhausted", err)
	}
}

// TestRetryNeverMasksCallerCancellation: the user's own ctx cancellation
// must terminate the run immediately — not burn the retry budget on the
// transport symptoms the cancel itself causes.
func TestRetryNeverMasksCallerCancellation(t *testing.T) {
	fl := startFaultServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	job := mkTextJob(t)
	_, err := amalgam.Train(ctx, amalgam.RemoteTrainer{Addr: fl.Addr().String()}, job,
		amalgam.TrainConfig{Epochs: 2000, BatchSize: 8, LR: 0.5, Momentum: 0.9},
		amalgam.WithRetry(amalgam.RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond, Seed: 3}),
		amalgam.WithProgress(func(s amalgam.EpochStats) {
			if s.Epoch == 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if fl.Accepted() != 1 {
		t.Fatalf("%d connections; a cancelled run must not retry", fl.Accepted())
	}
}

// TestLMDropoutResumeMatchesStraightRun is the dropout-cursor
// checkpointing satellite: an LM job (Dropout > 0, Momentum > 0) trained
// 2 epochs, checkpointed to disk, and resumed in a FRESH job ("process
// restart") to epoch 4 must match a straight 4-epoch run bit-for-bit —
// which requires the AMC2 file to carry the dropout-stream cursors, not
// just weights and momentum. Runs locally and over the wire.
func TestLMDropoutResumeMatchesStraightRun(t *testing.T) {
	full := amalgam.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.1, Momentum: 0.9}
	half := full
	half.Epochs = 2

	for _, mode := range []string{"local", "remote"} {
		t.Run(mode, func(t *testing.T) {
			var trainer amalgam.Trainer = amalgam.LocalTrainer{}
			if mode == "remote" {
				trainer = amalgam.RemoteTrainer{Addr: startServer(t)}
			}
			ckpt := filepath.Join(t.TempDir(), "lm.amc")

			first := mkLMJob(t)
			if _, err := amalgam.Train(context.Background(), trainer, first, half,
				amalgam.WithCheckpoint(ckpt, 1)); err != nil {
				t.Fatal(err)
			}
			ck, err := serialize.LoadTrainCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.RNG) == 0 {
				t.Fatal("dropout job's checkpoint carries no RNG cursors")
			}

			resumed := mkLMJob(t) // fresh job: nothing lives outside the file
			if _, err := amalgam.Train(context.Background(), trainer, resumed, full,
				amalgam.WithResume(ckpt)); err != nil {
				t.Fatal(err)
			}

			straight := mkLMJob(t)
			if _, err := amalgam.Train(context.Background(), trainer, straight, full); err != nil {
				t.Fatal(err)
			}

			want := extractedState(t, straight)
			got := extractedState(t, resumed)
			for name, w := range want {
				if !got[name].Equal(w) {
					t.Fatalf("%s resume-from-checkpoint diverged from straight run at %q", mode, name)
				}
			}
		})
	}
}
