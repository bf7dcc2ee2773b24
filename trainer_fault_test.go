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
	fl, _ := faultServerAt(t, "127.0.0.1:0", plan)
	return fl
}

// faultServerAt is startFaultServer at a given address, returning the
// service too, for its provider views.
func faultServerAt(t *testing.T, addr string, plan func(i int) faultnet.ConnPlan) (*faultnet.Listener, *cloudsim.Server) {
	t.Helper()
	inner, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fl := faultnet.Wrap(inner, plan)
	server := cloudsim.NewServer(fl)
	t.Cleanup(func() { server.Shutdown(context.Background()) })
	return fl, server
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

// terminalCut trains cfg locally and returns its final weights and a
// byte offset halfway into the terminal msgState frame of the same job's
// stream — the final checkpoint, which crosses the wire once, as that
// frame, not also as a checkpoint frame before it.
func terminalCut(t *testing.T, cfg amalgam.TrainConfig) (map[string]*tensor.Tensor, int64) {
	t.Helper()
	local := mkTextJob(t)
	ckpt := filepath.Join(t.TempDir(), "local.amc")
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg, amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}
	ck, err := serialize.LoadTrainCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	stateSize := serialize.TrainCheckpointSize(ck)
	// Everything before msgState: the ack, Epochs-1 checkpoint frames, and
	// the JSON of Epochs progress frames and the result frame listing them
	// again — some 150 bytes per metric, give or take a digit of wall
	// clock, against a state frame of ~90 KB.
	lead := (cfg.Epochs-1)*(5+stateSize) + 2*cfg.Epochs*150
	if stateSize < 40_000 {
		t.Fatalf("a state frame of %d bytes is too small to aim a cut into", stateSize)
	}
	return extractedState(t, local), int64(lead + stateSize/2)
}

// checkRun requires every epoch's stats exactly once and the unbroken
// run's weights.
func checkRun(t *testing.T, stats []amalgam.EpochStats, epochs int, job amalgam.TrainableJob, want map[string]*tensor.Tensor) {
	t.Helper()
	if len(stats) != epochs {
		t.Fatalf("delivered %d epoch stats, want %d", len(stats), epochs)
	}
	for i, s := range stats {
		if s.Epoch != i+1 {
			t.Fatalf("stats[%d].Epoch = %d; every epoch exactly once", i, s.Epoch)
		}
	}
	got := extractedState(t, job)
	for name, w := range want {
		if !got[name].Equal(w) {
			t.Fatalf("the broken run diverged from the unbroken run at %q", name)
		}
	}
}

// trainedEpochs is what a job trained: a finished job replays its
// buffered epochs to whoever attaches.
func trainedEpochs(t *testing.T, addr, id string) (epochs []int) {
	t.Helper()
	_, err := cloudsim.AttachContext(context.Background(), addr, cloudsim.AttachRequest{JobID: id},
		cloudsim.StreamHandlers{Progress: func(m cloudsim.EpochMetric) { epochs = append(epochs, m.Epoch) }}, cloudsim.NetConfig{})
	if err != nil {
		t.Fatalf("attach %s: %v", id, err)
	}
	return epochs
}

// TestConnectionLostInTerminalFramesRetrainsNothing cuts the connection
// after the job has finished every epoch, inside the frame that carries
// its result: msgState, the final checkpoint. The job is the server's, not
// the connection's, so the retry re-attaches to it by ID and is sent the
// result again: one admission, no epoch retrained, every epoch's stats
// exactly once, and the unbroken run's weights.
// TestServerLostInTerminalFramesRetrainsOneEpoch is the same cut with the
// server lost.
func TestConnectionLostInTerminalFramesRetrainsNothing(t *testing.T) {
	cfg := amalgam.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.5, Momentum: 0.9}
	want, cut := terminalCut(t, cfg)
	t.Run("inside msgState", func(t *testing.T) {
		fl, server := faultServerAt(t, "127.0.0.1:0", func(i int) faultnet.ConnPlan {
			if i == 0 {
				return faultnet.ConnPlan{CutAfterWriteBytes: cut}
			}
			return faultnet.ConnPlan{}
		})
		job := mkTextJob(t)
		stats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: fl.Addr().String()}, job, cfg,
			amalgam.WithRetry(amalgam.RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 5}))
		if err != nil {
			t.Fatalf("retried run failed: %v", err)
		}
		if fl.Accepted() != 2 {
			t.Fatalf("%d connections, want the cut one and one re-attach", fl.Accepted())
		}
		checkRun(t, stats, cfg.Epochs, job, want)
		views := server.Views()
		if len(views) != 1 {
			t.Fatalf("%d admissions, want one: a blip uploads nothing again", len(views))
		}
		if epochs := trainedEpochs(t, fl.Addr().String(), views[0].JobID); len(epochs) != cfg.Epochs {
			t.Fatalf("the job trained epochs %v, want each of %d once", epochs, cfg.Epochs)
		}
	})
}

// TestServerLostInTerminalFramesRetrainsOneEpoch is the same cut, but the
// server dies with it: a replacement at the same address has never heard
// of the job (ErrUnknownJob), so the run submits it there again from the
// newest snapshot it holds — epoch Epochs-1, the last epoch's state having
// crossed only as the cut frame — and the replacement retrains exactly
// that one epoch. Every epoch's stats still arrive exactly once and the
// weights are the unbroken run's. Until the replacement is up, the dead
// server's address takes connections and drops them at once.
func TestServerLostInTerminalFramesRetrainsOneEpoch(t *testing.T) {
	cfg := amalgam.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.5, Momentum: 0.9}
	want, cut := terminalCut(t, cfg)
	first, firstServer := faultServerAt(t, "127.0.0.1:0", func(i int) faultnet.ConnPlan {
		if i == 0 {
			return faultnet.ConnPlan{CutAfterWriteBytes: cut}
		}
		return faultnet.ConnPlan{RefuseConn: true}
	})
	addr := first.Addr().String()
	replaced := make(chan *cloudsim.Server, 1)
	go func() {
		// The job finishing is what starts the terminal frames, and with
		// them the cut: then the first server goes, the replacement comes.
		for v := firstServer.Views(); len(v) == 0 || v[0].State != "done"; v = firstServer.Views() {
			time.Sleep(time.Millisecond)
		}
		first.Close()
		firstServer.Wait()
		l, err := net.Listen("tcp", addr)
		if err != nil {
			close(replaced)
			return
		}
		replaced <- cloudsim.NewServer(l)
	}()
	job := mkTextJob(t)
	stats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, job, cfg,
		amalgam.WithRetry(amalgam.RetryPolicy{MaxRetries: 20, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 5}))
	if err != nil {
		t.Fatalf("retried run failed: %v", err)
	}
	checkRun(t, stats, cfg.Epochs, job, want)
	replacement := <-replaced
	if replacement == nil {
		t.Fatal("no replacement server could listen at the first one's address")
	}
	t.Cleanup(func() { replacement.Shutdown(context.Background()) })
	views := replacement.Views()
	if len(views) != 1 {
		t.Fatalf("the replacement admitted %d jobs, want the one resubmission", len(views))
	}
	if epochs := trainedEpochs(t, addr, views[0].JobID); len(epochs) != 1 || epochs[0] != cfg.Epochs {
		t.Fatalf("the resubmitted job trained epochs %v, want exactly the last one, %d", epochs, cfg.Epochs)
	}
}

// TestServerShutdownResubmitsFromTheHandoff: a server draining for
// shutdown hands the job back — an epoch-aligned checkpoint, then
// ErrServerShutdown — and the run submits it to the replacement at the
// same address at once, from the handoff epoch: one connection there, no
// re-attach to a job the drained server has ended. Every epoch's stats
// arrive exactly once and the weights are the unbroken run's.
func TestServerShutdownResubmitsFromTheHandoff(t *testing.T) {
	cfg := amalgam.TrainConfig{Epochs: 20, BatchSize: 8, LR: 0.5, Momentum: 0.9}
	local := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg); err != nil {
		t.Fatal(err)
	}
	want := extractedState(t, local)

	// Throttled, so the job cannot finish before the shutdown lands.
	first, firstServer := faultServerAt(t, "127.0.0.1:0", func(int) faultnet.ConnPlan {
		return faultnet.ConnPlan{WriteDelay: 10 * time.Millisecond}
	})
	addr := first.Addr().String()
	type service struct {
		fl     *faultnet.Listener
		server *cloudsim.Server
	}
	replaced := make(chan service, 1)
	var once sync.Once
	job := mkTextJob(t)
	stats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, job, cfg,
		amalgam.WithRetry(amalgam.RetryPolicy{MaxRetries: 20, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 5}),
		amalgam.WithProgress(func(s amalgam.EpochStats) {
			once.Do(func() {
				go func() {
					firstServer.Shutdown(context.Background())
					l, err := net.Listen("tcp", addr)
					if err != nil {
						close(replaced)
						return
					}
					fl := faultnet.Wrap(l, nil)
					replaced <- service{fl, cloudsim.NewServer(fl)}
				}()
			})
		}))
	if err != nil {
		t.Fatalf("retried run failed: %v", err)
	}
	checkRun(t, stats, cfg.Epochs, job, want)
	replacement, ok := <-replaced
	if !ok {
		t.Fatal("no replacement server could listen at the first one's address")
	}
	t.Cleanup(func() { replacement.server.Shutdown(context.Background()) })
	if n := replacement.fl.Accepted(); n != 1 {
		t.Fatalf("%d connections to the replacement, want the one resubmission", n)
	}
	views := replacement.server.Views()
	if len(views) != 1 {
		t.Fatalf("the replacement admitted %d jobs, want the one resubmission", len(views))
	}
	if epochs := trainedEpochs(t, addr, views[0].JobID); len(epochs) == cfg.Epochs || epochs[len(epochs)-1] != cfg.Epochs {
		t.Fatalf("the resubmitted job trained epochs %v, want those after the handoff", epochs)
	}
}

// TestRunGivingUpAfterAdmissionCancelsItsJob: a run that ends without its
// job's result — its retries spent, or its caller cancelling while the
// connection is down, so no cancel frame can reach the job — cancels the
// job by ID rather than leave it training for nobody.
func TestRunGivingUpAfterAdmissionCancelsItsJob(t *testing.T) {
	cfg := amalgam.TrainConfig{Epochs: 100000, BatchSize: 8, LR: 0.5, Momentum: 0.9}
	for _, c := range []struct {
		name    string
		retries int
		want    error
	}{
		{"retries exhausted", 0, amalgam.ErrRetriesExhausted},
		{"caller cancels", 3, context.Canceled},
	} {
		t.Run(c.name, func(t *testing.T) {
			fl, server := faultServerAt(t, "127.0.0.1:0", nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			_, err := amalgam.Train(ctx, amalgam.RemoteTrainer{Addr: fl.Addr().String()}, mkTextJob(t), cfg,
				amalgam.WithRetry(amalgam.RetryPolicy{MaxRetries: c.retries, BaseDelay: time.Minute, Seed: 2}),
				amalgam.WithProgress(func(s amalgam.EpochStats) {
					once.Do(func() {
						fl.KillAll()
						if c.want == context.Canceled {
							cancel()
						}
					})
				}))
			if !errors.Is(err, c.want) {
				t.Fatalf("run ended with %v, want %v", err, c.want)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				views := server.Views()
				if len(views) != 1 {
					t.Fatalf("%d admissions, want one", len(views))
				}
				if st := views[0].State; st == "cancelled" {
					break
				} else if st != "running" || time.Now().After(deadline) {
					t.Fatalf("the abandoned job is %s, want cancelled", st)
				}
				time.Sleep(5 * time.Millisecond)
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
