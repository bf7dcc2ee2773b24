package amalgam_test

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"

	"amalgam"
	"amalgam/internal/cloudsim"
	"amalgam/internal/nn"
	"amalgam/internal/serialize"
)

// startServer spins an in-process cloudsim training service.
func startServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := cloudsim.NewServer(l)
	t.Cleanup(func() {
		l.Close()
		server.Wait()
	})
	return l.Addr().String()
}

// mkTextJob builds a deterministic small text job; calling it twice yields
// two independent but identical jobs.
func mkTextJob(t *testing.T) *amalgam.TextJob {
	t.Helper()
	const vocab, classes = 500, 4
	train := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "t", N: 32, SeqLen: 24, Vocab: vocab, Classes: classes, Seed: 1})
	model := amalgam.BuildTextClassifier(3, vocab, 16, classes)
	job, err := amalgam.ObfuscateText(model, train, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func mkCVJob(t *testing.T, seed uint64) *amalgam.Job {
	t.Helper()
	ds := amalgam.SyntheticMNIST(16, 1)
	model, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	job, err := amalgam.Obfuscate(model, ds, amalgam.Options{
		Amount: 0.5, SubNets: 2, Seed: seed, ModelName: "lenet",
	})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestTextRoundTripLocalVsRemote is the acceptance path: ObfuscateText →
// RemoteTrainer → ExtractText, with per-epoch progress delivered over the
// wire, and the extracted weights bit-identical to the same job trained
// locally.
func TestTextRoundTripLocalVsRemote(t *testing.T) {
	addr := startServer(t)
	cfg := amalgam.TrainConfig{Epochs: 3, BatchSize: 8, LR: 0.5, Momentum: 0.9}

	var remoteStats []amalgam.EpochStats
	remote := mkTextJob(t)
	_, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, remote, cfg,
		amalgam.WithProgress(func(s amalgam.EpochStats) { remoteStats = append(remoteStats, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(remoteStats) != cfg.Epochs {
		t.Fatalf("streamed %d progress events, want %d", len(remoteStats), cfg.Epochs)
	}

	local := mkTextJob(t)
	localStats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The wire adds nothing and loses nothing: per-epoch losses match the
	// in-process run exactly (same shuffle derivation, same kernels).
	for i := range localStats {
		if localStats[i].Loss != remoteStats[i].Loss {
			t.Fatalf("epoch %d: local loss %v, remote loss %v", i+1, localStats[i].Loss, remoteStats[i].Loss)
		}
	}

	a, err := remote.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := local.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}
	da, db := nn.StateDict(a), nn.StateDict(b)
	for name, src := range da {
		if !db[name].Equal(src) {
			t.Fatalf("remote vs local text training diverged at %q", name)
		}
	}
}

// TestCVRemoteTrainerStreamsEval runs a CV job remotely with a held-out
// split and checks eval accuracy arrives with every epoch.
func TestCVRemoteTrainerStreamsEval(t *testing.T) {
	addr := startServer(t)
	job := mkCVJob(t, 5)
	test := amalgam.SyntheticMNIST(8, 2)
	stats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, job,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9},
		amalgam.WithEvalSet(test))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d stats", len(stats))
	}
	for _, s := range stats {
		if !s.HasEval {
			t.Fatalf("epoch %d missing eval accuracy", s.Epoch)
		}
		if s.EvalAccuracy < 0 || s.EvalAccuracy > 1 {
			t.Fatalf("eval accuracy %v out of range", s.EvalAccuracy)
		}
	}
	if _, err := job.Extract("lenet", 7); err != nil {
		t.Fatal(err)
	}
}

// TestLocalEvalSetMatchesRemote pins that WithEvalSet reports the same
// held-out curve locally and remotely (both sides score the identically
// obfuscated split).
func TestLocalEvalSetMatchesRemote(t *testing.T) {
	addr := startServer(t)
	test := amalgam.SyntheticMNIST(8, 2)
	cfg := amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9}

	local := mkCVJob(t, 5)
	localStats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg,
		amalgam.WithEvalSet(test))
	if err != nil {
		t.Fatal(err)
	}
	remote := mkCVJob(t, 5)
	remoteStats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, remote, cfg,
		amalgam.WithEvalSet(test))
	if err != nil {
		t.Fatal(err)
	}
	for i := range localStats {
		if localStats[i].EvalAccuracy != remoteStats[i].EvalAccuracy {
			t.Fatalf("epoch %d: local eval %v, remote eval %v",
				i+1, localStats[i].EvalAccuracy, remoteStats[i].EvalAccuracy)
		}
	}

	// The same property without a wire in between, for every job kind:
	// LocalTrainer over the job's live model and the service's RunLocal
	// over the request RemoteTrainer would ship go through one engine
	// builder, so every per-epoch metric agrees exactly.
	kinds := []struct {
		name string
		mk   func() amalgam.TrainableJob
		eval amalgam.EvalDataset
		cfg  amalgam.TrainConfig
	}{
		{"cv", func() amalgam.TrainableJob { return mkCVJob(t, 5) }, test, cfg},
		{"text", func() amalgam.TrainableJob { return mkTextJob(t) },
			amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{Name: "e", N: 8, SeqLen: 24, Vocab: 500, Classes: 4, Seed: 2}),
			amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5, Momentum: 0.9}},
		{"lm", func() amalgam.TrainableJob { return mkLMJob(t) },
			amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt-val", Tokens: 120, Vocab: 300, Seed: 2}),
			amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.1}},
	}
	for _, k := range kinds {
		stats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, k.mk(), k.cfg, amalgam.WithEvalSet(k.eval))
		if err != nil {
			t.Fatalf("%s: local: %v", k.name, err)
		}
		req, err := amalgam.ShippedRequest(amalgam.RemoteTrainer{}, k.mk(), k.cfg, amalgam.WithEvalSet(k.eval))
		if err != nil {
			t.Fatalf("%s: request: %v", k.name, err)
		}
		resp, err := cloudsim.RunLocal(req)
		if err != nil {
			t.Fatalf("%s: service: %v", k.name, err)
		}
		if len(stats) != k.cfg.Epochs || len(resp.Metrics) != k.cfg.Epochs {
			t.Fatalf("%s: %d local and %d service epochs, want %d", k.name, len(stats), len(resp.Metrics), k.cfg.Epochs)
		}
		for i, m := range resp.Metrics {
			s := stats[i]
			if !s.HasEval || !m.HasEval || (k.name == "lm") != (m.Perplexity > 0) {
				t.Fatalf("%s epoch %d: eval reported %v/%v, perplexity %v", k.name, i+1, s.HasEval, m.HasEval, m.Perplexity)
			}
			if s.Loss != m.Loss || s.Accuracy != m.Accuracy || s.EvalAccuracy != m.EvalAccuracy || s.Perplexity != m.Perplexity {
				t.Fatalf("%s epoch %d: local (loss %v acc %v eval %v ppl %v), service (loss %v acc %v eval %v ppl %v)", k.name, i+1,
					s.Loss, s.Accuracy, s.EvalAccuracy, s.Perplexity, m.Loss, m.Accuracy, m.EvalAccuracy, m.Perplexity)
			}
		}
	}
}

// TestShuffleSeedThreading pins the satellite fix: epochs used to see
// batches in identical order (nil RNG); now the shuffle is seeded and
// per-epoch, so two runs with the same seed coincide bit-for-bit and a
// different seed changes the trained weights.
func TestShuffleSeedThreading(t *testing.T) {
	cfg := amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5, Momentum: 0.9}
	run := func(seed uint64) map[string]float32 {
		job := mkTextJob(t)
		if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job, cfg,
			amalgam.WithShuffleSeed(seed)); err != nil {
			t.Fatal(err)
		}
		fresh, err := job.ExtractText(3)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float32{}
		for name, tns := range nn.StateDict(fresh) {
			out[name] = tns.Data[0]
		}
		return out
	}
	a, b, c := run(1), run(1), run(2)
	diff := false
	for name := range a {
		if a[name] != b[name] {
			t.Fatalf("same shuffle seed diverged at %q", name)
		}
		if a[name] != c[name] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different shuffle seeds produced identical weights; shuffling is not threaded through training")
	}
}

// TestLocalCancellationLeavesResumableCheckpoint cancels an in-process run
// mid-job and resumes it from the checkpoint.
func TestLocalCancellationLeavesResumableCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "job.amc")
	job := mkTextJob(t)
	cfg := amalgam.TrainConfig{Epochs: 50, BatchSize: 8, LR: 0.5, Momentum: 0.9}

	ctx, cancel := context.WithCancel(context.Background())
	_, err := amalgam.Train(ctx, amalgam.LocalTrainer{}, job, cfg,
		amalgam.WithCheckpoint(ckpt, 1),
		amalgam.WithProgress(func(s amalgam.EpochStats) {
			if s.Epoch == 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	ck, err := serialize.LoadTrainCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("cancelled run left no loadable checkpoint: %v", err)
	}
	epoch := ck.Epoch
	if epoch < 2 || epoch >= cfg.Epochs {
		t.Fatalf("checkpoint epoch %d outside (2, %d)", epoch, cfg.Epochs)
	}
	if len(ck.State) == 0 {
		t.Fatal("empty checkpoint state")
	}
	if ck.Kind != "augmented-text" {
		t.Fatalf("checkpoint records kind %q, want augmented-text", ck.Kind)
	}
	if ck.OptState.Empty() {
		t.Fatal("momentum run left no optimiser state in the checkpoint")
	}

	// Resume to a nearby horizon and finish.
	cfg.Epochs = epoch + 2
	stats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job, cfg,
		amalgam.WithResume(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Epoch != epoch+1 {
		t.Fatalf("resume ran %d epochs starting at %d, want 2 starting at %d", len(stats), stats[0].Epoch, epoch+1)
	}
	if _, err := job.ExtractText(3); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteCancellationLeavesResumableCheckpoint is the acceptance
// criterion's cancellation leg: a cancelled remote job terminates with
// ctx.Err(), the partial state lands in the checkpoint, and a resumed run
// completes and extracts cleanly.
func TestRemoteCancellationLeavesResumableCheckpoint(t *testing.T) {
	addr := startServer(t)
	ckpt := filepath.Join(t.TempDir(), "job.amc")
	job := mkTextJob(t)
	// Enough epochs that the service cannot finish before the cancel frame
	// lands (each epoch also writes a progress frame back).
	cfg := amalgam.TrainConfig{Epochs: 2000, BatchSize: 8, LR: 0.05, Momentum: 0.9}

	ctx, cancel := context.WithCancel(context.Background())
	progressed := 0
	_, err := amalgam.Train(ctx, amalgam.RemoteTrainer{Addr: addr}, job, cfg,
		amalgam.WithCheckpoint(ckpt, 1),
		amalgam.WithProgress(func(s amalgam.EpochStats) {
			progressed++
			if s.Epoch == 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if progressed < 2 {
		t.Fatalf("only %d progress frames before cancellation", progressed)
	}
	ck, err := serialize.LoadTrainCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("cancelled remote run left no loadable checkpoint: %v", err)
	}
	epoch := ck.Epoch
	if epoch >= cfg.Epochs {
		t.Fatalf("checkpoint claims %d epochs; the job was cancelled", epoch)
	}
	if len(ck.State) == 0 {
		t.Fatal("empty checkpoint state")
	}
	if ck.OptState.Empty() {
		t.Fatal("momentum run streamed no optimiser state into the checkpoint")
	}

	// Resume remotely from the streamed checkpoint state and finish.
	cfg.Epochs = epoch + 2
	stats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, job, cfg,
		amalgam.WithResume(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Epoch != epoch+1 {
		t.Fatalf("resume ran %d epochs starting at %d, want 2 starting at %d", len(stats), stats[0].Epoch, epoch+1)
	}
	if _, err := job.ExtractText(3); err != nil {
		t.Fatal(err)
	}
}

// TestTrainValidation covers the synchronous error paths of the new API.
func TestTrainValidation(t *testing.T) {
	job := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job, amalgam.TrainConfig{}); err == nil {
		t.Fatal("zero-epoch training should error")
	}
	// Wrong eval-set modality.
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job,
		amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.5},
		amalgam.WithEvalSet(amalgam.SyntheticMNIST(8, 1))); err == nil {
		t.Fatal("image eval set on a text job should error")
	}
	cv := mkCVJob(t, 5)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, cv,
		amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.05},
		amalgam.WithEvalSet(amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
			Name: "x", N: 4, SeqLen: 8, Vocab: 50, Classes: 2, Seed: 1}))); err == nil {
		t.Fatal("text eval set on a CV job should error")
	}
	// A checkpoint that already covers the requested horizon.
	ckpt := filepath.Join(t.TempDir(), "done.amc")
	done := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, done,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5},
		amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, done,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5},
		amalgam.WithResume(ckpt)); err == nil {
		t.Fatal("resuming past the final epoch should error")
	}
	// A missing resume file starts fresh instead of failing.
	fresh := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, fresh,
		amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.5},
		amalgam.WithResume(filepath.Join(t.TempDir(), "absent.amc"))); err != nil {
		t.Fatalf("missing resume file should start fresh, got %v", err)
	}
}

// TestCheckpointSurvivesProcessRestartShape verifies a checkpoint written
// by one job loads into a freshly built identical job (the cross-process
// resume story: nothing in the file depends on live state).
func TestCheckpointSurvivesProcessRestartShape(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "job.amc")
	first := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, first,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5, Momentum: 0.9},
		amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatal(err)
	}
	// A "restarted process" builds the job from the same seeds and resumes.
	second := mkTextJob(t)
	stats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, second,
		amalgam.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.5, Momentum: 0.9},
		amalgam.WithResume(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Epoch != 3 {
		t.Fatalf("resume in a fresh process ran %+v", stats)
	}
}
