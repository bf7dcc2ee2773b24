package amalgam_test

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"amalgam"
	"amalgam/internal/nn"
)

// lmConfig is a deliberately small transformer — but with Dropout > 0, so
// the tests also pin that the dropout streams are reproduced server-side
// (spec ModelSeed), not just the graph.
func lmConfig(vocab int) amalgam.TransformerLMConfig {
	return amalgam.TransformerLMConfig{
		Vocab: vocab, D: 16, Heads: 2, FF: 16, Layers: 1, MaxT: 32, Dropout: 0.1,
	}
}

// mkLMJob builds a deterministic small LM job; calling it twice yields two
// independent but identical jobs.
func mkLMJob(t *testing.T) *amalgam.LMJob {
	t.Helper()
	const vocab, bptt = 300, 12
	stream := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt", Tokens: 480, Vocab: vocab, Seed: 1})
	model := amalgam.BuildLMModel(3, lmConfig(vocab))
	job, err := amalgam.ObfuscateTokens(model, stream, bptt, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestLMRoundTripLocalVsRemote is the tentpole acceptance path:
// ObfuscateTokens → RemoteTrainer → ExtractLM, with per-epoch perplexity
// streamed over the wire, and the extracted weights bit-identical to the
// same job trained locally — including the dropout randomness.
func TestLMRoundTripLocalVsRemote(t *testing.T) {
	addr := startServer(t)
	cfg := amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.9}

	var remoteStats []amalgam.EpochStats
	remote := mkLMJob(t)
	_, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, remote, cfg,
		amalgam.WithProgress(func(s amalgam.EpochStats) { remoteStats = append(remoteStats, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(remoteStats) != cfg.Epochs {
		t.Fatalf("streamed %d progress events, want %d", len(remoteStats), cfg.Epochs)
	}
	for _, s := range remoteStats {
		if s.Perplexity <= 0 {
			t.Fatalf("epoch %d carries no perplexity", s.Epoch)
		}
		if got, want := s.Perplexity, math.Exp(s.Loss); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("epoch %d perplexity %v, want exp(loss)=%v", s.Epoch, got, want)
		}
	}

	local := mkLMJob(t)
	localStats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range localStats {
		if localStats[i].Loss != remoteStats[i].Loss {
			t.Fatalf("epoch %d: local loss %v, remote loss %v", i+1, localStats[i].Loss, remoteStats[i].Loss)
		}
	}

	a, err := remote.ExtractLM(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := local.ExtractLM(3)
	if err != nil {
		t.Fatal(err)
	}
	da, db := nn.StateDict(a), nn.StateDict(b)
	for name, src := range da {
		if !db[name].Equal(src) {
			t.Fatalf("remote vs local LM training diverged at %q", name)
		}
	}
}

// TestLMGELUFFRemoteBitIdentical pins the GELU feed-forward variant
// (TransformerLMConfig.GELUFF, tensor.ActGELU as FF1's fused epilogue)
// across the wire: the lm_gelu_ff spec field must reach the server-side rebuild, so
// remote training of a GELU-FF model stays bit-identical to local — and
// measurably different from the default ReLU FF (guarding against the
// flag silently not reaching the model).
func TestLMGELUFFRemoteBitIdentical(t *testing.T) {
	addr := startServer(t)
	cfg := amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.1}

	mk := func(gelu bool) *amalgam.LMJob {
		t.Helper()
		const vocab, bptt = 300, 12
		stream := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt", Tokens: 480, Vocab: vocab, Seed: 1})
		c := lmConfig(vocab)
		c.GELUFF = gelu
		model := amalgam.BuildLMModel(3, c)
		job, err := amalgam.ObfuscateTokens(model, stream, bptt, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}

	remote := mk(true)
	remoteStats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, remote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local := mk(true)
	localStats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range localStats {
		if localStats[i].Loss != remoteStats[i].Loss {
			t.Fatalf("epoch %d: GELU-FF local loss %v, remote loss %v", i+1, localStats[i].Loss, remoteStats[i].Loss)
		}
	}
	da := nn.StateDict(mustExtractLM(t, remote))
	db := nn.StateDict(mustExtractLM(t, local))
	for name, src := range da {
		if !db[name].Equal(src) {
			t.Fatalf("GELU-FF remote vs local training diverged at %q", name)
		}
	}

	relu := mk(false)
	reluStats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, relu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reluStats[len(reluStats)-1].Loss == localStats[len(localStats)-1].Loss {
		t.Fatal("GELU FF trained identically to ReLU FF — the flag is not reaching the model")
	}
}

func mustExtractLM(t *testing.T, j *amalgam.LMJob) *amalgam.TransformerLM {
	t.Helper()
	m, err := j.ExtractLM(3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLMEvalSetAndPerplexity runs an LM job with a held-out stream and
// checks next-token eval accuracy arrives per epoch, locally and remotely
// with identical values, and that job.Perplexity scores the same split.
func TestLMEvalSetAndPerplexity(t *testing.T) {
	addr := startServer(t)
	val := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt-val", Tokens: 120, Vocab: 300, Seed: 2})
	cfg := amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.1}

	local := mkLMJob(t)
	localStats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg,
		amalgam.WithEvalSet(val))
	if err != nil {
		t.Fatal(err)
	}
	remote := mkLMJob(t)
	remoteStats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, remote, cfg,
		amalgam.WithEvalSet(val))
	if err != nil {
		t.Fatal(err)
	}
	for i := range localStats {
		if !localStats[i].HasEval {
			t.Fatalf("epoch %d missing eval accuracy", i+1)
		}
		if localStats[i].EvalAccuracy != remoteStats[i].EvalAccuracy {
			t.Fatalf("epoch %d: local eval %v, remote eval %v",
				i+1, localStats[i].EvalAccuracy, remoteStats[i].EvalAccuracy)
		}
	}
	pp, err := local.Perplexity(val, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pp <= 1 || math.IsInf(pp, 0) || math.IsNaN(pp) {
		t.Fatalf("held-out perplexity %v out of range", pp)
	}

	// A foreign-vocabulary eval stream must error, not index-panic in the
	// embedding lookup.
	alien := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "alien", Tokens: 120, Vocab: 9999, Seed: 3})
	if _, err := local.Perplexity(alien, 8); err == nil {
		t.Fatal("vocab-mismatched eval stream must be rejected")
	}
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, mkLMJob(t),
		amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.1},
		amalgam.WithEvalSet(alien)); err == nil {
		t.Fatal("vocab-mismatched WithEvalSet must be rejected")
	}
}

// TestUnpinnedSubNetsRemoteBitIdentical pins the SubNets bugfix: a job
// built with SubNets: 0 (the paper-default random draw) used to perturb
// the augmentation RNG stream differently client- vs server-side, so
// remote rebuilds only matched when SubNets was pinned. The draw is now
// resolved before augmentation, outside the stream, and the spec carries
// the resolved count — remote training must be bit-identical with no
// client-side pinning.
func TestUnpinnedSubNetsRemoteBitIdentical(t *testing.T) {
	addr := startServer(t)
	cfg := amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5, Momentum: 0.9}
	mk := func() *amalgam.TextJob {
		t.Helper()
		train := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
			Name: "t", N: 32, SeqLen: 24, Vocab: 500, Classes: 4, Seed: 1})
		model := amalgam.BuildTextClassifier(3, 500, 16, 4)
		job, err := amalgam.ObfuscateText(model, train, amalgam.Options{Amount: 0.5, SubNets: 0, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	local := mk()
	if n := len(local.Augmented.Decoys); n < 2 || n > 4 {
		t.Fatalf("resolved decoy count %d outside [2,4]", n)
	}
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, local, cfg); err != nil {
		t.Fatal(err)
	}
	remote := mk()
	if _, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, remote, cfg); err != nil {
		t.Fatal(err)
	}
	a, err := local.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := remote.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}
	da, db := nn.StateDict(a), nn.StateDict(b)
	for name, src := range da {
		if !db[name].Equal(src) {
			t.Fatalf("unpinned-SubNets remote training diverged at %q", name)
		}
	}
}

// TestMomentumResumeBitIdenticalLocal pins the momentum-checkpoint
// bugfix end to end: with Momentum > 0, train-2-epochs → checkpoint →
// resume-2-more must produce exactly the weights of an uninterrupted
// 4-epoch run (velocity restarts used to make it merely convergent).
func TestMomentumResumeBitIdenticalLocal(t *testing.T) {
	cfg := amalgam.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.5, Momentum: 0.9}

	straight := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, straight, cfg); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "job.amc")
	split := mkTextJob(t)
	half := cfg
	half.Epochs = 2
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, split, half,
		amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}
	resumed := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, resumed, cfg,
		amalgam.WithResume(ckpt)); err != nil {
		t.Fatal(err)
	}

	a, err := straight.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := resumed.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}
	da, db := nn.StateDict(a), nn.StateDict(b)
	for name, src := range da {
		if !db[name].Equal(src) {
			t.Fatalf("momentum resume diverged from straight run at %q", name)
		}
	}
}

// TestMomentumResumeBitIdenticalRemote is the same pin across the wire:
// the optimiser state rides checkpoint frames back to the client and the
// resume request ships it to the service.
func TestMomentumResumeBitIdenticalRemote(t *testing.T) {
	addr := startServer(t)
	cfg := amalgam.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.5, Momentum: 0.9}

	straight := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, straight, cfg); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "job.amc")
	split := mkTextJob(t)
	half := cfg
	half.Epochs = 2
	if _, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, split, half,
		amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}
	resumed := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: addr}, resumed, cfg,
		amalgam.WithResume(ckpt)); err != nil {
		t.Fatal(err)
	}

	a, err := straight.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := resumed.ExtractText(3)
	if err != nil {
		t.Fatal(err)
	}
	da, db := nn.StateDict(a), nn.StateDict(b)
	for name, src := range da {
		if !db[name].Equal(src) {
			t.Fatalf("remote momentum resume diverged from straight run at %q", name)
		}
	}
}

// TestCheckpointKindMismatchRejected pins the extraction-path bugfix: a
// checkpoint records its job kind, and loading it into a job of another
// modality fails with ErrCheckpointKind — up front, instead of a shape
// failure (or panic) deep in the state-dict load.
func TestCheckpointKindMismatchRejected(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "text.amc")
	text := mkTextJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, text,
		amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.5},
		amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}

	// WithResume into a CV job.
	cv := mkCVJob(t, 5)
	_, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, cv,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05},
		amalgam.WithResume(ckpt))
	if !errors.Is(err, amalgam.ErrCheckpointKind) {
		t.Fatalf("CV resume from a text checkpoint: want ErrCheckpointKind, got %v", err)
	}

	// Direct LoadCheckpoint into an LM job (the extract-from-checkpoint
	// path used before ExtractLM).
	lm := mkLMJob(t)
	if _, err := amalgam.LoadCheckpoint(lm, ckpt); !errors.Is(err, amalgam.ErrCheckpointKind) {
		t.Fatalf("LM load of a text checkpoint: want ErrCheckpointKind, got %v", err)
	}

	// The matching job loads it fine and extracts.
	fresh := mkTextJob(t)
	epoch, err := amalgam.LoadCheckpoint(fresh, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("checkpoint records %d epochs, want 1", epoch)
	}
	if _, err := fresh.ExtractText(3); err != nil {
		t.Fatal(err)
	}
}

// TestLMCheckpointResume exercises WithCheckpoint/WithResume on the LM
// modality itself (kind "augmented-lm" recorded, resume continues at the
// right epoch and extracts cleanly).
func TestLMCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "lm.amc")
	job := mkLMJob(t)
	if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job,
		amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.1, Momentum: 0.9},
		amalgam.WithCheckpoint(ckpt, 1)); err != nil {
		t.Fatal(err)
	}
	resumed := mkLMJob(t)
	stats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, resumed,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.9},
		amalgam.WithResume(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Epoch != 2 {
		t.Fatalf("LM resume ran %+v", stats)
	}
	if _, err := resumed.ExtractLM(3); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLMJobTrainEpoch is the bench-smoke entry for the LM workload:
// one local epoch of an obfuscated LM job through the public API.
func BenchmarkLMJobTrainEpoch(b *testing.B) {
	const vocab, bptt = 300, 12
	stream := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt", Tokens: 480, Vocab: vocab, Seed: 1})
	cfg := amalgam.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.1, Momentum: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		model := amalgam.BuildLMModel(3, lmConfig(vocab))
		job, err := amalgam.ObfuscateTokens(model, stream, bptt, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
