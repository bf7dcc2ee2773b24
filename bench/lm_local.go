package main

import (
	"context"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// lmSizes are lm_local's knobs; the transformer's shapes are fixed, the
// token count shrinks to fit the run-time cap.
type lmSizes struct {
	Model      amalgam.TransformerLMConfig `json:"model"`
	BPTT       int                         `json:"bptt"`
	Tokens     int                         `json:"tokens"`
	Batch      int                         `json:"batch"`
	Epochs     int                         `json:"epochs"`
	AdamLR     float64                     `json:"adam_lr"`
	Amount     float64                     `json:"amount"`
	SubNets    int                         `json:"sub_nets"`
	ArmsShare  float64                     `json:"arms_share"`
	ExtractFor float64                     `json:"extract_share"`
}

func (r *run) lmSizes() lmSizes {
	sz := lmSizes{
		Model: amalgam.TransformerLMConfig{Vocab: 2000, D: 128, Heads: 4, FF: 512, Layers: 2, MaxT: 64, Dropout: 0},
		BPTT:  64, Tokens: 8192, Batch: 16, Epochs: 1, AdamLR: 1e-3,
		Amount: 0.5, SubNets: 2, ArmsShare: 0.9, ExtractFor: 0.1,
	}
	if r.smoke {
		sz.Tokens, sz.Batch = 256, 2
	}
	return sz
}

// lmJob builds one LM job at the given augmentation amount. Amount 0 is
// the plain arm: zero decoys and an identity key — there is no public
// plain LM trainer, so the un-obfuscated baseline goes through the same
// ObfuscateTokens → Train → ExtractLM path with nothing added.
func (r *run) lmJob(sz lmSizes, amount float64) (*amalgam.LMJob, *amalgam.TokenStream, error) {
	stream := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "bench-lm", Tokens: sz.Tokens, Vocab: sz.Model.Vocab, Seed: r.sub(1)})
	model := amalgam.BuildLMModel(r.sub(2), sz.Model)
	job, err := amalgam.ObfuscateTokens(model, stream, sz.BPTT, amalgam.Options{Amount: amount, SubNets: sz.SubNets, Seed: r.sub(3)})
	return job, stream, err
}

func (sz lmSizes) trainConfig() amalgam.TrainConfig {
	return amalgam.TrainConfig{Epochs: sz.Epochs, BatchSize: sz.Batch, Optimizer: amalgam.Adam(sz.AdamLR)}
}

// runLMLocal is where augmentation actually costs: mid-size and per-head
// matmuls plus softmax, LayerNorm, embedding and Adam.
func runLMLocal(r *run) error {
	sz := r.lmSizes()
	r.sizes = sz
	if r.traced {
		return r.traceLMLocal(sz)
	}
	ctx := context.Background()

	trainAndExtract := func(job *amalgam.LMJob) (map[string]*tensor.Tensor, error) {
		if _, err := amalgam.Train(ctx, amalgam.LocalTrainer{}, job, sz.trainConfig()); err != nil {
			return nil, err
		}
		m, err := job.ExtractLM(r.sub(4))
		if err != nil {
			return nil, err
		}
		return nn.StateDict(m), nil
	}
	prepare := func() (pair, error) {
		plain, _, err := r.lmJob(sz, 0)
		if err != nil {
			return pair{}, err
		}
		aug, _, err := r.lmJob(sz, sz.Amount)
		if err != nil {
			return pair{}, err
		}
		return pair{
			base:    func() (map[string]*tensor.Tensor, error) { return trainAndExtract(plain) },
			test:    func() (map[string]*tensor.Tensor, error) { return trainAndExtract(aug) },
			extract: func() error { _, err := aug.ExtractLM(r.sub(4)); return err },
		}, nil
	}

	if err := r.warmUp(prepare); err != nil {
		return err
	}
	pt, err := r.runPairs(r.budget(sz.ArmsShare), "plain", "aug", prepare)
	if err != nil {
		return err
	}
	ex, err := r.sampleExtract(r.budget(sz.ExtractFor), pt.last)
	if err != nil {
		return err
	}
	r.e2e.putMedian("setup_s", pt.setup)
	r.e2e.putMedian("plain_job_s", pt.base)
	r.e2e.putMedian("aug_job_s", pt.test)
	r.e2e.putMedian("overhead_ratio", pt.ratio)
	r.e2e.putMedian("extract_p50_ms", ex)
	return nil
}

func (r *run) traceLMLocal(sz lmSizes) error {
	ctx := context.Background()
	r.kernelProbes()
	r.toyForwardProbe()

	stream := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "bench-lm", Tokens: sz.Tokens, Vocab: sz.Model.Vocab, Seed: r.sub(1)})
	model := amalgam.BuildLMModel(r.sub(2), sz.Model)
	origParams := nn.NumParams(model)
	var aug *core.AugmentedStream
	dataDur, err := r.span("lm_local/setup", "core.augment_data", func() (err error) {
		aug, err = core.AugmentTokenStream(stream, core.TextAugmentOptions{
			Amount: sz.Amount, WindowLen: sz.BPTT, Noise: core.DefaultTextNoise(sz.Model.Vocab), Seed: r.sub(3)})
		return err
	})
	if err != nil {
		return err
	}
	var am *core.AugmentedTransformerLM
	modelDur, err := r.span("lm_local/setup", "core.augment_model", func() (err error) {
		am, err = core.AugmentTransformerLM(model, aug.Key, core.ModelAugmentOptions{Amount: sz.Amount, SubNets: sz.SubNets, Seed: r.sub(3)})
		return err
	})
	if err != nil {
		return err
	}
	r.reportAugmentation(dataDur, modelDur, stream.SizeBytes(), aug.Stream.SizeBytes(), origParams, am.TotalParams())

	var lastJob *amalgam.LMJob
	prepare := func() (tracedPair, error) {
		a, _, err := r.lmJob(sz, sz.Amount)
		if err != nil {
			return tracedPair{}, err
		}
		b, _, err := r.lmJob(sz, sz.Amount)
		if err != nil {
			return tracedPair{}, err
		}
		lastJob = b
		bm := b.Augmented
		ws := b.AugmentedStream.WindowSet(b.Key.AugLen)
		return tracedPair{
			untraced: func() (map[string]*tensor.Tensor, error) {
				_, err := amalgam.Train(ctx, amalgam.LocalTrainer{}, a, sz.trainConfig())
				return nn.StateDict(a.Augmented), err
			},
			job: tracedJob{
				model: bm, n: ws.N(), epochs: sz.Epochs, batch: sz.Batch, shuffle: r.sub(3),
				opt:    *amalgam.Adam(sz.AdamLR),
				gather: func(idx []int) any { return ws.Batch(idx) },
				loss:   func(b any) (*autodiff.Node, *autodiff.Node) { return bm.LossWindows(b.([][]int)) },
				eval:   func(batch int) float64 { return cloudsim.LMAccuracy(bm, ws, batch) },
			},
			state: func() map[string]*tensor.Tensor { return nn.StateDict(bm) },
		}, nil
	}
	st, _, err := r.traceTraining(r.budget(0.8), prepare)
	if err != nil {
		return err
	}

	build, err := r.spanSample("lm_local/setup", "cloudsim.build_model", 3, func() error {
		_, err := cloudsim.BuildModel(lmSpec(lastJob, sz, r.sub(3)))
		return err
	})
	if err != nil {
		return err
	}
	r.layer.putMedian("cloudsim.build_model_ms", build)
	ex, err := r.spanSample("lm_local/extract", "core.extract", 3, func() error {
		_, err := lastJob.ExtractLM(r.sub(4))
		return err
	})
	if err != nil {
		return err
	}
	r.layer.putMedian("core.extract_ms", ex)

	plain := amalgam.BuildLMModel(r.sub(2), sz.Model)
	plain.SetTraining(true)
	ws := stream.WindowSet(sz.BPTT)
	wins := ws.Batch(data.BatchIter(ws.N(), sz.Batch, nil)[0])
	r.achievedGFLOPs(plain, 3*lmForwardFLOPs(sz.Model, sz.BPTT-1)*float64(len(wins)), 5, func() *autodiff.Node {
		return core.LMWindowLoss(plain, wins)
	})

	fb := st.forward.median() + st.backward.median()
	share := fb / st.step.median()
	r.layer.putCount("bench.isolated_share", share)
	r.sane("lm_local isolates tensor+autodiff: forward+backward share of a step >= 0.70", share >= 0.70,
		fmtShare(fb, st.step.median()))
	return nil
}

// lmSpec mirrors the wire spec LMJob ships to a service, for timing
// cloudsim.BuildModel on it.
func lmSpec(j *amalgam.LMJob, sz lmSizes, augSeed uint64) cloudsim.ModelSpec {
	cfg := sz.Model
	return cloudsim.ModelSpec{
		Kind: "augmented-lm", Vocab: cfg.Vocab, ModelSeed: j.Augmented.Orig.BuildSeed,
		LMDim: cfg.D, LMHeads: cfg.Heads, LMFF: cfg.FF, LMLayers: cfg.Layers, LMMaxT: cfg.MaxT,
		OrigLen: j.Key.OrigLen, AugLen: j.Key.AugLen, KeyKeep: j.Key.Keep,
		AugAmount: sz.Amount, SubNets: len(j.Augmented.Decoys), AugSeed: augSeed,
	}
}

// lmForwardFLOPs computes one sequence's multiply-add FLOPs through the
// transformer: per layer the four D×D attention projections, the two
// score/value products over T positions, and the two feed-forward
// matmuls; then the D×vocab decoder. Norms, softmax and the embedding
// lookup are ignored.
func lmForwardFLOPs(cfg amalgam.TransformerLMConfig, t int) float64 {
	T, D, FF, V := float64(t), float64(cfg.D), float64(cfg.FF), float64(cfg.Vocab)
	perLayer := 2*T*4*D*D + 2*2*T*T*D + 2*T*2*D*FF
	return float64(cfg.Layers)*perLayer + 2*T*D*V
}
