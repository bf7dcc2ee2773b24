package main

import (
	"context"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// cvSizes are cv_local's knobs. Model shapes are fixed (zoo resnet18 on
// 3×32×32, batch 16); only counts shrink to fit the run-time cap.
type cvSizes struct {
	Model      string  `json:"model"`
	N          int     `json:"n"`
	Batch      int     `json:"batch"`
	Epochs     int     `json:"epochs"`
	LR         float64 `json:"lr"`
	Momentum   float64 `json:"momentum"`
	Amount     float64 `json:"amount"`
	SubNets    int     `json:"sub_nets"`
	C          int     `json:"c"`
	H          int     `json:"h"`
	W          int     `json:"w"`
	Classes    int     `json:"classes"`
	ArmsShare  float64 `json:"arms_share"`
	ExtractFor float64 `json:"extract_share"`
}

func (r *run) cvSizes() cvSizes {
	sz := cvSizes{
		Model: "resnet18", N: 16, Batch: 16, Epochs: 1, LR: 0.02, Momentum: 0.9,
		Amount: 0.5, SubNets: 3, C: 3, H: 32, W: 32, Classes: 10,
		ArmsShare: 0.9, ExtractFor: 0.1,
	}
	if r.smoke {
		sz.N, sz.Batch = 2, 2
	}
	return sz
}

// cvJob builds one freshly obfuscated resnet18 job from the run seed.
func (r *run) cvJob(sz cvSizes) (*amalgam.Job, *amalgam.ImageDataset, error) {
	ds := amalgam.SyntheticCIFAR10(sz.N, r.sub(1))
	model, err := amalgam.BuildCV(sz.Model, r.sub(2), amalgam.CVConfig{InC: sz.C, InH: sz.H, InW: sz.W, Classes: sz.Classes})
	if err != nil {
		return nil, nil, err
	}
	job, err := amalgam.Obfuscate(model, ds, amalgam.Options{Amount: sz.Amount, SubNets: sz.SubNets, Seed: r.sub(3)})
	return job, ds, err
}

func (sz cvSizes) trainConfig() amalgam.TrainConfig {
	return amalgam.TrainConfig{Epochs: sz.Epochs, BatchSize: sz.Batch, LR: sz.LR, Momentum: sz.Momentum}
}

// runCVLocal is the paper's headline model: plain resnet18 training
// against the same job obfuscated, trained and extracted.
func runCVLocal(r *run) error {
	sz := r.cvSizes()
	r.sizes = sz
	if r.traced {
		return r.traceCVLocal(sz)
	}
	ctx := context.Background()

	prepare := func() (pair, error) {
		job, ds, err := r.cvJob(sz)
		if err != nil {
			return pair{}, err
		}
		extract := func() (amalgam.CVModel, error) { return job.Extract(sz.Model, r.sub(4)) }
		return pair{
			// There is no public plain trainer; cloudsim.RunLocal with a
			// plain-cv spec is the un-obfuscated job the service would run.
			// The spec rebuilds the model from the same seed the aug arm's
			// BuildCV used, and the shuffle seed is the aug job's default.
			base: func() (map[string]*tensor.Tensor, error) {
				resp, err := cloudsim.RunLocal(&cloudsim.TrainRequest{
					Spec: cloudsim.ModelSpec{Kind: "plain-cv", Model: sz.Model, InC: sz.C, OrigH: sz.H, OrigW: sz.W,
						Classes: sz.Classes, ModelSeed: r.sub(2)},
					Hyper: cloudsim.Hyper{Epochs: sz.Epochs, BatchSize: sz.Batch, LR: sz.LR, Momentum: sz.Momentum,
						Shuffle: true, ShuffleSeed: r.sub(3)},
					Images: ds.Images, Labels: ds.Labels,
				})
				if err != nil {
					return nil, err
				}
				return resp.State, nil
			},
			test: func() (map[string]*tensor.Tensor, error) {
				if _, err := amalgam.Train(ctx, amalgam.LocalTrainer{}, job, sz.trainConfig()); err != nil {
					return nil, err
				}
				m, err := extract()
				if err != nil {
					return nil, err
				}
				return nn.StateDict(m), nil
			},
			extract: func() error { _, err := extract(); return err },
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

// warmUp runs the augmented arm once, untimed, on a throw-away job of the
// same shapes, so the tensor scratch pool and the kernel worker pool are
// filled before anything is measured.
func (r *run) warmUp(prepare func() (pair, error)) error {
	p, err := prepare()
	if err != nil {
		return err
	}
	if p.cleanup != nil {
		defer p.cleanup()
	}
	_, err = p.test()
	return err
}

// traceCVLocal is cv_local's traced run: the step anatomy of the
// augmented job, core's augmentation and extraction costs, and the
// achieved GFLOP/s of a plain resnet18 step.
func (r *run) traceCVLocal(sz cvSizes) error {
	ctx := context.Background()
	r.kernelProbes()
	r.toyForwardProbe()

	// core: time the two halves of Obfuscate through core's own entry
	// points (amalgam.Obfuscate is exactly these two calls).
	ds := amalgam.SyntheticCIFAR10(sz.N, r.sub(1))
	model, err := amalgam.BuildCV(sz.Model, r.sub(2), amalgam.CVConfig{InC: sz.C, InH: sz.H, InW: sz.W, Classes: sz.Classes})
	if err != nil {
		return err
	}
	origParams := nn.NumParams(model)
	var aug *core.AugmentedImages
	dataDur, err := r.span("cv_local/setup", "core.augment_data", func() (err error) {
		aug, err = core.AugmentImages(ds, core.ImageAugmentOptions{Amount: sz.Amount, Noise: core.DefaultImageNoise(), Seed: r.sub(3)})
		return err
	})
	if err != nil {
		return err
	}
	var am *core.AugmentedCVModel
	modelDur, err := r.span("cv_local/setup", "core.augment_model", func() (err error) {
		am, err = core.AugmentCVModel(model, aug.Key, sz.C, sz.Classes, core.ModelAugmentOptions{Amount: sz.Amount, SubNets: sz.SubNets, Seed: r.sub(3)})
		return err
	})
	if err != nil {
		return err
	}
	r.reportAugmentation(dataDur, modelDur, ds.SizeBytes(), aug.Dataset.SizeBytes(), origParams, am.TotalParams())

	build, err := r.spanSample("cv_local/setup", "cloudsim.build_model", 3, func() error {
		_, err := cloudsim.BuildModel(cloudsim.ModelSpec{Kind: "plain-cv", Model: sz.Model, InC: sz.C, OrigH: sz.H, OrigW: sz.W,
			Classes: sz.Classes, ModelSeed: r.sub(2)})
		return err
	})
	if err != nil {
		return err
	}
	r.layer.putMedian("cloudsim.build_model_ms", build)

	var lastJob *amalgam.Job
	prepare := func() (tracedPair, error) {
		a, _, err := r.cvJob(sz)
		if err != nil {
			return tracedPair{}, err
		}
		b, _, err := r.cvJob(sz)
		if err != nil {
			return tracedPair{}, err
		}
		lastJob = b
		bm, bds := b.Augmented, b.AugmentedDataset
		return tracedPair{
			untraced: func() (map[string]*tensor.Tensor, error) {
				_, err := amalgam.Train(ctx, amalgam.LocalTrainer{}, a, sz.trainConfig())
				return nn.StateDict(a.Augmented), err
			},
			job: tracedJob{
				model: bm, n: bds.N(), epochs: sz.Epochs, batch: sz.Batch, shuffle: r.sub(3),
				opt: optim.OptimSpec{Kind: optim.KindSGD, LR: sz.LR, Momentum: sz.Momentum},
				gather: func(idx []int) any {
					x, labels := bds.Batch(idx)
					return cvBatch{x, labels}
				},
				loss: func(b any) (*autodiff.Node, *autodiff.Node) {
					cb := b.(cvBatch)
					return bm.Loss(autodiff.Constant(cb.x), cb.labels)
				},
				eval: func(batch int) float64 { return amalgam.Predict(bm, bds, batch) },
			},
			state: func() map[string]*tensor.Tensor { return nn.StateDict(bm) },
		}, nil
	}
	st, _, err := r.traceTraining(r.budget(0.8), prepare)
	if err != nil {
		return err
	}

	ex, err := r.spanSample("cv_local/extract", "core.extract", 3, func() error {
		_, err := lastJob.Extract(sz.Model, r.sub(4))
		return err
	})
	if err != nil {
		return err
	}
	r.layer.putMedian("core.extract_ms", ex)

	plain, err := amalgam.BuildCV(sz.Model, r.sub(2), amalgam.CVConfig{InC: sz.C, InH: sz.H, InW: sz.W, Classes: sz.Classes})
	if err != nil {
		return err
	}
	plain.SetTraining(true)
	x, labels := ds.Batch(data.BatchIter(ds.N(), sz.Batch, nil)[0])
	r.achievedGFLOPs(plain, 3*resnet18ForwardFLOPs(sz.C, sz.H, sz.W, sz.Classes)*float64(len(labels)), 2, func() *autodiff.Node {
		return autodiff.SoftmaxCrossEntropy(plain.Forward(autodiff.Constant(x)), labels)
	})

	fb := st.forward.median() + st.backward.median()
	share := fb / st.step.median()
	r.layer.putCount("bench.isolated_share", share)
	r.sane("cv_local isolates tensor: forward+backward share of a step >= 0.70", share >= 0.70,
		fmtShare(fb, st.step.median()))
	return nil
}

type cvBatch struct {
	x      *tensor.Tensor
	labels []int
}

// resnet18ForwardFLOPs computes the multiply-add FLOPs (2 per MAC) of one
// image through models.ResNet18: 3×3 stem at 64 channels, four stages of
// two basic blocks at widths 64/128/256/512 (stride 2 from the second
// stage, 1×1 projection shortcuts where the shape changes), global
// pooling, linear head. Norms and activations are ignored.
func resnet18ForwardFLOPs(inC, h, w, classes int) float64 {
	conv := func(inC, outC, k, oh, ow int) float64 { return 2 * float64(inC*outC*k*k) * float64(oh*ow) }
	total := conv(inC, 64, 3, h, w)
	in := 64
	for s, width := range []int{64, 128, 256, 512} {
		if s > 0 {
			h, w = (h+1)/2, (w+1)/2
		}
		// Block 1 (may downsample), block 2.
		total += conv(in, width, 3, h, w) + conv(width, width, 3, h, w)
		if s > 0 {
			total += conv(in, width, 1, h, w)
		}
		total += 2 * conv(width, width, 3, h, w)
		in = width
	}
	return total + 2*float64(512*classes)
}
