package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// remoteSizes are remote_text's knobs: a text-classification job whose
// cost is three dense 20 000×64 embedding tables under SGD (kernels do
// almost nothing), then a soak of tiny jobs through the scheduler.
type remoteSizes struct {
	Vocab      int     `json:"vocab"`
	Embed      int     `json:"embed"`
	Classes    int     `json:"classes"`
	N          int     `json:"n"`
	SeqLen     int     `json:"seq_len"`
	Batch      int     `json:"batch"`
	Epochs     int     `json:"epochs"`
	LR         float64 `json:"lr"`
	Momentum   float64 `json:"momentum"`
	Amount     float64 `json:"amount"`
	SubNets    int     `json:"sub_nets"`
	Executors  int     `json:"executors"`
	MaxRetries int     `json:"max_retries"`
	// Soak: plain-cv lenet jobs over the async submit/attach protocol.
	SoakSamples    int     `json:"soak_samples"`
	SoakTenants    int     `json:"soak_tenants"`
	SoakSubmitters int     `json:"soak_submitters"`
	JobShare       float64 `json:"job_share"`
	SoakShare      float64 `json:"soak_share"`
}

func (r *run) remoteSizes() remoteSizes {
	sz := remoteSizes{
		Vocab: 20000, Embed: 64, Classes: 4, N: 1024, SeqLen: 64, Batch: 32, Epochs: 5,
		LR: 0.05, Momentum: 0.9, Amount: 0.5, SubNets: 2, Executors: 2, MaxRetries: 2,
		SoakSamples: 8, SoakTenants: 4, SoakSubmitters: 2, JobShare: 0.7, SoakShare: 0.3,
	}
	if r.smoke {
		sz.N, sz.Epochs = 64, 2
	}
	return sz
}

func (r *run) textJob(sz remoteSizes) (*amalgam.TextJob, error) {
	ds := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "bench-text", N: sz.N, SeqLen: sz.SeqLen, Vocab: sz.Vocab, Classes: sz.Classes, Seed: r.sub(1)})
	model := amalgam.BuildTextClassifier(r.sub(2), sz.Vocab, sz.Embed, sz.Classes)
	return amalgam.ObfuscateText(model, ds, amalgam.Options{Amount: sz.Amount, SubNets: sz.SubNets, Seed: r.sub(3)})
}

func (sz remoteSizes) trainConfig() amalgam.TrainConfig {
	return amalgam.TrainConfig{Epochs: sz.Epochs, BatchSize: sz.Batch, LR: sz.LR, Momentum: sz.Momentum}
}

// service is one loopback cloudsim.Server; wire counts what crosses its
// listener when the run is traced.
type service struct {
	addr string
	l    net.Listener
	srv  *cloudsim.Server
	wire *countingListener
}

func startService(cfg cloudsim.ServerConfig, count bool) (*service, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{addr: l.Addr().String(), l: l}
	if count {
		s.wire = &countingListener{Listener: l}
		l = s.wire
	}
	s.srv = cloudsim.NewServerConfig(l, cfg)
	return s, nil
}

// stop closes the listener and waits for every connection handler and job
// to finish.
func (s *service) stop() error {
	_ = s.l.Close() // the accept loop's exit is what Wait reports on
	return s.srv.Wait()
}

// runRemoteText measures what the wire costs a job (serialize + frames +
// socket: every epoch ships a weights+momentum checkpoint frame) and what
// the scheduler costs a tiny one (dial, spec, BuildModel, queue, attach).
func runRemoteText(r *run) error {
	sz := r.remoteSizes()
	r.sizes = sz
	if r.traced {
		return r.traceRemoteText(sz)
	}
	ctx := context.Background()

	var svc *service
	trainAndExtract := func(t amalgam.Trainer, job *amalgam.TextJob, opts ...amalgam.TrainOption) (map[string]*tensor.Tensor, error) {
		stats, err := amalgam.Train(ctx, t, job, sz.trainConfig(), opts...)
		if err != nil {
			return nil, err
		}
		if _, err := job.ExtractText(r.sub(4)); err != nil {
			return nil, err
		}
		r.check(fmt.Sprintf("%T delivered exactly %d epoch stats", t, sz.Epochs), len(stats) == sz.Epochs,
			fmt.Sprintf("got %d", len(stats)))
		return nn.StateDict(job.Augmented), nil
	}
	prepare := func() (pair, error) {
		s, err := startService(cloudsim.ServerConfig{Executors: sz.Executors}, false)
		if err != nil {
			return pair{}, err
		}
		svc = s
		localJob, err := r.textJob(sz)
		if err != nil {
			return pair{}, err
		}
		remoteJob, err := r.textJob(sz)
		if err != nil {
			return pair{}, err
		}
		return pair{
			base: func() (map[string]*tensor.Tensor, error) { return trainAndExtract(amalgam.LocalTrainer{}, localJob) },
			test: func() (map[string]*tensor.Tensor, error) {
				return trainAndExtract(amalgam.RemoteTrainer{Addr: s.addr}, remoteJob,
					amalgam.WithRetry(amalgam.RetryPolicy{MaxRetries: sz.MaxRetries}))
			},
			cleanup: func() { _ = s.stop() },
		}, nil
	}
	if err := r.warmUp(prepare); err != nil {
		return err
	}
	pt, err := r.runPairs(r.budget(sz.JobShare), "local", "remote", prepare)
	if err != nil {
		return err
	}
	defer pt.last.cleanup()

	soak, err := r.soak(svc.addr, sz, r.budget(sz.SoakShare))
	if err != nil {
		return err
	}
	r.e2e.putMedian("setup_s", pt.setup)
	r.e2e.putMedian("aug_job_s", pt.base)
	r.e2e.putMedian("remote_job_s", pt.test)
	r.e2e.putMedian("remote_ratio", pt.ratio)
	r.e2e.put("soak_jobs_per_s", float64(len(soak.e2e))/soak.wall.Seconds(), len(soak.e2e), 0, "")
	r.e2e.putMedian("soak_job_p50_ms", soak.e2e)
	return nil
}

// soakResult holds per-job latencies (ms) of one soak.
type soakResult struct {
	submit, attach, e2e sample
	rejects             int
	wall                time.Duration
}

// soak drives the scheduler closed-loop: each submitter sends its next
// job only after the previous one's attach returned the final weights.
func (r *run) soak(addr string, sz remoteSizes, budget time.Duration) (*soakResult, error) {
	ds := data.GenerateImages(data.ImageConfig{
		Name: "bench-soak", N: sz.SoakSamples, C: 1, H: 12, W: 12, Classes: 2, Seed: r.sub(10), Noise: 0.05})
	minJobs := 20
	if r.smoke {
		minJobs, budget = 8, 0
	}
	ctx := context.Background()
	var (
		mu      sync.Mutex
		res     soakResult
		ids     []string
		bad     int
		lastErr error
		issued  atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < sz.SoakSubmitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := r.rng(uint64(100 + w)) // tenant and model-seed assignment
			for {
				if n := issued.Add(1); n > int64(minJobs) && time.Since(start) >= budget {
					return
				}
				trace := fmt.Sprintf("remote_text/soak/%d", w)
				req := &cloudsim.TrainRequest{
					Spec: cloudsim.ModelSpec{Kind: "plain-cv", Model: "lenet", InC: 1, OrigH: 12, OrigW: 12, Classes: 2,
						ModelSeed: uint64(rng.IntN(8)) + 1, Tenant: fmt.Sprintf("tenant-%d", rng.IntN(sz.SoakTenants))},
					Hyper: cloudsim.Hyper{Epochs: 1, BatchSize: 4, LR: 0.05, Momentum: 0.9,
						Shuffle: true, ShuffleSeed: r.sub(11), Stream: true},
					Images: ds.Images, Labels: ds.Labels,
				}
				job := r.tr.begin(trace, "cloudsim.soak_job", 0)
				t0 := time.Now()
				var id string
				var err error
				rejects := 0
				sp := r.tr.begin(trace, "cloudsim.submit", job)
				for {
					id, err = cloudsim.SubmitContext(ctx, addr, req, cloudsim.NetConfig{})
					if errors.Is(err, cloudsim.ErrQueueFull) || errors.Is(err, cloudsim.ErrTenantQuota) {
						rejects++ // backpressure by contract: back off and resubmit
						time.Sleep(5 * time.Millisecond)
						continue
					}
					break
				}
				r.tr.end(sp)
				tSubmit := time.Since(t0)
				var resp *cloudsim.TrainResponse
				if err == nil {
					sp = r.tr.begin(trace, "cloudsim.attach", job)
					resp, err = cloudsim.AttachContext(ctx, addr, cloudsim.AttachRequest{JobID: id},
						cloudsim.StreamHandlers{}, cloudsim.NetConfig{})
					r.tr.end(sp)
				}
				tAll := time.Since(t0)
				r.tr.end(job)
				done := err == nil && !resp.Cancelled && resp.CompletedEpochs == 1
				mu.Lock()
				res.rejects += rejects
				if done {
					res.submit.addDurMs(tSubmit)
					res.attach.addDurMs(tAll - tSubmit)
					res.e2e.addDurMs(tAll)
					ids = append(ids, id)
				} else {
					bad++
					if err == nil {
						err = fmt.Errorf("job %s ended cancelled=%v after %d epochs", id, resp.Cancelled, resp.CompletedEpochs)
					}
					lastErr = err
				}
				mu.Unlock()
				if !done {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res.wall = time.Since(start)
	r.ops(len(res.e2e)+bad+res.rejects, bad+res.rejects)
	if bad > 0 {
		r.check("every soak job ends done", false, lastErr.Error())
		return nil, fmt.Errorf("remote_text: soak: %w", lastErr)
	}
	// Ask the scheduler itself about a seeded sample of the jobs.
	rng := r.rng(12)
	notDone := ""
	for i := 0; i < min(32, len(ids)); i++ {
		id := ids[rng.IntN(len(ids))]
		st, err := cloudsim.PollContext(ctx, addr, id, cloudsim.NetConfig{})
		if err != nil {
			return nil, fmt.Errorf("remote_text: poll %s: %w", id, err)
		}
		if st.State != "done" {
			notDone = fmt.Sprintf("job %s is %q", id, st.State)
		}
	}
	r.check("every soak job ends done", notDone == "", notDone)
	r.logf("  soak: %d jobs in %.2fs, %d rejects", len(res.e2e), res.wall.Seconds(), res.rejects)
	return &res, nil
}

// traceRemoteText decomposes the job (step anatomy, checkpoint codec,
// bytes and gaps on the wire) and the soak (submit vs attach).
func (r *run) traceRemoteText(sz remoteSizes) error {
	ctx := context.Background()
	r.kernelProbes()
	r.toyForwardProbe()

	ds := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "bench-text", N: sz.N, SeqLen: sz.SeqLen, Vocab: sz.Vocab, Classes: sz.Classes, Seed: r.sub(1)})
	model := amalgam.BuildTextClassifier(r.sub(2), sz.Vocab, sz.Embed, sz.Classes)
	origParams := nn.NumParams(model)
	var aug *core.AugmentedText
	dataDur, err := r.span("remote_text/setup", "core.augment_data", func() (err error) {
		aug, err = core.AugmentTextDataset(ds, core.TextAugmentOptions{Amount: sz.Amount, Noise: core.DefaultTextNoise(sz.Vocab), Seed: r.sub(3)})
		return err
	})
	if err != nil {
		return err
	}
	var am *core.AugmentedTextClassifier
	modelDur, err := r.span("remote_text/setup", "core.augment_model", func() (err error) {
		am, err = core.AugmentTextClassifier(model, aug.Key, core.ModelAugmentOptions{Amount: sz.Amount, SubNets: sz.SubNets, Seed: r.sub(3)})
		return err
	})
	if err != nil {
		return err
	}
	r.reportAugmentation(dataDur, modelDur, ds.SizeBytes(), aug.Dataset.SizeBytes(), origParams, am.TotalParams())

	sgd := optim.OptimSpec{Kind: optim.KindSGD, LR: sz.LR, Momentum: sz.Momentum}
	var localJob *amalgam.TextJob
	prepare := func() (tracedPair, error) {
		a, err := r.textJob(sz)
		if err != nil {
			return tracedPair{}, err
		}
		b, err := r.textJob(sz)
		if err != nil {
			return tracedPair{}, err
		}
		localJob = b
		bm, bds := b.Augmented, b.AugmentedDataset
		return tracedPair{
			untraced: func() (map[string]*tensor.Tensor, error) {
				_, err := amalgam.Train(ctx, amalgam.LocalTrainer{}, a, sz.trainConfig())
				return nn.StateDict(a.Augmented), err
			},
			job: tracedJob{
				model: bm, n: bds.N(), epochs: sz.Epochs, batch: sz.Batch, shuffle: r.sub(3), opt: sgd,
				gather: func(idx []int) any {
					ids, labels := bds.Batch(idx)
					return textBatch{ids, labels}
				},
				loss: func(b any) (*autodiff.Node, *autodiff.Node) {
					tb := b.(textBatch)
					return bm.Loss(tb.ids, tb.labels)
				},
				eval: func(batch int) float64 { return amalgam.PredictText(bm, bds, batch) },
			},
			state: func() map[string]*tensor.Tensor { return nn.StateDict(bm) },
		}, nil
	}
	st, localWall, err := r.traceTraining(r.budget(0.4), prepare)
	if err != nil {
		return err
	}
	localState := nn.StateDict(localJob.Augmented)

	ex, err := r.spanSample("remote_text/extract", "core.extract", 3, func() error {
		_, err := localJob.ExtractText(r.sub(4))
		return err
	})
	if err != nil {
		return err
	}
	r.layer.putMedian("core.extract_ms", ex)

	// serialize: the checkpoint a remote epoch ships — the trained weights
	// plus SGD momentum for every table.
	momentum, err := optim.Build(sgd, localJob.Augmented.Params())
	if err != nil {
		return err
	}
	nn.ZeroGrads(localJob.Augmented)
	momentum.Step() // zero gradients: allocates the momentum buffers without moving a weight
	if err := r.checkpointProbe(&serialize.TrainCheckpoint{
		Epoch: sz.Epochs, Kind: "augmented-text", State: localState, OptState: momentum.StateDict()}); err != nil {
		return err
	}

	// The wire: the same job over loopback, frames counted at the
	// listener, progress and checkpoint frames timed as they arrive.
	svc, err := startService(cloudsim.ServerConfig{Executors: sz.Executors}, true)
	if err != nil {
		return err
	}
	defer func() { _ = svc.stop() }()
	remoteJob, err := r.textJob(sz)
	if err != nil {
		return err
	}
	req := textRequest(remoteJob, sz, r.sub(3))
	var arrivals []time.Time
	checkpoints := 0
	root := r.tr.begin("remote_text/remote/0", "cloudsim.remote_job", 0)
	t0 := time.Now()
	r.ops(1, 0)
	resp, err := cloudsim.TrainContextNet(ctx, svc.addr, req, cloudsim.StreamHandlers{
		Progress:   func(cloudsim.EpochMetric) { arrivals = append(arrivals, time.Now()) },
		Checkpoint: func(*serialize.TrainCheckpoint) { checkpoints++ },
	}, cloudsim.NetConfig{})
	remoteWall := time.Since(t0)
	r.tr.end(root)
	if err != nil {
		return fmt.Errorf("remote_text: traced remote job: %w", err)
	}
	r.check("remote job streamed exactly Epochs progress frames", len(arrivals) == sz.Epochs && checkpoints == sz.Epochs,
		fmt.Sprintf("%d progress, %d checkpoint frames for %d epochs", len(arrivals), checkpoints, sz.Epochs))
	ok, detail := sameState(resp.State, reference(localState))
	r.check("remote final weights == local traced weights", ok, detail)
	var gaps sample
	prev := t0
	for _, at := range arrivals {
		r.tr.add("remote_text/remote/0", "cloudsim.epoch_gap", root, prev, at)
		gaps.addDurMs(at.Sub(prev))
		prev = at
	}
	r.layer.putMedian("cloudsim.epoch_gap_ms", gaps)
	r.layer.put("cloudsim.retries", 0, 1, 0, "attempts beyond the first; the run injects no fault")
	up, down, upload := svc.wire.totals()
	r.layer.putCount("cloudsim.upload_ms", float64(upload)/float64(time.Millisecond))
	r.logf("  remote job: %.3fs over the wire, local %.3fs", remoteWall.Seconds(), localWall.median())

	build, err := r.spanSample("remote_text/soak", "cloudsim.build_model", 5, func() error {
		_, err := cloudsim.BuildModel(cloudsim.ModelSpec{Kind: "plain-cv", Model: "lenet", InC: 1, OrigH: 12, OrigW: 12, Classes: 2, ModelSeed: 1})
		return err
	})
	if err != nil {
		return err
	}
	r.layer.putMedian("cloudsim.build_model_ms", build)

	soak, err := r.soak(svc.addr, sz, r.budget(0.25))
	if err != nil {
		return err
	}
	r.layer.putMedian("cloudsim.submit_p50_ms", soak.submit)
	r.layer.putMedian("cloudsim.attach_p50_ms", soak.attach)
	p99, pct := soak.e2e.tail()
	r.layer.put("cloudsim.soak_p99_ms", p99, len(soak.e2e), 0, tailNote(pct))
	r.layer.putCount("cloudsim.rejects", float64(soak.rejects))
	up2, down2, _ := svc.wire.totals()
	r.layer.put("cloudsim.bytes_up_mb", float64(up)/1e6, 1, 0, fmt.Sprintf("the remote job; the soak added %.1f MB", float64(up2-up)/1e6))
	r.layer.put("cloudsim.bytes_down_mb", float64(down)/1e6, 1, 0, fmt.Sprintf("the remote job; the soak added %.1f MB", float64(down2-down)/1e6))

	share := st.optim.median() / st.step.median()
	r.layer.putCount("bench.isolated_share", share)
	r.sane("remote_text job isolates optim: optim.step share of a local step >= 0.50", share >= 0.50,
		fmtShare(st.optim.median(), st.step.median()))
	extra := remoteWall.Seconds()/localWall.median() - 1
	r.sane("remote_text job isolates the wire: remote - local >= 0.15 of local", extra >= 0.15,
		fmt.Sprintf("remote %.3fs vs local %.3fs: +%.0f%%", remoteWall.Seconds(), localWall.median(), 100*extra))
	return nil
}

type textBatch struct {
	ids    [][]int
	labels []int
}

// textRequest mirrors the request RemoteTrainer builds for a TextJob under
// WithRetry: the resolved spec, the augmented samples, the client's
// initial weights, streaming on and a checkpoint frame every epoch.
func textRequest(job *amalgam.TextJob, sz remoteSizes, seed uint64) *cloudsim.TrainRequest {
	am, ds := job.Augmented, job.AugmentedDataset
	return &cloudsim.TrainRequest{
		Spec: cloudsim.ModelSpec{
			Kind: "augmented-text", Vocab: am.Orig.Vocab, EmbedDim: am.Orig.EmbedDim, Classes: am.Orig.Classes,
			OrigLen: job.Key.OrigLen, AugLen: job.Key.AugLen, KeyKeep: job.Key.Keep,
			AugAmount: sz.Amount, SubNets: len(am.Decoys), AugSeed: seed,
		},
		Hyper: cloudsim.Hyper{
			Epochs: sz.Epochs, BatchSize: sz.Batch, LR: sz.LR, Momentum: sz.Momentum,
			Shuffle: true, ShuffleSeed: seed, Stream: true, CheckpointEvery: 1,
		},
		Samples: ds.Samples, Labels: ds.Labels, InitState: nn.StateDict(am),
	}
}

// countingListener counts the bytes crossing a listener's connections and
// times each connection's upload, from outside the program: the bench
// hands it to cloudsim.NewServerConfig in place of the raw listener.
type countingListener struct {
	net.Listener
	up, down atomic.Int64
	// upload is the longest accept→last-request-byte interval seen: the
	// time the largest request took to arrive.
	upload atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l, accepted: time.Now()}, nil
}

// totals returns bytes client→server, server→client, and the upload time.
func (l *countingListener) totals() (up, down int64, upload time.Duration) {
	return l.up.Load(), l.down.Load(), time.Duration(l.upload.Load())
}

// countingConn is used by one server-side reader and one writer at a
// time; lastRead is shared between them, hence atomic.
type countingConn struct {
	net.Conn
	l        *countingListener
	accepted time.Time
	lastRead atomic.Int64 // ns since accepted
	wrote    atomic.Bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.l.up.Add(int64(n))
		c.lastRead.Store(int64(time.Since(c.accepted)))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.wrote.CompareAndSwap(false, true) {
		// The first reply marks the end of the request: everything read
		// so far was the upload.
		for d := c.lastRead.Load(); ; {
			cur := c.l.upload.Load()
			if d <= cur || c.l.upload.CompareAndSwap(cur, d) {
				break
			}
		}
	}
	n, err := c.Conn.Write(p)
	c.l.down.Add(int64(n))
	return n, err
}
