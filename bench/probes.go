package main

import (
	"bytes"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/nn"
	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// probeFor repeats fn for about d (at least minN times) and returns the
// per-call durations in seconds, after a fifth of d spent warming up.
func probeFor(d time.Duration, minN int, fn func()) sample {
	for start := time.Now(); time.Since(start) < d/5; {
		fn()
	}
	var s sample
	start := time.Now()
	for len(s) < minN || time.Since(start) < d {
		t0 := time.Now()
		fn()
		s.addDur(time.Since(t0))
	}
	return s
}

// gflops turns per-call seconds into a GFLOP/s sample set.
func gflops(flops float64, secs sample) sample {
	return secs.each(func(s float64) float64 { return flops / s / 1e9 })
}

// span runs fn inside a root span and returns how long it took.
func (r *run) span(trace, name string, fn func() error) (time.Duration, error) {
	sp := r.tr.begin(trace, name, 0)
	err := fn()
	return r.tr.end(sp), err
}

// spanSample runs fn n times, each inside a root span, and returns the
// durations in milliseconds.
func (r *run) spanSample(trace, name string, n int, fn func() error) (sample, error) {
	var s sample
	for i := 0; i < n; i++ {
		d, err := r.span(trace, name, fn)
		if err != nil {
			return nil, err
		}
		s.addDurMs(d)
	}
	return s, nil
}

// reportAugmentation records core's set-up costs: how long the dataset
// and model augmenters took and how much they added.
func (r *run) reportAugmentation(data, model time.Duration, origBytes, augBytes int64, origParams, augParams int) {
	r.layer.putCount("core.augment_data_s", data.Seconds())
	r.layer.putCount("core.augment_model_s", model.Seconds())
	r.layer.putCount("core.aug_bytes_ratio", float64(augBytes)/float64(origBytes))
	r.layer.putCount("core.aug_params_ratio", float64(augParams)/float64(origParams))
	r.layer.putCount("optim.params_m", float64(augParams)/1e6)
}

// achievedGFLOPs times forward+backward of a plain model's step against
// the architecture's computed FLOPs (backward counted as twice forward).
func (r *run) achievedGFLOPs(model interface{ Params() []nn.Param }, stepFLOPs float64, reps int, loss func() *autodiff.Node) {
	if r.smoke {
		reps = 1
	}
	var gf sample
	for i := 0; i < reps; i++ {
		nn.ZeroGrads(model)
		t0 := time.Now()
		l := loss()
		autodiff.Backward(l)
		gf.add(stepFLOPs / time.Since(t0).Seconds() / 1e9)
		autodiff.Release(l)
	}
	r.layer.put("tensor.achieved_gflops", gf.median(), len(gf), gf.spread(), "FLOPs computed from the architecture, plain model")
}

// kernelProbes measures the matmul family at fixed shapes, the same on
// every workload, so a kernel change shows as a GFLOP/s change beside the
// workloads it should and should not move. FLOPs are computed (2·m·k·n).
func (r *run) kernelProbes() {
	d := 150 * time.Millisecond
	if r.smoke {
		d = 10 * time.Millisecond
	}
	rng := r.rng(0x70726f6265) // "probe"
	fill := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		tensor.NormalInit(rng, t, 1)
		return t
	}
	const n = 256
	a, b, out := fill(n, n), fill(n, n), tensor.New(n, n)
	flops := 2.0 * n * n * n
	r.layer.putMedian("tensor.matmul_gflops", gflops(flops, probeFor(d, 5, func() { tensor.MatMulInto(out, a, b) })))
	r.layer.putMedian("tensor.matmul_bt_gflops", gflops(flops, probeFor(d, 5, func() { tensor.MatMulBTInto(out, a, b) })))
	r.layer.putMedian("tensor.matmul_at_gflops", gflops(flops, probeFor(d, 5, func() { tensor.MatMulATInto(out, a, b) })))
	// Per-head attention shape: [T=64, d_head=32] × [32, 64].
	q, k, att := fill(64, 32), fill(32, 64), tensor.New(64, 64)
	r.layer.putMedian("tensor.matmul_attn_gflops",
		gflops(2.0*64*32*64, probeFor(d, 50, func() { tensor.MatMulInto(att, q, k) })))
}

// toyLMConfig is BENCH_pr10.json's serving model, kept as the repo's
// "almost pure graph bookkeeping" probe.
var toyLMConfig = amalgam.TransformerLMConfig{Vocab: 50, D: 8, Heads: 2, FF: 16, Layers: 2, MaxT: 6, Dropout: 0.1}

const toyContext = 4

// toyForwardProbe times a direct batch-1 ForwardIDs+Release on the toy LM:
// the cost of building and tearing down a graph when the kernels have
// next to nothing to do. Returns the median in microseconds.
func (r *run) toyForwardProbe() float64 {
	lm := amalgam.BuildLMModel(r.sub(50), toyLMConfig)
	lm.SetTraining(false)
	rng := r.rng(0x746f79) // "toy"
	ctx := [][]int{make([]int, toyContext)}
	for i := range ctx[0] {
		ctx[0][i] = rng.IntN(toyLMConfig.Vocab)
	}
	d := 200 * time.Millisecond
	if r.smoke {
		d = 10 * time.Millisecond
	}
	us := probeFor(d, 100, func() { autodiff.Release(lm.ForwardIDs(ctx)) }).each(func(s float64) float64 { return s * 1e6 })
	r.layer.putMedian("autodiff.toy_forward_us", us)
	return us.median()
}

// checkpointProbe writes and reads back a training checkpoint of the
// job's real state (weights + optimiser buffers) in memory and reports the
// codec's throughput and the encoded size.
func (r *run) checkpointProbe(ck *serialize.TrainCheckpoint) error {
	var buf bytes.Buffer
	var wr, rd sample
	reps := 5
	if r.smoke {
		reps = 2
	}
	for i := 0; i < reps; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := serialize.WriteTrainCheckpoint(&buf, ck); err != nil {
			return err
		}
		wr.addDur(time.Since(t0))
		t0 = time.Now()
		if _, err := serialize.ReadTrainCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		rd.addDur(time.Since(t0))
	}
	mb := float64(buf.Len()) / 1e6
	mbps := func(s float64) float64 { return mb / s }
	r.layer.putMedian("serialize.ckpt_write_mbps", wr.each(mbps))
	r.layer.putMedian("serialize.ckpt_read_mbps", rd.each(mbps))
	r.layer.putCount("serialize.ckpt_mb", mb)
	return nil
}
