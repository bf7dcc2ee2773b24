package main

import (
	"fmt"
	"runtime"
	"time"

	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/data"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// arm is one side of an interleaved comparison: a complete job through
// the public API, returning the weights the output check compares.
type arm func() (map[string]*tensor.Tensor, error)

// pair is the freshly set-up input of one repetition. base is the
// reference arm (plain / local) and test the arm under test (augmented /
// remote); both do the same training work on the same generated data, so
// their final weights must agree bit-for-bit.
type pair struct {
	base, test arm
	// extract re-runs the test arm's extraction on its trained job — the
	// fixed-cost operation sampled after the arms (nil when the workload
	// has none).
	extract func() error
	cleanup func()
}

// pairTimes are the samples runPairs gathers.
type pairTimes struct {
	setup, base, test, ratio sample
	last                     pair
}

// runPairs repeats prepare → both arms until the time budget is spent,
// alternating which arm goes first (A B B A …) so drift hits both alike,
// and checks every pair's outputs. The ratio is taken per pair, then the
// median across pairs: a slow stretch of the machine then cancels inside
// the pair instead of landing on one arm.
func (r *run) runPairs(budget time.Duration, baseName, testName string, prepare func() (pair, error)) (*pairTimes, error) {
	pt := &pairTimes{}
	var spent time.Duration
	for rep := 0; ; rep++ {
		// Pairs come in twos (A B, B A) so each arm goes first equally
		// often; another two start only if the budget has room for both.
		if r.smoke && rep == 1 {
			break
		}
		if rep >= 2 && rep%2 == 0 && spent+2*spent/time.Duration(rep) > budget {
			break
		}
		if pt.last.cleanup != nil {
			pt.last.cleanup()
		}
		t0 := time.Now()
		p, err := prepare()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up of pair %d: %w", r.workload, rep, err)
		}
		pt.setup.addDur(time.Since(t0))
		pt.last = p

		// A collection before each arm, outside its timing: both arms then
		// start from a clean heap instead of inheriting the other's garbage.
		arms := []arm{p.base, p.test}
		var states [2]map[string]*tensor.Tensor
		var durs [2]time.Duration
		for _, i := range [][]int{{0, 1}, {1, 0}}[rep%2] {
			runtime.GC()
			r.ops(1, 0)
			t := time.Now()
			if states[i], err = arms[i](); err != nil {
				return nil, fmt.Errorf("%s: pair %d: %w", r.workload, rep, err)
			}
			durs[i] = time.Since(t)
		}
		baseState, testState, baseDur, testDur := states[0], states[1], durs[0], durs[1]
		spent += baseDur + testDur
		pt.base.addDur(baseDur)
		pt.test.addDur(testDur)
		pt.ratio.add(testDur.Seconds() / baseDur.Seconds())
		ok, detail := sameState(testState, reference(baseState))
		r.check(fmt.Sprintf("pair %d: %s weights == %s weights", rep, testName, baseName), ok, detail)
		r.logf("  pair %d: %s %.3fs  %s %.3fs  ratio %.4f", rep, baseName, baseDur.Seconds(), testName, testDur.Seconds(),
			testDur.Seconds()/baseDur.Seconds())
		if rep == 0 {
			r.markPeakRSS()
		}
	}
	return pt, nil
}

// sampleExtract times the pair's extraction repeatedly for the budget.
func (r *run) sampleExtract(budget time.Duration, p pair) (sample, error) {
	var s sample
	minN := 5
	if r.smoke {
		minN = 2
	}
	start := time.Now()
	for len(s) < minN || (!r.smoke && time.Since(start) < budget) {
		// From a clean heap, as the arms are: an extraction that happens
		// to overlap a collection of the arms' garbage takes twice as long.
		runtime.GC()
		t0 := time.Now()
		r.ops(1, 0)
		if err := p.extract(); err != nil {
			return nil, fmt.Errorf("%s: extract: %w", r.workload, err)
		}
		s.addDurMs(time.Since(t0))
	}
	return s, nil
}

// tracedJob is what the bench's own epoch loop needs from a job: the same
// model, data and step pieces cloudsim.TrainLoop drives, reached through
// each layer's public functions so every call can carry a span.
type tracedJob struct {
	model   cloudsim.Trainable
	n       int
	epochs  int
	batch   int
	shuffle uint64
	opt     optim.OptimSpec
	// gather materialises one mini-batch (ds.Batch / ws.Batch).
	gather func(idx []int) any
	// loss builds the joint-loss graph for a batch (am.Loss / LossWindows).
	loss func(batch any) (total, orig *autodiff.Node)
	// eval is the per-epoch training-set accuracy pass (Engine.TrainAcc).
	eval func(batch int) float64
}

// stepTimes are the per-step / per-epoch samples of one or more traced
// loops, in milliseconds.
type stepTimes struct {
	gather, zero, forward, backward, optim, release, step, eval sample
	poolHit, poolMiss, mallocs                                  sample
}

// tracedTrainLoop is the bench's copy of cloudsim.TrainLoop: the same
// calls in the same order — data.ShuffleRNG/BatchIter → Batch →
// nn.ZeroGrads → Loss → autodiff.Backward → opt.Step → autodiff.Release →
// TrainAcc — with a span around each. Callers prove it is the same
// computation by comparing its final weights with an untraced
// amalgam.Train run bit-for-bit.
func tracedTrainLoop(tr *tracer, traceID string, j tracedJob, st *stepTimes) error {
	j.model.SetTraining(true)
	opt, err := optim.Build(j.opt, j.model.Params())
	if err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	root := tr.begin(traceID, "cloudsim.train_loop", 0)
	for e := 0; e < j.epochs; e++ {
		ep := tr.begin(traceID, "cloudsim.epoch", root)
		hits0, miss0 := tensor.PoolStats()
		mallocs0 := mallocs()
		batches := data.BatchIter(j.n, j.batch, data.ShuffleRNG(j.shuffle, e))
		for _, idx := range batches {
			sp := tr.begin(traceID, "cloudsim.step", ep)

			s := tr.begin(traceID, "data.gather", sp)
			b := j.gather(idx)
			st.gather.add(ms(tr.end(s)))

			s = tr.begin(traceID, "nn.zero_grads", sp)
			nn.ZeroGrads(j.model)
			st.zero.add(ms(tr.end(s)))

			s = tr.begin(traceID, "autodiff.forward", sp)
			total, orig := j.loss(b)
			st.forward.add(ms(tr.end(s)))

			s = tr.begin(traceID, "autodiff.backward", sp)
			autodiff.Backward(total)
			st.backward.add(ms(tr.end(s)))

			s = tr.begin(traceID, "optim.step", sp)
			opt.Step()
			st.optim.add(ms(tr.end(s)))

			_ = orig.Scalar()
			s = tr.begin(traceID, "autodiff.release", sp)
			autodiff.Release(total)
			st.release.add(ms(tr.end(s)))

			st.step.add(ms(tr.end(sp)))
		}
		hits1, miss1 := tensor.PoolStats()
		steps := float64(len(batches))
		st.poolHit.add(float64(hits1-hits0) / steps)
		st.poolMiss.add(float64(miss1-miss0) / steps)
		st.mallocs.add(float64(mallocs()-mallocs0) / steps)
		tr.count(ep, "steps", steps)
		tr.count(ep, "pool_hits", float64(hits1-hits0))
		tr.count(ep, "pool_misses", float64(miss1-miss0))

		s := tr.begin(traceID, "cloudsim.eval", ep)
		j.eval(j.batch)
		st.eval.add(ms(tr.end(s)))
		tr.end(ep)
	}
	tr.end(root)
	return nil
}

// tracedPair is one repetition of the traced comparison: two identical
// freshly obfuscated jobs, one run through the public API untraced, one
// through tracedTrainLoop.
type tracedPair struct {
	// untraced trains job A with amalgam.Train and returns its augmented
	// state dict.
	untraced arm
	// job describes job B for the bench's loop; state reads B's augmented
	// state dict afterwards.
	job   tracedJob
	state func() map[string]*tensor.Tensor
}

// traceTraining alternates untraced and traced runs of the same job for
// the budget — the same interleaved pairs as the end-to-end run, with the
// bench's loop as the arm under test — so the weight check proves the
// traced loop is the untraced computation and the pair ratio is the
// tracing overhead. It reports the step anatomy and returns it with the
// untraced wall-clock samples.
func (r *run) traceTraining(budget time.Duration, prepare func() (tracedPair, error)) (*stepTimes, sample, error) {
	st := &stepTimes{}
	rep := 0
	pt, err := r.runPairs(budget, "amalgam.Train", "bench loop", func() (pair, error) {
		tp, err := prepare()
		if err != nil {
			return pair{}, err
		}
		traceID := fmt.Sprintf("%s/traced/%d", r.workload, rep)
		rep++
		return pair{
			base: tp.untraced,
			test: func() (map[string]*tensor.Tensor, error) {
				if err := tracedTrainLoop(r.tr, traceID, tp.job, st); err != nil {
					return nil, err
				}
				return tp.state(), nil
			},
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	r.layer.putMedian("bench.trace_overhead_ratio", pt.ratio)
	r.layer.putMedian("data.gather_ms", st.gather)
	r.layer.putMedian("nn.zero_grads_ms", st.zero)
	r.layer.putMedian("autodiff.forward_ms", st.forward)
	r.layer.putMedian("autodiff.backward_ms", st.backward)
	r.layer.putMedian("optim.step_ms", st.optim)
	r.layer.putMedian("autodiff.release_ms", st.release)
	r.layer.putMedian("cloudsim.step_ms", st.step)
	r.layer.putMedian("cloudsim.eval_ms", st.eval)
	r.layer.putMedian("tensor.pool_hit_per_step", st.poolHit)
	r.layer.putMedian("tensor.pool_miss_per_step", st.poolMiss)
	r.layer.putMedian("autodiff.mallocs_per_step", st.mallocs)
	return st, pt.base, nil
}
