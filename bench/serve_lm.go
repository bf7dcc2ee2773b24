package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/serve"
	"amalgam/internal/tensor"
)

// serveSizes are serve_lm's knobs: BENCH_pr10's toy LM beside a model
// where the kernels dominate, both behind the default PredictServerConfig.
type serveSizes struct {
	Toy            amalgam.TransformerLMConfig `json:"toy"`
	ToyContext     int                         `json:"toy_context"`
	Real           amalgam.TransformerLMConfig `json:"real"`
	RealContext    int                         `json:"real_context"`
	BatchedLengths []int                       `json:"batched_lengths"`
	BatchedPerReq  int                         `json:"batched_contexts_per_request"`
	BatchedConns   int                         `json:"batched_conns"`
	CheckContexts  int                         `json:"check_contexts"`
	Warmup         int                         `json:"warmup_requests"`
	ToyShare       float64                     `json:"toy_share"`
	RealShare      float64                     `json:"real_share"`
	RealRounds     int                         `json:"real_rounds"`
}

func (r *run) serveSizes() serveSizes {
	sz := serveSizes{
		Toy: toyLMConfig, ToyContext: toyContext,
		Real:        amalgam.TransformerLMConfig{Vocab: 2000, D: 256, Heads: 4, FF: 1024, Layers: 2, MaxT: 128, Dropout: 0},
		RealContext: 128, BatchedLengths: []int{64, 128}, BatchedPerReq: 4, BatchedConns: runtime.NumCPU(),
		CheckContexts: 64, Warmup: 32, ToyShare: 0.25, RealShare: 0.75, RealRounds: 6,
	}
	if r.smoke {
		sz.CheckContexts, sz.Warmup, sz.RealRounds = 8, 2, 1
	}
	return sz
}

// lmService is one PredictServer behind a loopback cloudsim.Server.
type lmService struct {
	toy, real *amalgam.TransformerLM
	ps        *amalgam.PredictServer
	svc       *service
	client    *amalgam.PredictClient
	// forwards counts real-model forward passes when the run is traced.
	forwards *countingLM
}

// startLMService is serve_lm's set-up: build both models, start the
// prediction server, register, listen, and dial the client. Traced runs
// additionally register the real model behind a counting forwarder.
func (r *run) startLMService(sz serveSizes) (*lmService, error) {
	s := &lmService{
		toy:  amalgam.BuildLMModel(r.sub(50), sz.Toy),
		real: amalgam.BuildLMModel(r.sub(51), sz.Real),
		ps:   amalgam.NewPredictServer(amalgam.PredictServerConfig{}),
	}
	if err := s.ps.RegisterLM("toy", s.toy, 0); err != nil {
		return nil, err
	}
	if err := s.ps.RegisterLM("real", s.real, 0); err != nil {
		return nil, err
	}
	if r.traced {
		s.forwards = &countingLM{inner: s.real, tr: r.tr}
		if err := s.ps.Backend().RegisterLM("real_traced", s.forwards,
			serve.LMConfig{MaxContext: sz.Real.MaxT, Vocab: sz.Real.Vocab}); err != nil {
			return nil, err
		}
	}
	svc, err := startService(cloudsim.ServerConfig{Infer: s.ps.Backend()}, r.traced)
	if err != nil {
		return nil, err
	}
	s.svc = svc
	s.client = amalgam.NewPredictClient(svc.addr, amalgam.RetryPolicy{})
	// The client dials lazily; one request completes the connection.
	if _, err := s.client.PredictLM(context.Background(), amalgam.PredictLMRequest{Model: "toy", Context: []int{0}}); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *lmService) stop() {
	_ = s.client.Close()
	_ = s.svc.stop()
	s.ps.Close()
}

// contexts draws n contexts of seeded tokens. Lengths cycle through
// lengths in a fixed order, so every seed asks for the same work.
func contexts(rng *tensor.RNG, n, vocab int, lengths []int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, lengths[i%len(lengths)])
		for j := range out[i] {
			out[i][j] = rng.IntN(vocab)
		}
	}
	return out
}

// closedLoop sends one request at a time — the caller waits for each
// reply — for the budget, and returns per-request latencies in ms. Each
// request is one operation; the first failure ends the loop. An empty
// trace id records no spans (the untraced side of a comparison).
func (r *run) closedLoop(budget time.Duration, minN int, trace string, send func(i int) error) (sample, error) {
	tr := r.tr
	if trace == "" {
		tr = nil
	}
	if r.smoke {
		minN, budget = max(2, minN/5), 0
	}
	var lat sample
	start := time.Now()
	for i := 0; i < minN || time.Since(start) < budget; i++ {
		sp := tr.begin(trace, "serve.request", 0)
		t0 := time.Now()
		err := send(i)
		lat.addDurMs(time.Since(t0))
		tr.end(sp)
		if err != nil {
			r.ops(len(lat), 1)
			return lat, err
		}
	}
	r.ops(len(lat), 0)
	return lat, nil
}

// overWire and inProcess are the two ways to ask for one prediction: a
// PredictClient across loopback, or PredictServer.PredictLM from this
// process — the same batcher and workers, no frames.
func (s *lmService) overWire(model string, pool [][]int) func(i int) error {
	return func(i int) error {
		_, err := s.client.PredictLM(context.Background(), amalgam.PredictLMRequest{Model: model, Context: pool[i%len(pool)]})
		return err
	}
}

func (s *lmService) inProcess(model string, pool [][]int) func(i int) error {
	return func(i int) error {
		_, err := s.ps.PredictLM(amalgam.PredictLMRequest{Model: model, Context: pool[i%len(pool)]})
		return err
	}
}

// batchedPhase opens one InferConn per core, each sending
// BatchedPerReq contexts per request with lengths drawn from two sizes —
// two shape queues in the batcher. Returns latencies (ms), contexts per
// second, and how many requests were shed with backpressure.
func (r *run) batchedPhase(s *lmService, sz serveSizes, model string, budget time.Duration) (sample, float64, int, error) {
	ctx := context.Background()
	var (
		mu       sync.Mutex
		all      sample
		firstErr error
		shed     atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < sz.BatchedConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pool := contexts(r.rng(uint64(200+c)), 64*sz.BatchedPerReq, sz.Real.Vocab, sz.BatchedLengths)
			conn, err := cloudsim.DialInfer(ctx, s.svc.addr, cloudsim.NetConfig{})
			if err == nil {
				defer conn.Close()
				var lat sample
				lat, err = r.closedLoop(budget, 10, fmt.Sprintf("serve_lm/batched/%d", c), func(i int) error {
					lo := (i * sz.BatchedPerReq) % len(pool)
					_, err := conn.PredictLM(model, pool[lo:lo+sz.BatchedPerReq], 1)
					if errors.Is(err, serve.ErrOverloaded) {
						shed.Add(1)
					}
					return err
				})
				mu.Lock()
				all = append(all, lat...)
				mu.Unlock()
			}
			if err != nil {
				mu.Lock()
				firstErr = err
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	return all, float64(len(all)*sz.BatchedPerReq) / wall.Seconds(), int(shed.Load()), firstErr
}

// checkPredictions sends a seeded sample of contexts over the wire and
// compares each top-1 token and log-probability with a direct ForwardIDs
// on the same model. The server must be otherwise idle.
func (r *run) checkPredictions(s *lmService, sz serveSizes) error {
	pool := contexts(r.rng(300), sz.CheckContexts, sz.Real.Vocab, sz.BatchedLengths)
	conn, err := cloudsim.DialInfer(context.Background(), s.svc.addr, cloudsim.NetConfig{})
	if err != nil {
		return err
	}
	defer conn.Close()
	bad, detail := 0, ""
	for lo := 0; lo < len(pool); lo += sz.BatchedPerReq {
		hi := min(lo+sz.BatchedPerReq, len(pool))
		got, err := conn.PredictLM("real", pool[lo:hi], 1)
		if err != nil {
			return fmt.Errorf("serve_lm: check request: %w", err)
		}
		for i, c := range pool[lo:hi] {
			tok, lp := directTop1(s.real, c)
			if corruptReference {
				lp = math.Float32frombits(math.Float32bits(lp) ^ 1)
			}
			if got[i].Tokens[0] != tok || math.Float32bits(got[i].LogProbs[0]) != math.Float32bits(lp) {
				bad++
				detail = fmt.Sprintf("context %d: served (%d, %v), direct (%d, %v)", lo+i, got[i].Tokens[0], got[i].LogProbs[0], tok, lp)
			}
		}
	}
	r.ops(len(pool), 0)
	if bad == 0 {
		detail = fmt.Sprintf("%d contexts identical", len(pool))
	}
	r.check("served top-1 id and log-prob == direct ForwardIDs", bad == 0, detail)
	return nil
}

// directTop1 scores one context with a direct eval-mode forward: argmax
// (ties toward the lower id) and its log-softmax, accumulated in float64
// exactly as the server's result fan-out does.
func directTop1(m *amalgam.TransformerLM, ctx []int) (int, float32) {
	out := m.ForwardIDs([][]int{ctx})
	defer autodiff.Release(out)
	vocab := out.Val.Dim(1)
	last := out.Val.Data[(out.Val.Dim(0)-1)*vocab:]
	best := 0
	for i, v := range last {
		if v > last[best] {
			best = i
		}
	}
	var sum float64
	for _, v := range last {
		sum += math.Exp(float64(v - last[best]))
	}
	lse := float64(last[best]) + math.Log(sum)
	return best, float32(float64(last[best]) - lse)
}

// runServeLM is forward-only use of the kernels and graph code that
// training writes through. toy is graph bookkeeping + batcher wait + wire;
// real is kernel-bound, measured in process and over the wire in
// alternating rounds so the wire's cost is a ratio taken within a round.
// The batched mix (nproc connections, four contexts a request) runs in the
// traced run only: it is bistable — the two connections fall in or out of
// step in the batcher's shape queues — and repeats no better than a fifth,
// so it was demoted from the end-to-end list to per-layer.
func runServeLM(r *run) error {
	sz := r.serveSizes()
	r.sizes = sz
	if r.traced {
		return r.traceServeLM(sz)
	}

	// Set-up several times over, keeping the last service.
	var setup sample
	var s *lmService
	for i := 0; i < 3; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = r.startLMService(sz); err != nil {
			return err
		}
		setup.addDur(time.Since(t0))
	}
	defer s.stop()
	r.e2e.putMedian("setup_s", setup)

	toyPool := contexts(r.rng(201), 256, sz.Toy.Vocab, []int{sz.ToyContext})
	realPool := contexts(r.rng(202), 64, sz.Real.Vocab, []int{sz.RealContext})
	for _, send := range []func(int) error{s.overWire("toy", toyPool), s.overWire("real", realPool)} {
		for i := 0; i < sz.Warmup; i++ {
			if err := send(i); err != nil {
				return err
			}
		}
	}

	toy, err := r.closedLoop(r.budget(sz.ToyShare), 20, "", s.overWire("toy", toyPool))
	if err != nil {
		return err
	}
	var inproc, wire, ratio sample
	per := r.budget(sz.RealShare) / time.Duration(2*sz.RealRounds)
	for round := 0; round < sz.RealRounds; round++ {
		in, err := r.closedLoop(per, 20, "", s.inProcess("real", realPool))
		if err != nil {
			return err
		}
		w, err := r.closedLoop(per, 20, "", s.overWire("real", realPool))
		if err != nil {
			return err
		}
		inproc = append(inproc, in...)
		wire = append(wire, w...)
		ratio.add(w.median() / in.median())
	}
	r.e2e.putMedian("toy_p50_ms", toy)
	r.e2e.putMedian("real_p50_ms", wire)
	r.e2e.putMedian("inproc_p50_ms", inproc)
	r.e2e.putMedian("wire_ratio", ratio)
	return r.checkPredictions(s, sz)
}

// countingLM wraps the real model's forward surface: registered with
// serve.Server.RegisterLM, it sees every coalesced batch the workers run.
type countingLM struct {
	inner  serve.IDForwarder
	tr     *tracer
	calls  atomic.Int64
	rows   atomic.Int64
	busyNs atomic.Int64
}

func (c *countingLM) ForwardIDs(ids [][]int) *autodiff.Node {
	sp := c.tr.begin("serve_lm/server", "serve.forward", 0)
	t0 := time.Now()
	out := c.inner.ForwardIDs(ids)
	c.busyNs.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	c.rows.Add(int64(len(ids)))
	c.tr.count(sp, "batch", float64(len(ids)))
	c.tr.end(sp)
	return out
}

func (c *countingLM) SetTraining(t bool) { c.inner.SetTraining(t) }

// traceServeLM decomposes a prediction: the forward alone, the batcher in
// process, the wire on top; and what the batcher did to the batched phase.
func (r *run) traceServeLM(sz serveSizes) error {
	r.kernelProbes()
	toyUs := r.toyForwardProbe()

	s, err := r.startLMService(sz)
	if err != nil {
		return err
	}
	defer s.stop()
	toyPool := contexts(r.rng(201), 256, sz.Toy.Vocab, []int{sz.ToyContext})
	realPool := contexts(r.rng(202), 64, sz.Real.Vocab, []int{sz.RealContext})
	for i := 0; i < sz.Warmup; i++ {
		autodiff.Release(s.real.ForwardIDs([][]int{realPool[i%len(realPool)]}))
	}

	// The forward alone: no server, no batcher, no wire.
	n := 30
	if r.smoke {
		n = 3
	}
	var fwd, rel, direct sample
	hits0, miss0 := tensor.PoolStats()
	mallocs0 := mallocs()
	for i := 0; i < n; i++ {
		sp := r.tr.begin("serve_lm/direct", "autodiff.forward", 0)
		t0 := time.Now()
		out := s.real.ForwardIDs([][]int{realPool[i%len(realPool)]})
		fwd.addDurMs(r.tr.end(sp))
		sp = r.tr.begin("serve_lm/direct", "autodiff.release", 0)
		autodiff.Release(out)
		rel.addDurMs(r.tr.end(sp))
		direct.addDurMs(time.Since(t0))
	}
	hits1, miss1 := tensor.PoolStats()
	r.layer.putCount("autodiff.mallocs_per_step", float64(mallocs()-mallocs0)/float64(n))
	r.layer.putCount("tensor.pool_hit_per_step", float64(hits1-hits0)/float64(n))
	r.layer.putCount("tensor.pool_miss_per_step", float64(miss1-miss0)/float64(n))
	r.layer.putMedian("autodiff.forward_ms", fwd)
	r.layer.putMedian("autodiff.release_ms", rel)
	r.layer.putMedian("serve.direct_forward_ms", direct)

	// In process: the batcher and a worker, no wire.
	inproc, err := r.closedLoop(r.budget(0.1), 20, "serve_lm/inproc/0", s.inProcess("real", realPool))
	if err != nil {
		return err
	}
	r.layer.putMedian("serve.inproc_p50_ms", inproc)

	// Over the wire, untraced model against the counting one, alternating.
	var plain, traced sample
	for round := 0; round < 2; round++ {
		p, err := r.closedLoop(r.budget(0.1), 20, "", s.overWire("real", realPool))
		if err != nil {
			return err
		}
		t, err := r.closedLoop(r.budget(0.1), 20, fmt.Sprintf("serve_lm/real/%d", round), s.overWire("real_traced", realPool))
		if err != nil {
			return err
		}
		plain = append(plain, p...)
		traced = append(traced, t...)
	}
	r.layer.put("bench.trace_overhead_ratio", traced.median()/plain.median(), len(traced), 0, "")
	p99, pct := traced.tail()
	r.layer.put("serve.real_p99_ms", p99, len(traced), 0, tailNote(pct))

	// The wire: on the toy model both paths wait out the same batcher
	// delay and the forward is microseconds, so over-the-wire minus
	// in-process is frames + loopback + PredictClient. (On the real model
	// the same difference drowns in the forward's run-to-run noise.)
	var toyWire, toyInproc sample
	for round := 0; round < 2; round++ {
		in, err := r.closedLoop(r.budget(0.05), 20, fmt.Sprintf("serve_lm/toy_inproc/%d", round), s.inProcess("toy", toyPool))
		if err != nil {
			return err
		}
		w, err := r.closedLoop(r.budget(0.05), 20, fmt.Sprintf("serve_lm/toy/%d", round), s.overWire("toy", toyPool))
		if err != nil {
			return err
		}
		toyInproc = append(toyInproc, in...)
		toyWire = append(toyWire, w...)
	}
	r.layer.put("serve.wire_us", 1000*(toyWire.median()-toyInproc.median()), len(toyWire), 0, "toy e2e p50 - toy in-process p50")
	p99, pct = toyWire.tail()
	r.layer.put("serve.toy_p99_ms", p99, len(toyWire), 0, tailNote(pct))

	calls0, rows0, busy0 := s.forwards.calls.Load(), s.forwards.rows.Load(), s.forwards.busyNs.Load()
	t0 := time.Now()
	batched, ctxPerS, shed, err := r.batchedPhase(s, sz, "real_traced", r.budget(0.25))
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	calls := s.forwards.calls.Load() - calls0
	r.layer.putMedian("serve.batched_p50_ms", batched)
	r.layer.put("serve.batched_ctx_per_s", ctxPerS, len(batched), 0, "")
	p99, pct = batched.tail()
	r.layer.put("serve.batched_p99_ms", p99, len(batched), 0, tailNote(pct))
	r.layer.putCount("serve.forward_calls", float64(calls))
	r.layer.putCount("serve.mean_batch", float64(s.forwards.rows.Load()-rows0)/float64(calls))
	r.layer.put("serve.forward_busy_share", float64(s.forwards.busyNs.Load()-busy0)/float64(wall), 1, 0, "summed forward time / phase wall; two workers can exceed 1")
	r.layer.putCount("serve.shed", float64(shed))
	up, down, _ := s.svc.wire.totals()
	r.layer.putCount("cloudsim.bytes_up_mb", float64(up)/1e6)
	r.layer.putCount("cloudsim.bytes_down_mb", float64(down)/1e6)

	share := direct.median() / plain.median()
	r.layer.putCount("bench.isolated_share", share)
	r.sane("serve_lm real isolates the kernels: direct forward share of e2e p50 >= 0.50", share >= 0.50,
		fmtShare(direct.median(), plain.median()))
	r.sane("serve_lm toy isolates bookkeeping: real direct forward >= 50x toy forward", direct.median()*1000 >= 50*toyUs,
		fmt.Sprintf("real %.3f ms vs toy %.1f us: %.0fx", direct.median(), toyUs, direct.median()*1000/toyUs))
	return r.checkPredictions(s, sz)
}
