package main

import (
	"fmt"
	"math"
)

// The four workloads, in suite order.
const (
	wCV     = "cv_local"
	wLM     = "lm_local"
	wRemote = "remote_text"
	wServe  = "serve_lm"
)

var (
	training = []string{wCV, wLM, wRemote}
	local    = []string{wCV, wLM}
	wired    = []string{wRemote, wServe}
)

// metricDef names one number the harness reports. Every later performance
// claim in this repository is made against these names (bench/README.md
// has the glossary).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -agree / -compare call it a regression. Per-layer
	// metrics carry none.
	Bound float64
	// On lists the workloads that emit the metric; nil means all four.
	On []string
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is measured with tracing off, through the public amalgam API
// (plus cloudsim.RunLocal for the plain CV arm, which has no public
// counterpart). On the shared 2-vCPU sizing box whole minutes run 40%
// slower now and then, which no in-run repetition removes: absolute times
// get the widest bound and are left out of BENCHMARK.json (contract.go);
// ratios, which cancel the drift, get a tighter one. Tail latencies and the
// bistable batched serve phase repeat worse still and are per-layer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, nil},
	{"plain_job_s", "s", "lower", 0.25, local},
	{"aug_job_s", "s", "lower", 0.25, training},
	{"overhead_ratio", "ratio", "lower", 0.20, local},
	{"extract_p50_ms", "ms", "lower", 0.25, local},
	{"peak_rss_mb", "MB", "lower", 0.25, nil},
	{"remote_job_s", "s", "lower", 0.25, []string{wRemote}},
	{"remote_ratio", "ratio", "lower", 0.20, []string{wRemote}},
	{"soak_jobs_per_s", "1/s", "higher", 0.25, []string{wRemote}},
	{"soak_job_p50_ms", "ms", "lower", 0.25, []string{wRemote}},
	{"toy_p50_ms", "ms", "lower", 0.25, []string{wServe}},
	{"real_p50_ms", "ms", "lower", 0.25, []string{wServe}},
	{"inproc_p50_ms", "ms", "lower", 0.25, []string{wServe}},
	{"wire_ratio", "ratio", "lower", 0.20, []string{wServe}},
}

// perLayer is produced by the traced run: spans and counters taken from
// the bench's own files around calls into each layer's public functions.
var perLayer = []metricDef{
	// tensor: fixed-shape kernel probes, identical on every workload.
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_bt_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_at_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_attn_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.achieved_gflops", Unit: "GFLOP/s", Better: "higher", On: local},
	{Name: "tensor.pool_hit_per_step", Unit: "count", Better: "higher"},
	{Name: "tensor.pool_miss_per_step", Unit: "count", Better: "lower"},
	// autodiff: graph build, backward, release.
	{Name: "autodiff.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "autodiff.backward_ms", Unit: "ms", Better: "lower", On: training},
	{Name: "autodiff.release_ms", Unit: "ms", Better: "lower"},
	{Name: "autodiff.mallocs_per_step", Unit: "count", Better: "lower"},
	{Name: "autodiff.toy_forward_us", Unit: "us", Better: "lower"},
	// nn, data, optim.
	{Name: "nn.zero_grads_ms", Unit: "ms", Better: "lower", On: training},
	{Name: "data.gather_ms", Unit: "ms", Better: "lower", On: training},
	{Name: "optim.step_ms", Unit: "ms", Better: "lower", On: training},
	{Name: "optim.params_m", Unit: "Mparams", Better: "lower", On: training},
	// core: augmentation and extraction.
	{Name: "core.augment_data_s", Unit: "s", Better: "lower", On: training},
	{Name: "core.augment_model_s", Unit: "s", Better: "lower", On: training},
	{Name: "core.aug_bytes_ratio", Unit: "ratio", Better: "lower", On: training},
	{Name: "core.aug_params_ratio", Unit: "ratio", Better: "lower", On: training},
	{Name: "core.extract_ms", Unit: "ms", Better: "lower", On: training},
	// cloudsim: the epoch loop, the wire, the scheduler.
	{Name: "cloudsim.step_ms", Unit: "ms", Better: "lower", On: training},
	{Name: "cloudsim.eval_ms", Unit: "ms", Better: "lower", On: training},
	{Name: "cloudsim.build_model_ms", Unit: "ms", Better: "lower", On: training},
	{Name: "serialize.ckpt_write_mbps", Unit: "MB/s", Better: "higher", On: []string{wRemote}},
	{Name: "serialize.ckpt_read_mbps", Unit: "MB/s", Better: "higher", On: []string{wRemote}},
	{Name: "serialize.ckpt_mb", Unit: "MB", Better: "lower", On: []string{wRemote}},
	{Name: "cloudsim.bytes_up_mb", Unit: "MB", Better: "lower", On: wired},
	{Name: "cloudsim.bytes_down_mb", Unit: "MB", Better: "lower", On: wired},
	{Name: "cloudsim.upload_ms", Unit: "ms", Better: "lower", On: []string{wRemote}},
	{Name: "cloudsim.epoch_gap_ms", Unit: "ms", Better: "lower", On: []string{wRemote}},
	{Name: "cloudsim.retries", Unit: "count", Better: "lower", On: []string{wRemote}},
	{Name: "cloudsim.submit_p50_ms", Unit: "ms", Better: "lower", On: []string{wRemote}},
	{Name: "cloudsim.attach_p50_ms", Unit: "ms", Better: "lower", On: []string{wRemote}},
	{Name: "cloudsim.soak_p99_ms", Unit: "ms", Better: "lower", On: []string{wRemote}},
	{Name: "cloudsim.rejects", Unit: "count", Better: "lower", On: []string{wRemote}},
	// serve: batcher and workers.
	{Name: "serve.direct_forward_ms", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "serve.inproc_p50_ms", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "serve.wire_us", Unit: "us", Better: "lower", On: []string{wServe}},
	{Name: "serve.mean_batch", Unit: "count", Better: "higher", On: []string{wServe}},
	{Name: "serve.forward_calls", Unit: "count", Better: "lower", On: []string{wServe}},
	{Name: "serve.forward_busy_share", Unit: "ratio", Better: "higher", On: []string{wServe}},
	{Name: "serve.shed", Unit: "count", Better: "lower", On: []string{wServe}},
	{Name: "serve.toy_p99_ms", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "serve.real_p99_ms", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "serve.batched_p50_ms", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "serve.batched_ctx_per_s", Unit: "1/s", Better: "higher", On: []string{wServe}},
	{Name: "serve.batched_p99_ms", Unit: "ms", Better: "lower", On: []string{wServe}},
	// bench: the harness's own checks on itself.
	{Name: "bench.isolated_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// measured is one reported value with the context needed to judge it.
type measured struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// N is the number of samples behind Value (reps, requests, jobs);
	// Spread their interquartile range over the median.
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
	Note   string  `json:"note,omitempty"`
}

// metricSet collects a run's values against one registry, refusing names
// the registry does not know or that are reported twice.
type metricSet struct {
	workload string
	defs     []metricDef
	vals     map[string]measured
	errs     []string
}

func newMetricSet(workload string, defs []metricDef) *metricSet {
	return &metricSet{workload: workload, defs: defs, vals: map[string]measured{}}
}

// findDef looks a metric up by name.
func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// put records a single value (n samples behind it, spread already known).
func (m *metricSet) put(name string, v float64, n int, spread float64, note string) {
	d, ok := findDef(m.defs, name)
	switch {
	case !ok:
		m.errs = append(m.errs, fmt.Sprintf("metric %q is not in the registry", name))
		return
	case !d.on(m.workload):
		m.errs = append(m.errs, fmt.Sprintf("metric %q does not apply to %s", name, m.workload))
		return
	}
	if _, dup := m.vals[name]; dup {
		m.errs = append(m.errs, fmt.Sprintf("metric %q reported twice", name))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.errs = append(m.errs, fmt.Sprintf("metric %q is not finite (%v)", name, v))
		return
	}
	m.vals[name] = measured{Value: v, Unit: d.Unit, Better: d.Better, Bound: d.Bound, N: n, Spread: spread, Note: note}
}

// putMedian records the median of a sample set.
func (m *metricSet) putMedian(name string, s sample) {
	m.put(name, s.median(), len(s), s.spread(), "")
}

// putCount records an exact count or computed ratio.
func (m *metricSet) putCount(name string, v float64) { m.put(name, v, 1, 0, "") }

// missing lists registry metrics that apply to the workload but were not
// reported.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; d.on(m.workload) && !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
