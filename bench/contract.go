package main

import (
	"encoding/json"
	"fmt"
)

// The builder's contract (BENCHMARK.json) wants one fixed list of
// end-to-end metrics and one of per-layer metrics, each emitted by every
// workload on the last line of standard output, and it accepts the
// benchmark only if ten runs of each workload spread by less than the
// metric's bound (at most 0.25) and two such sets agree within it. The
// harness's own vocabulary (metrics.go) is per workload — toy_p50_ms means
// nothing on cv_local — and on the shared 2-vCPU sizing box whole minutes
// run 40% slower now and then, so no absolute time repeats that well. The
// contract line is therefore a projection:
//
//   - end to end it carries what every workload has and what survives the
//     machine's mood: set-up time (the contract requires it), the ratio of
//     the arm under test to the baseline arm doing the same work beside it
//     (aug÷plain, remote÷local, wire÷in-process), and peak memory after a
//     fixed amount of work. Absolute times stay in the report, in -json
//     and under -compare/-agree with their own bounds;
//   - the per-layer list keeps the layer metrics that exist on every
//     workload (probes, forward/release, pool and malloc counts) plus
//     counters that are honestly zero where a layer does no work.
//
// bench/README.md says the same to readers.

var contractEndToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, nil},
	{"overhead_ratio", "ratio", "lower", 0.20, nil},
	{"peak_rss_mb", "MB", "lower", 0.25, nil},
}

// contractPerLayerNames are registry names; a count that does not apply
// to a workload is reported as 0 (the layer did nothing there).
var contractPerLayerNames = []string{
	"tensor.matmul_gflops", "tensor.matmul_bt_gflops", "tensor.matmul_at_gflops", "tensor.matmul_attn_gflops",
	"tensor.pool_hit_per_step", "tensor.pool_miss_per_step",
	"autodiff.forward_ms", "autodiff.release_ms", "autodiff.mallocs_per_step", "autodiff.toy_forward_us",
	"optim.params_m",
	"cloudsim.bytes_up_mb", "cloudsim.bytes_down_mb", "cloudsim.retries", "cloudsim.rejects",
	"serve.mean_batch", "serve.forward_calls", "serve.shed",
	"bench.isolated_share", "bench.trace_overhead_ratio",
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractEndToEnd projects a workload's named end-to-end metrics onto
// the contract's three.
func contractEndToEnd(workload string, e2e map[string]measured) (map[string]contractValue, error) {
	ratio := map[string]string{wCV: "overhead_ratio", wLM: "overhead_ratio", wRemote: "remote_ratio", wServe: "wire_ratio"}[workload]
	if ratio == "" {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	out := map[string]contractValue{}
	for _, d := range contractEndToEndDefs {
		name := d.Name
		if name == "overhead_ratio" {
			name = ratio
		}
		m, ok := e2e[name]
		if !ok {
			return nil, fmt.Errorf("%s did not report %s", workload, name)
		}
		out[d.Name] = contractValue{Value: m.Value, Unit: d.Unit}
	}
	return out, nil
}

// contractPerLayer picks the contract's per-layer metrics out of a traced
// run. Only counts may be absent (reported as 0); a missing timing or
// rate is an error, never a zero.
func contractPerLayer(workload string, layer map[string]measured) (map[string]contractValue, error) {
	out := map[string]contractValue{}
	for _, name := range contractPerLayerNames {
		def, _ := findDef(perLayer, name) // the smoke test pins every name to the registry
		m, ok := layer[name]
		if !ok {
			if def.on(workload) {
				return nil, fmt.Errorf("%s did not report %s", workload, name)
			}
			if def.Unit != "count" && def.Unit != "MB" && def.Unit != "Mparams" {
				return nil, fmt.Errorf("%s (%s) does not apply to %s and is not a count", name, def.Unit, workload)
			}
		}
		out[name] = contractValue{Value: m.Value, Unit: def.Unit}
	}
	return out, nil
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

func (c contractLine) String() string {
	js, err := json.Marshal(c)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(js)
}
