package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"amalgam/internal/tensor"
)

// run is the state of one workload run: the knobs the command line set,
// and everything the workload reports back.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	outDir   string
	log      io.Writer

	tr      *tracer // nil unless traced
	e2e     *metricSet
	layer   *metricSet
	sizes   any // the workload's size struct, as used
	checks  []checkResult
	sanity  []string
	started time.Time
	// peakRSS is VmHWM (MB) at the point markPeakRSS fixed it; 0 until then.
	peakRSS float64

	// attempted/failed count operations: train jobs, soak jobs (admission
	// rejects included), predict requests, and the output checks on them.
	// mu guards them: the batched serve phase counts from several clients.
	mu                sync.Mutex
	attempted, failed int
}

// checkResult is one output check; a failed check fails the command.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newRun(workload string, seed uint64, seconds float64, traced, smoke bool, outDir string, log io.Writer) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced, smoke: smoke,
		outDir: outDir, log: log,
		e2e:     newMetricSet(workload, endToEnd),
		layer:   newMetricSet(workload, perLayer),
		started: time.Now(),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// ops counts n operations, bad of which failed.
func (r *run) ops(n, bad int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.failed += bad
}

// check records an output check; a failing check also counts the
// operation it judged as failed.
func (r *run) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: detail})
	if !ok {
		r.ops(0, 1)
		r.logf("CHECK FAILED %s: %s", name, detail)
	}
}

// sane records a bottleneck-sanity observation: whether the workload is
// still dominated by the layer it claims to isolate. A miss is reported,
// not failed — the remedy is resizing the workload, not relabelling it.
func (r *run) sane(name string, ok bool, detail string) {
	verdict := "ok"
	if !ok {
		verdict = "MISS"
	}
	r.sanity = append(r.sanity, fmt.Sprintf("%s: %s (%s)", name, verdict, detail))
}

// budget splits the run's measuring time: share of --seconds, in seconds.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// rng derives an independent deterministic stream from the run seed; every
// generated input (datasets, token streams, context mixes, tenant
// assignment) comes from one of these.
func (r *run) rng(stream uint64) *tensor.RNG {
	return tensor.NewRNG(r.seed).Split(stream)
}

// sub derives a seed for a generator that takes one.
func (r *run) sub(stream uint64) uint64 {
	return r.seed*0x9e3779b97f4a7c15 + stream
}

// fmtShare renders part/whole for a sanity line.
func fmtShare(part, whole float64) string {
	return fmt.Sprintf("%.3f of %.3f ms = %.2f", part, whole, part/whole)
}

// markPeakRSS fixes peak_rss_mb at the first call: after the warm-up and
// one complete repetition, a fixed amount of work. Read at exit instead,
// the high-water mark would grow with however many repetitions the time
// budget allowed — a faster commit would look like a memory regression.
func (r *run) markPeakRSS() {
	if r.peakRSS != 0 {
		return
	}
	mb, err := peakRSSMB()
	if err != nil {
		r.e2e.errs = append(r.e2e.errs, "peak_rss_mb: "+err.Error())
		return
	}
	r.peakRSS = mb
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// sameState compares two state dicts bit-for-bit and describes the first
// difference.
func sameState(got, want map[string]*tensor.Tensor) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d tensors, want %d", len(got), len(want))
	}
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g, w := got[k], want[k]
		if g == nil {
			return false, "missing tensor " + k
		}
		if len(g.Data) != len(w.Data) {
			return false, fmt.Sprintf("%s has %d elements, want %d", k, len(g.Data), len(w.Data))
		}
		for i := range w.Data {
			if math.Float32bits(g.Data[i]) != math.Float32bits(w.Data[i]) {
				return false, fmt.Sprintf("%s[%d] = %v, want %v", k, i, g.Data[i], w.Data[i])
			}
		}
	}
	return true, fmt.Sprintf("%d tensors identical", len(want))
}

// corruptReference is flipped by the smoke test to prove that a wrong
// reference makes the command fail; nothing else sets it.
var corruptReference bool

// reference returns the dict a check compares against: the dict itself,
// or — under the test hook — a copy with one weight nudged.
func reference(dict map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	if !corruptReference {
		return dict
	}
	out := make(map[string]*tensor.Tensor, len(dict))
	names := make([]string, 0, len(dict))
	for k, v := range dict {
		out[k] = v
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if t := dict[k]; len(t.Data) > 0 {
			c := tensor.FromSlice(append([]float32(nil), t.Data...), t.Shape()...)
			c.Data[0] = math.Float32frombits(math.Float32bits(c.Data[0]) ^ 1)
			out[k] = c
			break
		}
	}
	return out
}

// mallocs reads the cumulative heap-object count. ReadMemStats stops the
// world, so the traced loops read it once per epoch, not per step.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
