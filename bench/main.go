// Command bench is the repository's one performance harness: four fixed
// workloads, the paper's overhead ratio end to end, and every layer timed
// from outside. BENCHMARK.json at the repository root describes it to the
// driver; bench/README.md is the glossary.
//
//	go run ./bench -workload cv_local -seed 1 -seconds 20 -trace 0   # one workload (the driver's form)
//	go run ./bench -workload all -seed 1 -json out.json              # every workload, each in a fresh process
//	go run ./bench -workload all -trace 1                            # the traced run: per-layer numbers
//	go run ./bench -agree                                            # two suites, same seed, must agree within bounds
//	go run ./bench -compare a.json b.json                            # one row per workload x metric
//
// Every input is generated from -seed; the program under test receives
// only generated inputs. Output checks are part of the run: a failed
// check makes the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// workload couples a name with why it exists and the function that runs
// it. The whys are BENCHMARK.json's, verbatim.
type workload struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workload{
	{wCV, "Paper's headline model: plain vs obfuscated resnet18 step; ~80% matmul+im2col, so tensor kernels dominate and wire, bookkeeping and optimiser barely register.", runCVLocal},
	{wLM, "Transformer LM under Adam: mid-size and per-head matmuls plus softmax/LayerNorm/embedding; where augmentation actually costs, so core/autodiff changes show in overhead_ratio here.", runLMLocal},
	{wRemote, "Kernels idle: SGD over three 20000x64 tables locally, checkpoint frames per epoch remotely, then a soak of tiny jobs (dial, spec, BuildModel, queue, attach). Guards protocol/format work.", runRemoteText},
	{wServe, "Forward-only serving: toy LM (graph bookkeeping + batcher wait + wire) and a kernel-bound d256/ctx128 LM in process vs over the wire; traced, a batched mix that exposes the batcher.", runServeLM},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    string
	jsonPath string
	outDir   string
	agree    bool
	compare  bool
	args     []string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "cv_local, lm_local, remote_text, serve_lm, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring time per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke (tiny counts, same code paths)")
	fs.StringVar(&o.jsonPath, "json", "", "write the full result document here")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files")
	fs.BoolVar(&o.agree, "agree", false, "run the suite twice and compare end-to-end metrics against their bounds")
	fs.BoolVar(&o.compare, "compare", false, "compare two result documents: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.args = fs.Args()
	switch {
	case o.scale != "full" && o.scale != "smoke":
		return nil, fmt.Errorf("unknown -scale %q", o.scale)
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("-trace takes 0 or 1")
	case o.seconds <= 0:
		return nil, fmt.Errorf("-seconds must be positive")
	}
	return o, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain returns the process exit code: 0 when every check passed, 1 on
// a failed check or disagreement, 2 when the harness itself could not run.
func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code, err := dispatch(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}

// dispatch runs the mode the flags chose. A non-nil error means the
// harness could not run; otherwise the code says whether the checks held.
func dispatch(o *options, stdout, stderr io.Writer) (int, error) {
	switch {
	case o.compare:
		if len(o.args) != 2 {
			return 0, fmt.Errorf("-compare takes two result documents")
		}
		return compareFiles(o.args[0], o.args[1], stdout)
	case o.agree:
		return agree(o, stdout, stderr)
	case o.workload == "all":
		doc, code, err := runSuite(o, stdout, stderr)
		if err == nil && o.jsonPath != "" {
			err = writeJSON(o.jsonPath, doc)
		}
		return code, err
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return 0, fmt.Errorf("unknown -workload %q (want %s, %s, %s, %s or all)", o.workload, wCV, wLM, wRemote, wServe)
	}
	res, err := runWorkload(w, o, stdout)
	if err != nil {
		return 0, err
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, &suite{Fingerprint: res.Fingerprint, Runs: []*result{res}}); err != nil {
			return 0, err
		}
	}
	// The contract line goes last.
	fmt.Fprintln(stdout, contractLine{Correct: res.Correct, Attempted: res.OpsAttempted, Failed: res.OpsFailed, Metrics: res.Contract})
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// result is one workload run, as written to -json.
type result struct {
	Workload     string                   `json:"workload"`
	Why          string                   `json:"why"`
	Seed         uint64                   `json:"seed"`
	Seconds      float64                  `json:"seconds"`
	Traced       bool                     `json:"traced"`
	Scale        string                   `json:"scale"`
	Fingerprint  fingerprint              `json:"fingerprint"`
	Sizes        any                      `json:"sizes"`
	EndToEnd     map[string]measured      `json:"end_to_end,omitempty"`
	PerLayer     map[string]measured      `json:"per_layer,omitempty"`
	OpsAttempted int                      `json:"ops_attempted"`
	OpsFailed    int                      `json:"ops_failed"`
	Correct      bool                     `json:"correct"`
	Checks       []checkResult            `json:"checks"`
	Sanity       []string                 `json:"sanity,omitempty"`
	Problems     []string                 `json:"problems,omitempty"`
	Contract     map[string]contractValue `json:"contract"`
	WallSeconds  float64                  `json:"wall_seconds"`
	TraceFile    string                   `json:"trace_file,omitempty"`
}

// suite is the -json document: one machine fingerprint, one or more runs.
type suite struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []*result   `json:"runs"`
}

// runWorkload runs one workload in this process and prints its report.
func runWorkload(w workload, o *options, stdout io.Writer) (*result, error) {
	r := newRun(w.name, o.seed, o.seconds, o.trace == 1, o.scale == "smoke", o.outDir, stdout)
	mode := "end-to-end"
	if r.traced {
		mode = "traced"
	}
	r.logf("== %s (%s, seed %d, %gs, scale %s)", w.name, mode, o.seed, o.seconds, o.scale)
	if err := w.run(r); err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Traced: r.traced, Scale: o.scale,
		Fingerprint: readFingerprint(), Sizes: r.sizes, Checks: r.checks,
	}
	var set *metricSet
	var err error
	if r.traced {
		path, summary, werr := r.tr.write(r.outDir, w.name, o.seed)
		if werr != nil {
			return nil, werr
		}
		res.TraceFile = path
		printSummary(r, summary)
		if m, ok := r.layer.vals["bench.trace_overhead_ratio"]; ok {
			r.sane("tracing costs at most a tenth of the untraced run", m.Value <= 1.10, fmt.Sprintf("ratio %.3f", m.Value))
		}
		set, res.PerLayer = r.layer, r.layer.vals
		res.Contract, err = contractPerLayer(w.name, r.layer.vals)
	} else {
		r.markPeakRSS() // workloads without repetitions mark nothing themselves
		r.e2e.putCount("peak_rss_mb", r.peakRSS)
		set, res.EndToEnd = r.e2e, r.e2e.vals
		res.Contract, err = contractEndToEnd(w.name, r.e2e.vals)
	}
	res.Sanity = r.sanity
	res.Problems = append(res.Problems, set.errs...)
	for _, name := range set.missing() {
		res.Problems = append(res.Problems, "metric "+name+" was not reported")
	}
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	res.OpsAttempted, res.OpsFailed = r.attempted, r.failed+len(res.Problems)
	res.Correct = res.OpsFailed == 0
	res.WallSeconds = time.Since(r.started).Seconds()
	printReport(r, set, res)
	return res, nil
}

func printReport(r *run, set *metricSet, res *result) {
	arrow := map[string]string{"lower": "lower is better", "higher": "higher is better"}
	for _, d := range set.defs {
		m, ok := set.vals[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-28s %14.6g %-8s %s, n=%d", d.Name, m.Value, m.Unit, arrow[m.Better], m.N)
		if m.Bound > 0 {
			line += fmt.Sprintf(", bound %.2f, spread %.3f", m.Bound, m.Spread)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		r.logf("%s", line)
	}
	for _, s := range res.Sanity {
		r.logf("  sanity: %s", s)
	}
	for _, p := range res.Problems {
		r.logf("  PROBLEM: %s", p)
	}
	passed := 0
	for _, c := range res.Checks {
		if c.OK {
			passed++
		}
	}
	r.logf("  ops_attempted %d, ops_failed %d, checks %d/%d passed, wall %.1fs", res.OpsAttempted, res.OpsFailed,
		passed, len(res.Checks), res.WallSeconds)
	if res.TraceFile != "" {
		r.logf("  trace: %s", res.TraceFile)
	}
}

func printSummary(r *run, summary []nameSummary) {
	r.logf("  span                        count     total ms      self ms")
	for _, s := range summary {
		r.logf("  %-26s %6d %12.2f %12.2f", s.Name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6)
	}
}

// runSuite runs every workload in a fresh process (so peak_rss_mb is per
// workload): the command re-executes itself once per workload and gathers
// the children's result documents.
func runSuite(o *options, stdout, stderr io.Writer) (*suite, int, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, 0, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "suite-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)
	doc := &suite{Fingerprint: readFingerprint()}
	code := 0
	for _, w := range workloads {
		path := filepath.Join(tmp, w.name+".json")
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-scale", o.scale, "-out", o.outDir, "-json", path)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			if _, failed := err.(*exec.ExitError); !failed {
				return nil, 0, err
			}
			code = 1
		}
		var child suite
		if err := readJSON(path, &child); err != nil {
			return nil, 0, fmt.Errorf("%s produced no result: %w", w.name, err)
		}
		doc.Runs = append(doc.Runs, child.Runs...)
	}
	return doc, code, nil
}

func writeJSON(path string, v any) error {
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
