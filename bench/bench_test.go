package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the repository-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the tables the
// harness reports from, so neither can drift alone.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if got := strings.Join(b.Command, " "); got != "go run ./bench" {
		t.Errorf("command %q", got)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(contractEndToEndDefs) {
		t.Fatalf("%d end_to_end metrics, harness has %d", len(b.EndToEnd), len(contractEndToEndDefs))
	}
	for i, d := range contractEndToEndDefs {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, harness %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(contractPerLayerNames) {
		t.Fatalf("%d per_layer metrics, harness has %d", len(b.PerLayer), len(contractPerLayerNames))
	}
	for i, name := range contractPerLayerNames {
		d, ok := findDef(perLayer, name)
		if !ok {
			t.Fatalf("contract per-layer metric %q is not in the registry", name)
		}
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, registry %+v", i, got, d)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// smoke runs one workload at -scale smoke through the command's own entry
// point and returns its exit code, contract line and result document.
func smoke(t *testing.T, workload string, trace string) (int, contractLine, *result) {
	t.Helper()
	dir := t.TempDir()
	doc := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"-scale", "smoke", "-out", dir, "-json", doc}, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("%s stderr: %s", workload, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line of stdout is not the contract object: %v\n%s", workload, err, stdout.String())
	}
	var s suite
	if err := readJSON(doc, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Runs) != 1 {
		t.Fatalf("%s: %d runs in the result document", workload, len(s.Runs))
	}
	if code != 0 {
		t.Logf("%s output:\n%s", workload, stdout.String())
	}
	return code, line, s.Runs[0]
}

// TestSmoke runs every workload, untraced and traced, at tiny counts and
// checks what the contract promises: every BENCHMARK.json metric exactly
// once with its unit, every registry metric that applies to the workload
// present, finite, with unit and direction, and every output check green.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				code, line, res := smoke(t, w.name, trace)
				if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, attempted %d, failed %d; problems %v", code, line.Correct, line.Attempted, line.Failed, res.Problems)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics on the contract line, BENCHMARK.json lists %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					switch {
					case !ok:
						t.Errorf("contract metric %s missing", name)
					case got.Unit != unit:
						t.Errorf("%s has unit %q, want %q", name, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s is not finite", name)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", name, got.Value)
					}
				}

				defs, vals := endToEnd, res.EndToEnd
				if trace == "1" {
					defs, vals = perLayer, res.PerLayer
					if _, err := os.Stat(res.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				applicable := 0
				for _, d := range defs {
					if !d.on(w.name) {
						if _, ok := vals[d.Name]; ok {
							t.Errorf("%s reported on %s, where it does not apply", d.Name, w.name)
						}
						continue
					}
					applicable++
					m, ok := vals[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not reported", d.Name)
					case !metricName.MatchString(d.Name):
						t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
					case m.Unit == "" || (m.Better != "lower" && m.Better != "higher"):
						t.Errorf("%s lacks unit or direction: %+v", d.Name, m)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s is not finite", d.Name)
					case m.N < 1:
						t.Errorf("%s has no sample count", d.Name)
					}
				}
				if len(vals) != applicable {
					t.Errorf("%d metrics reported, %d apply", len(vals), applicable)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %q failed: %s", c.Name, c.Detail)
					}
				}
				if len(res.Checks) == 0 {
					t.Error("no output check ran")
				}
			})
		}
	}
}

// TestCorruptedReferenceFails proves the output checks can fail: with the
// reference deliberately nudged by one bit, every workload must report a
// failed operation and exit non-zero.
func TestCorruptedReferenceFails(t *testing.T) {
	corruptReference = true
	defer func() { corruptReference = false }()
	for _, w := range workloads {
		code, line, _ := smoke(t, w.name, "0")
		if code == 0 || line.Correct || line.Failed == 0 {
			t.Errorf("%s: exit %d, correct %v, failed %d with a corrupted reference", w.name, code, line.Correct, line.Failed)
		}
	}
	if code, line, _ := smoke(t, wLM, "1"); code == 0 || line.Correct {
		t.Errorf("traced %s: exit %d, correct %v with a corrupted reference", wLM, code, line.Correct)
	}
}

func TestVerdict(t *testing.T) {
	m := func(v, spread float64, better string) measured {
		return measured{Value: v, Better: better, Bound: 0.10, Spread: spread}
	}
	for _, c := range []struct {
		a, b measured
		want string
	}{
		{m(1, 0.01, "lower"), m(1.05, 0.01, "lower"), "unchanged"},
		{m(1, 0.01, "lower"), m(1.2, 0.01, "lower"), "REGRESSED"},
		{m(1, 0.01, "lower"), m(0.8, 0.01, "lower"), "improved"},
		{m(100, 0.01, "higher"), m(80, 0.01, "higher"), "REGRESSED"},
		{m(100, 0.01, "higher"), m(120, 0.01, "higher"), "improved"},
		// Spread wider than the bound: the runs cannot resolve the change.
		{m(1, 0.2, "lower"), m(1.2, 0.01, "lower"), "unresolved"},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %q, want %q", c.a.Value, c.b.Value, c.a.Better, got, c.want)
		}
	}
}

func TestSampleStatistics(t *testing.T) {
	s := sample{4, 1, 3, 2, 5}
	if got := s.median(); got != 3 {
		t.Errorf("median %v", got)
	}
	if got := s.spread(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("spread %v, want IQR 2 over median 3", got)
	}
	var big sample
	for i := 1; i <= 1000; i++ {
		big.add(float64(i))
	}
	if _, pct := big.tail(); pct != 99 {
		t.Errorf("1000 samples support p%v, want p99", pct)
	}
	if _, pct := big[:100].tail(); pct != 90 {
		t.Errorf("100 samples support p%v, want p90", pct)
	}
	if v := (sample{}).median(); !math.IsNaN(v) {
		t.Errorf("empty median %v, want NaN", v)
	}
}

// TestTracerSelfTime checks self time = duration minus child coverage,
// with overlapping children counted once.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
	}
	spans, summary := tr.finish()
	if spans[0].Self != 50 {
		t.Errorf("parent self %d, want 50", spans[0].Self)
	}
	for _, s := range summary {
		if s.Name == "child" && (s.Count != 2 || s.TotalNs != 60) {
			t.Errorf("child summary %+v", s)
		}
	}
}
