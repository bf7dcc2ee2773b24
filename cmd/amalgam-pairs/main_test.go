package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// fakeBench stands in for the two bench binaries: each reads the rss its
// map gives, both about the same ratio, plus a little noise that cycles with
// the call count; it records the order of the runs.
type fakeBench struct {
	calls []string
	rss   map[string]float64
}

func (f *fakeBench) run(bin, workload string, seed uint64) (*document, error) {
	f.calls = append(f.calls, fmt.Sprintf("%s/%d", bin, seed))
	if bin == "broken" {
		return nil, fmt.Errorf("exit status 1")
	}
	noise := float64(len(f.calls)%5) * 0.1
	return &document{Runs: []benchRun{{workload, map[string]metric{
		"peak_rss_mb":    {f.rss[bin] + noise, "lower", 0.25},
		"overhead_ratio": {1.1 + noise/10, "lower", 0.2},
	}}}}, nil
}

func TestPairsAlternateAndJudge(t *testing.T) {
	f := &fakeBench{rss: map[string]float64{"parent": 114, "change": 103}}
	var out, errs bytes.Buffer
	code := run([]string{"-parent", "parent", "-change", "change", "-workload", "lm_local", "-pairs", "6", "-seeds", "1,7"}, &out, &errs, f.run)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	want := "parent/1 change/1 change/7 parent/7 parent/1 change/1 change/7 parent/7 parent/1 change/1 change/7 parent/7"
	if got := strings.Join(f.calls, " "); got != want {
		t.Fatalf("runs %s, want %s", got, want)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 3 || !strings.HasSuffix(rows[2], "improved") || !strings.Contains(rows[2], "peak_rss_mb") || !strings.Contains(rows[1], "overhead_ratio") {
		t.Fatalf("table:\n%s", out.String())
	}
}

func TestRegressionExitsOne(t *testing.T) {
	f := &fakeBench{rss: map[string]float64{"parent": 100, "change": 200}}
	var out, errs bytes.Buffer
	if code := run([]string{"-parent", "parent", "-change", "change", "-workload", "lm_local", "-pairs", "10"}, &out, &errs, f.run); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("exit %d, table:\n%s", code, out.String())
	}
}

func TestFailedRunExitsTwo(t *testing.T) {
	f := &fakeBench{}
	var out, errs bytes.Buffer
	if code := run([]string{"-parent", "broken", "-change", "change", "-workload", "lm_local"}, &out, &errs, f.run); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run([]string{"-parent", "parent", "-workload", "lm_local"}, &out, &errs, f.run); code != 2 {
		t.Fatalf("missing -change: exit %d, want 2", code)
	}
}
