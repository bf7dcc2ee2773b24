package main

import (
	"fmt"
	"io"
	"math"
)

// worseBy is how much b is worse than a, as a share of a, given the
// metric's direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// verdict judges b against a for one bounded metric. A metric whose
// in-run spread on either side exceeds its bound is unresolved, not
// unchanged: the runs cannot tell a regression of that size from noise.
func verdict(a, b measured) string {
	w := worseBy(a.Value, b.Value, a.Better)
	switch {
	case a.Bound == 0:
		return ""
	case math.Max(a.Spread, b.Spread) > a.Bound:
		return "unresolved"
	case w > a.Bound:
		return "REGRESSED"
	case w < -a.Bound:
		return "improved"
	}
	return "unchanged"
}

// eachMetric walks the metrics two documents share, workload by workload,
// in registry order.
func eachMetric(a, b *suite, fn func(workload, name string, ma, mb measured)) {
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Traced != rb.Traced {
				continue
			}
			defs, va, vb := endToEnd, ra.EndToEnd, rb.EndToEnd
			if ra.Traced {
				defs, va, vb = perLayer, ra.PerLayer, rb.PerLayer
			}
			for _, d := range defs {
				ma, oka := va[d.Name]
				mb, okb := vb[d.Name]
				if oka && okb {
					fn(ra.Workload, d.Name, ma, mb)
				}
			}
		}
	}
}

// compareFiles prints one row per workload × metric of two result
// documents (a is the baseline) and fails when a bounded metric regressed.
func compareFiles(pathA, pathB string, stdout io.Writer) (int, error) {
	var a, b suite
	if err := readJSON(pathA, &a); err != nil {
		return 0, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return 0, err
	}
	if a.Fingerprint.CPU != b.Fingerprint.CPU || a.Fingerprint.NumCPU != b.Fingerprint.NumCPU {
		fmt.Fprintf(stdout, "warning: different machines (%s x%d vs %s x%d); timings are not comparable\n",
			a.Fingerprint.CPU, a.Fingerprint.NumCPU, b.Fingerprint.CPU, b.Fingerprint.NumCPU)
	}
	fmt.Fprintf(stdout, "%-12s %-28s %14s %14s %8s  %-6s %5s  %s\n", "workload", "metric", "a", "b", "change", "better", "bound", "verdict")
	code, rows := 0, 0
	eachMetric(&a, &b, func(workload, name string, ma, mb measured) {
		v := verdict(ma, mb)
		if v == "REGRESSED" {
			code = 1
		}
		bound := ""
		if ma.Bound > 0 {
			bound = fmt.Sprintf("%.2f", ma.Bound)
		}
		change := 0.0
		if ma.Value != 0 {
			change = 100 * (mb.Value - ma.Value) / math.Abs(ma.Value)
		}
		fmt.Fprintf(stdout, "%-12s %-28s %14.6g %14.6g %+7.1f%%  %-6s %5s  %s\n", workload, name, ma.Value, mb.Value, change, ma.Better, bound, v)
		rows++
	})
	if rows == 0 {
		return 0, fmt.Errorf("the documents share no workload run of the same kind")
	}
	return code, nil
}

// agree runs the untraced suite twice with the same seed and requires
// every end-to-end metric of the second to be within its own bound of the
// first, in either direction: the same code must agree with itself
// before its numbers are used to judge a change.
func agree(o *options, stdout, stderr io.Writer) (int, error) {
	o.trace = 0
	first, code, err := runSuite(o, stdout, stderr)
	if err != nil {
		return 0, err
	}
	second, code2, err := runSuite(o, stdout, stderr)
	if err != nil {
		return 0, err
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, first); err != nil {
			return 0, err
		}
	}
	code = max(code, code2)
	fmt.Fprintf(stdout, "%-12s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "differ", "bound")
	eachMetric(first, second, func(workload, name string, ma, mb measured) {
		diff := math.Abs(ma.Value-mb.Value) / math.Min(math.Abs(ma.Value), math.Abs(mb.Value))
		flag := ""
		if diff > ma.Bound {
			flag, code = "  BEYOND BOUND", 1
		}
		fmt.Fprintf(stdout, "%-12s %-20s %14.6g %14.6g %7.1f%% %6.2f%s\n", workload, name, ma.Value, mb.Value, 100*diff, ma.Bound, flag)
	})
	return code, nil
}
