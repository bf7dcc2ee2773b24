// Command amalgam-pairs runs two builds of the repository benchmark in
// alternating pairs and prints one paired verdict per workload × metric
// (internal/pairstat): each arm's median and quartiles, the Hodges–Lehmann
// ratio change/parent with its 95 % Wilcoxon interval, the pairs won, the
// sign-test p, whether the medians lie further apart than the parent's
// quartiles ("clears", else "inside"), and improved, regressed, within or
// unresolved against the metric's bound.
//
//	go build -o /tmp/parent-bench ./bench    # at the parent commit
//	go build -o /tmp/change-bench ./bench    # at the change
//	amalgam-pairs -parent /tmp/parent-bench -change /tmp/change-bench -workload lm_local -pairs 10 -seeds 1,7
//
// One process runs at a time; pair i runs the parent first when i is even
// and the change first when it is odd, with seed i mod len(seeds). Each run
// is `<bench> -workload W -seed S -json F`, at bench's own run length, and F
// is read as an opaque document: each run's end_to_end metrics with their
// value, better and bound. It exits 1 when a metric regressed past its bound, 2 when a
// run fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"amalgam/internal/pairstat"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, execBench)) }

// metric is one end-to-end value of one run.
type metric struct {
	Value  float64 `json:"value"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// document is what a bench -json file holds that the verdict reads: each
// workload run's end-to-end metrics.
type document struct {
	Runs []benchRun `json:"runs"`
}

type benchRun struct {
	Workload string            `json:"workload"`
	EndToEnd map[string]metric `json:"end_to_end"`
}

// benchFunc runs one bench binary on a workload at a seed and returns its
// -json document.
type benchFunc func(bin, workload string, seed uint64) (*document, error)

func run(args []string, stdout, stderr io.Writer, bench benchFunc) int {
	fs := flag.NewFlagSet("amalgam-pairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "", "bench binary built at the parent commit")
	change := fs.String("change", "", "bench binary built at the change")
	workload := fs.String("workload", "", "the bench workload to run")
	pairs := fs.Int("pairs", 10, "number of alternating pairs")
	seedList := fs.String("seeds", "1", "comma-separated seeds, taken in turn by the pairs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var seeds []uint64
	for _, s := range strings.Split(*seedList, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "amalgam-pairs: seed %q: %v\n", s, err)
			return 2
		}
		seeds = append(seeds, v)
	}
	if *parent == "" || *change == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "amalgam-pairs: -parent, -change, -workload and -pairs ≥ 1 are required")
		return 2
	}
	// values[metric] holds the parent's and the change's value, pair by pair.
	values := map[string]*[2][]float64{}
	meta := map[string]metric{}
	for i := range *pairs {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			bin := []string{*parent, *change}[side]
			doc, err := bench(bin, *workload, seeds[i%len(seeds)])
			if err != nil {
				fmt.Fprintf(stderr, "amalgam-pairs: pair %d, %s: %v\n", i, bin, err)
				return 2
			}
			for _, r := range doc.Runs {
				if r.Workload != *workload {
					continue
				}
				for name, m := range r.EndToEnd {
					if values[name] == nil {
						values[name] = &[2][]float64{}
					}
					values[name][side] = append(values[name][side], m.Value)
					meta[name] = m
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%-12s %-15s %3s %-28s %-28s %7s %-18s %5s %5s %7s %5s %-7s %s\n", "workload", "metric", "n",
		"parent median [q1, q3]", "change median [q1, q3]", "ratio", "95% interval", "cover", "won", "sign p", "bound", "spread", "verdict")
	code := 0
	for _, name := range slices.Sorted(maps.Keys(values)) {
		v, m := values[name], meta[name]
		if len(v[0]) != *pairs || len(v[1]) != *pairs {
			fmt.Fprintf(stderr, "amalgam-pairs: %s is missing from some runs\n", name)
			return 2
		}
		r, err := pairstat.Compare(v[0], v[1], m.Better != "higher", m.Bound)
		if err != nil {
			fmt.Fprintf(stdout, "%-12s %-16s %3d  %v\n", *workload, name, *pairs, err)
			continue
		}
		cleared := "inside"
		if r.ClearsSpread {
			cleared = "clears"
		}
		fmt.Fprintf(stdout, "%-12s %-15s %3d %-28s %-28s %7.4f [%7.4f, %7.4f] %5.3f %2d/%-2d %7.2g %5.2f %-7s %s\n",
			*workload, name, r.N, arm(r.Parent), arm(r.Change), math.Exp(r.Shift), math.Exp(r.Lo), math.Exp(r.Hi),
			r.Coverage, r.Wins, r.N, r.P, m.Bound, cleared, r.Verdict)
		if r.Verdict == pairstat.Regressed {
			code = 1
		}
	}
	return code
}

// arm prints one arm's quartiles as "median [q1, q3]".
func arm(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }

// execBench runs bin in a fresh temporary directory (the -json document
// lands there) and reads the document back.
func execBench(bin, workload string, seed uint64) (*document, error) {
	bin, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "amalgam-pairs")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.json")
	cmd := exec.Command(bin, "-workload", workload, "-seed", fmt.Sprint(seed), "-json", path)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}
