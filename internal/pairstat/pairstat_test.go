package pairstat

import (
	"math"
	"testing"

	"math/rand/v2"
)

// arms returns n pairs whose log ratios are d: the parent at 100, the change
// at 100·e^d.
func arms(d []float64) (parent, change []float64) {
	for _, v := range d {
		parent, change = append(parent, 100), append(change, 100*math.Exp(v))
	}
	return parent, change
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// TestHandTables checks Compare against results worked out by hand. The
// Walsh averages of ranks 1 … n are sums i + j over 2, so their order
// statistics are counts of pairs per sum; the critical ranks are the
// classic table's (none at n = 5, T ≤ 8 at n = 10, T ≤ 52 at n = 20).
func TestHandTables(t *testing.T) {
	steps := func(n int, scale, offset float64) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = (float64(i+1) - offset) * scale
		}
		return d
	}
	for _, tc := range []struct {
		name                 string
		d                    []float64
		lowerIsBetter        bool
		shift, lo, hi, cover float64
		wins, losses         int
		p                    float64
		verdict              Verdict
	}{
		// Sums 2 … 10: the median Walsh average is 3, and with no critical
		// rank the interval is the whole range, covering 1 − 2/32 < 0.95:
		// too few pairs for a verdict.
		{"n=5/too-few-pairs", steps(5, 0.01, 0), true, 0.03, 0.01, 0.05, 1 - 2.0/32, 0, 5, 2.0 / 32, Unresolved},
		// The 9th smallest sum is 6 and the 28th 11; P(T ≤ 8) = 25/1024.
		{"n=10/all-better", steps(10, -0.01, 0), true, -0.055, -0.08, -0.03, 1 - 50.0/1024, 10, 0, 2.0 / 1024, Improved},
		// Higher is better, one tie (k = 5), four losses. The 53rd
		// smallest sum is 15, the median 21; P(Bin(19, ½) ≤ 4) =
		// 5036/2¹⁹.
		{"n=20/higher-better-mixed", steps(20, 0.001, 5), false, 0.0055, 0.0025, 0.0085, 0.9516, 15, 4, 2 * 5036.0 / (1 << 19), Improved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, change := arms(tc.d)
			r, err := Compare(parent, change, tc.lowerIsBetter, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if !near(r.Shift, tc.shift) || !near(r.Lo, tc.lo) || !near(r.Hi, tc.hi) {
				t.Errorf("shift %v [%v, %v], want %v [%v, %v]", r.Shift, r.Lo, r.Hi, tc.shift, tc.lo, tc.hi)
			}
			if math.Abs(r.Coverage-tc.cover) > 1e-4 {
				t.Errorf("coverage %v, want %v", r.Coverage, tc.cover)
			}
			if q := r.Change; len(tc.d) == 5 && (!near(q[0], 100*math.Exp(0.02)) || !near(q[1], 100*math.Exp(0.03)) || !near(q[2], 100*math.Exp(0.04))) {
				t.Errorf("change quartiles %v, want 100·e^{0.02, 0.03, 0.04}", q)
			}
			if r.Parent != [3]float64{100, 100, 100} || !r.ClearsSpread {
				t.Errorf("parent quartiles %v, clears spread %v: want all 100, true", r.Parent, r.ClearsSpread)
			}
			if r.N != len(tc.d) || r.Wins != tc.wins || r.Losses != tc.losses || !near(r.P, tc.p) || r.Verdict != tc.verdict {
				t.Errorf("n %d, wins %d, losses %d, p %v, %s; want %d, %d, %d, %v, %s", r.N, r.Wins, r.Losses, r.P, r.Verdict, len(tc.d), tc.wins, tc.losses, tc.p, tc.verdict)
			}
		})
	}
}

// TestVerdicts walks an interval across zero and the bound.
func TestVerdicts(t *testing.T) {
	bound := 0.25
	for _, tc := range []struct {
		center  float64 // log ratio of the middle pair
		verdict Verdict
	}{
		{-0.3, Improved},
		{0, Unresolved},
		{0.1, Within},
		{math.Log1p(bound), Unresolved},
		{0.5, Regressed},
	} {
		d := []float64{-0.02, -0.01, 0, 0.01, 0.02, -0.015, 0.015, -0.005, 0.005, 0}
		for i := range d {
			d[i] += tc.center
		}
		parent, change := arms(d)
		for _, lower := range []bool{true, false} {
			p, c := parent, change
			if !lower { // the same story with the arms' roles in the metric reversed
				p, c = change, parent
			}
			r, err := Compare(p, c, lower, bound)
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != tc.verdict {
				t.Errorf("centre %v, lower-is-better %v: %s [%v, %v], want %s", tc.center, lower, r.Verdict, r.Lo, r.Hi, tc.verdict)
			}
		}
	}
}

// TestProperties: scaling every change by e^c moves the shift and both
// ends of the interval by c; swapping the arms negates and mirrors them and
// trades wins for losses; from 6 pairs on the interval covers at least
// Level, below that less.
func TestProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for n := 1; n <= 24; n++ {
		parent, change := make([]float64, n), make([]float64, n)
		for i := range parent {
			parent[i] = 50 + 10*rng.Float64()
			change[i] = 45 + 10*rng.Float64()
		}
		r, err := Compare(parent, change, true, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		const c = 0.137
		scaled := make([]float64, n)
		for i, v := range change {
			scaled[i] = v * math.Exp(c)
		}
		s, _ := Compare(parent, scaled, true, 0.1)
		if math.Abs(s.Shift-r.Shift-c) > 1e-9 || math.Abs(s.Lo-r.Lo-c) > 1e-9 || math.Abs(s.Hi-r.Hi-c) > 1e-9 {
			t.Errorf("n=%d: scaling the change by e^%v moved the shift by %v and the interval by %v, %v", n, c, s.Shift-r.Shift, s.Lo-r.Lo, s.Hi-r.Hi)
		}
		w, _ := Compare(change, parent, true, 0.1)
		if math.Abs(w.Shift+r.Shift) > 1e-12 || math.Abs(w.Lo+r.Hi) > 1e-12 || math.Abs(w.Hi+r.Lo) > 1e-12 ||
			w.Wins != r.Losses || w.Losses != r.Wins || w.P != r.P || w.Coverage != r.Coverage {
			t.Errorf("n=%d: swapping the arms gave %+v from %+v", n, w, r)
		}
		if (r.Coverage >= Level) != (n >= 6) {
			t.Errorf("n=%d: coverage %v", n, r.Coverage)
		}
	}
}

// TestOneBuildTwiceIsUnresolved is the negative control: two arms that
// differ only by noise, as two builds of one commit do, resolve no shift.
func TestOneBuildTwiceIsUnresolved(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	parent, change := make([]float64, 10), make([]float64, 10)
	for i := range parent {
		parent[i] = 114 + 2*rng.Float64()
		change[i] = 114 + 2*rng.Float64()
	}
	r, err := Compare(parent, change, true, 0.25)
	if err != nil || r.Verdict != Unresolved || r.ClearsSpread {
		t.Fatalf("%+v, %v: want unresolved", r, err)
	}
}

func TestCompareRefuses(t *testing.T) {
	for _, tc := range []struct {
		parent, change []float64
		bound          float64
	}{
		{nil, nil, 0.1},
		{[]float64{1, 2}, []float64{1}, 0.1},
		{[]float64{1}, []float64{0}, 0.1},
		{[]float64{math.Inf(1)}, []float64{1}, 0.1},
		{[]float64{1}, []float64{math.NaN()}, 0.1},
		{[]float64{1}, []float64{1}, -0.1},
		{[]float64{1}, []float64{1}, math.NaN()},
	} {
		if _, err := Compare(tc.parent, tc.change, true, tc.bound); err == nil {
			t.Errorf("Compare(%v, %v, bound %v) accepted", tc.parent, tc.change, tc.bound)
		}
	}
}
