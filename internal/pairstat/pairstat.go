// Package pairstat judges a paired performance comparison: n runs of a
// parent build and a change, alternated, each pair measured side by side
// so that a slow stretch of the machine lands in both arms of a pair. It
// works on the log ratio d_i = log(change_i / parent_i) of each pair and
// reports, with no distributional assumption beyond symmetry of d about its
// centre:
//
//   - the Hodges–Lehmann shift: the median of the Walsh averages
//     (d_i + d_j)/2, i ≤ j (Hodges & Lehmann 1963);
//   - the 95 % confidence interval for that shift from the exact null
//     distribution of Wilcoxon's signed-rank statistic (Wilcoxon 1945): the
//     C-th smallest and C-th largest Walsh averages;
//   - the exact two-sided sign-test p of "the change is better as often as
//     worse", ties set aside;
//   - a verdict against the metric's direction and regression bound;
//   - each arm's quartiles, and whether the medians lie further apart than
//     the parent's quartiles do, the spread a gain must clear besides
//     winning nine pairs in ten.
//
// A verdict other than unresolved needs the whole interval on one side, and
// at least 6 pairs: unresolved is not unchanged, it says the n pairs cannot
// tell.
package pairstat

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Level is the nominal coverage of Result's interval. Below 6 pairs even the
// whole range of Walsh averages covers less, 1 − 2⁽¹⁻ⁿ⁾, and the verdict is
// unresolved; Result.Coverage always says what the interval covers.
const Level = 0.95

// Verdict is the judgement of one metric.
type Verdict string

const (
	// Improved: the whole interval is better than no change.
	Improved Verdict = "improved"
	// Regressed: the whole interval is worse than the bound.
	Regressed Verdict = "regressed"
	// Within: the whole interval is worse than no change but within the
	// bound.
	Within Verdict = "within"
	// Unresolved: the interval holds no change, or the bound.
	Unresolved Verdict = "unresolved"
)

// Result is the comparison of n pairs.
type Result struct {
	N int
	// Shift is the Hodges–Lehmann estimate of log(change/parent); Lo and
	// Hi bound it with probability Coverage. exp(Shift) is the ratio.
	Shift, Lo, Hi, Coverage float64
	// Wins and Losses count the pairs where the change is better and
	// worse, in the metric's direction; P is the exact two-sided sign-test
	// p over them.
	Wins, Losses int
	P            float64
	Verdict      Verdict
	// Parent and Change are each arm's first quartile, median and third
	// quartile; ClearsSpread says the medians differ by more than the
	// parent's interquartile distance.
	Parent, Change [3]float64
	ClearsSpread   bool
}

// Compare judges change against parent, pair by pair (parent[i] and
// change[i] ran side by side). lowerIsBetter gives the metric's direction,
// and bound the share by which it may worsen (0.25: 25 %) before it has
// regressed. Every value must be positive and finite.
func Compare(parent, change []float64, lowerIsBetter bool, bound float64) (Result, error) {
	n := len(parent)
	switch {
	case n == 0 || len(change) != n:
		return Result{}, fmt.Errorf("pairstat: %d parent and %d change values, want the same number, at least one", n, len(change))
	case !(bound >= 0) || math.IsInf(bound, 0):
		return Result{}, fmt.Errorf("pairstat: bound %v, want a finite share ≥ 0", bound)
	}
	d := make([]float64, n)
	r := Result{N: n}
	for i := range d {
		a, b := parent[i], change[i]
		if !(a > 0 && b > 0) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return Result{}, errors.New("pairstat: every value must be positive and finite")
		}
		d[i] = math.Log(b / a)
		switch {
		case d[i] == 0:
		case (d[i] < 0) == lowerIsBetter:
			r.Wins++
		default:
			r.Losses++
		}
	}
	walsh := make([]float64, 0, n*(n+1)/2)
	for i := range d {
		for j := i; j < n; j++ {
			walsh = append(walsh, (d[i]+d[j])/2)
		}
	}
	slices.Sort(walsh)
	m := len(walsh)
	r.Shift = (walsh[(m-1)/2] + walsh[m/2]) / 2
	c, tail := signedRankCritical(n)
	r.Lo, r.Hi, r.Coverage = walsh[c-1], walsh[m-c], 1-2*tail
	r.P = signTestP(r.Wins, r.Losses)
	r.Parent, r.Change = quartiles(parent), quartiles(change)
	r.ClearsSpread = math.Abs(r.Change[1]-r.Parent[1]) > r.Parent[2]-r.Parent[0]

	// worse is the interval in the worse-is-positive direction.
	lo, hi := r.Lo, r.Hi
	if !lowerIsBetter {
		lo, hi = -hi, -lo
	}
	switch limit := math.Log1p(bound); {
	case r.Coverage < Level:
		r.Verdict = Unresolved
	case hi < 0:
		r.Verdict = Improved
	case lo > limit:
		r.Verdict = Regressed
	case lo > 0 && hi <= limit:
		r.Verdict = Within
	default:
		r.Verdict = Unresolved
	}
	return r, nil
}

// signedRankCritical returns C, the rank from either end of the sorted Walsh
// averages that bounds the Level interval for n pairs, and the tail
// probability P(T ≤ C−1) of Wilcoxon's signed-rank statistic T under no
// shift: the largest C whose tail is at most (1−Level)/2, or 1 (the whole
// range) when even P(T = 0) is more than that.
func signedRankCritical(n int) (int, float64) {
	counts := signedRankCounts(n)
	total := math.Ldexp(1, n)
	c, tail, cum := 1, counts[0]/total, 0.0
	for t, k := range counts {
		cum += k / total
		if cum > (1-Level)/2 {
			break
		}
		c, tail = t+1, cum
	}
	return c, tail
}

// signedRankCounts returns, for t = 0 … n(n+1)/2, how many of the 2ⁿ sign
// patterns of ranks 1 … n give the positive ranks the sum t.
func signedRankCounts(n int) []float64 {
	counts := make([]float64, n*(n+1)/2+1)
	counts[0] = 1
	top := 0
	for rank := 1; rank <= n; rank++ {
		top += rank
		for t := top; t >= rank; t-- {
			counts[t] += counts[t-rank]
		}
	}
	return counts
}

// signTestP is the exact two-sided sign-test p of wins against losses:
// twice the probability of a split at least as lopsided under a fair coin,
// at most 1. No decided pair gives 1.
func signTestP(wins, losses int) float64 {
	m, k := wins+losses, min(wins, losses)
	var tail float64
	for i := 0; i <= k; i++ {
		tail += binomHalf(m, i)
	}
	return min(1, 2*tail)
}

// binomHalf is C(m, i) / 2^m.
func binomHalf(m, i int) float64 {
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	return math.Exp(lg(m) - lg(i) - lg(m-i) - float64(m)*math.Ln2)
}

// quartiles returns xs's first quartile, median and third quartile,
// interpolated linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		h := p * float64(len(s)-1)
		lo := int(h)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (h-float64(lo))*(s[hi]-s[lo])
	}
	return q
}
