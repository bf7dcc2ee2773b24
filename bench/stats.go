package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample accumulates the per-rep / per-request values behind one reported
// number, so every timing carries its sample count and in-run spread.
type sample []float64

func (s *sample) add(v float64)             { *s = append(*s, v) }
func (s *sample) addDur(d time.Duration)    { s.add(d.Seconds()) }
func (s *sample) addDurMs(d time.Duration)  { s.add(float64(d) / float64(time.Millisecond)) }
func (s sample) sorted() []float64          { c := append([]float64(nil), s...); sort.Float64s(c); return c }
func (s sample) median() float64            { return quantile(s.sorted(), 0.5) }
func (s sample) quantile(q float64) float64 { return quantile(s.sorted(), q) }

// each returns the samples mapped through f (a unit conversion).
func (s sample) each(f func(float64) float64) sample {
	out := make(sample, len(s))
	for i, v := range s {
		out[i] = f(v)
	}
	return out
}

// quantile interpolates linearly between order statistics of an ascending
// slice; an empty slice yields NaN so a missing measurement cannot pass
// for a number.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// spread is the in-run dispersion relative to the median: the
// interquartile range from four samples up, the full range below that.
func (s sample) spread() float64 {
	if len(s) < 2 {
		return 0
	}
	c := s.sorted()
	med := quantile(c, 0.5)
	if med == 0 {
		return 0
	}
	if len(c) < 4 {
		return (c[len(c)-1] - c[0]) / math.Abs(med)
	}
	return (quantile(c, 0.75) - quantile(c, 0.25)) / math.Abs(med)
}

// tail returns the highest percentile that still has at least ten samples
// beyond it (p90 from 100 samples, p99 from 1000, capped at p99.9), with
// the percentile actually used; below twenty samples it falls back to the
// maximum.
func (s sample) tail() (value, pct float64) {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return math.NaN(), 0
	}
	if n < 20 {
		return c[n-1], 100
	}
	pct = 100 * (1 - 10/float64(n))
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if p <= pct {
			pct = p
			break
		}
	}
	return quantile(c, pct/100), pct
}

// tailNote says which percentile tail() settled on.
func tailNote(pct float64) string {
	return fmt.Sprintf("p%g: highest percentile with >=10 samples beyond it", pct)
}
