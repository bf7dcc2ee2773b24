// Package tensor sits on a determinism-contracted import path: detcheck
// flags wall clocks, global RNG state, and map-order dependence here.
package tensor

import (
	"math/rand/v2"
	"time"
)

func wallClock() int64 {
	t := time.Now() // want "detcheck: wall clock leaks into a determinism-contracted package: time.Now"
	return t.Unix()
}

func elapsed(since time.Time) float64 {
	return time.Since(since).Seconds() // want "detcheck: wall clock leaks into a determinism-contracted package: time.Since"
}

func globalRand() int {
	return rand.IntN(10) // want "detcheck: package-global RNG state is unseedable per-job"
}

// Explicitly seeded generators are the sanctioned source of randomness.
func seeded() int {
	r := rand.New(rand.NewPCG(1, 2))
	return r.IntN(10)
}

func mapOrder(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "detcheck: map iteration order is nondeterministic"
		out = append(out, v)
	}
	return out
}

// Slices range deterministically; no finding.
func sliceOrder(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}
