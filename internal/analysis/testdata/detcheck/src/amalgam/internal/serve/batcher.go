// Package serve is determinism-contracted whole: its batcher coalesces by
// availability, so a latency-budget timer here is a finding like any other.
package serve

import "time"

func armBudget(flush func()) *time.Timer {
	return time.AfterFunc(2*time.Millisecond, flush) // want "detcheck: wall clock leaks into a determinism-contracted package: time.AfterFunc"
}
