package amalgam

import (
	"testing"
	"time"
)

// TestRetryDefaultsAreSharedByTrainerAndPredictor: a zero RetryPolicy gets
// the same delays through WithRetry and NewPredictClient (100ms base, 5s
// cap), and delays a caller set are kept by both.
func TestRetryDefaultsAreSharedByTrainerAndPredictor(t *testing.T) {
	set := RetryPolicy{BaseDelay: 3 * time.Millisecond, MaxDelay: 7 * time.Millisecond}
	for _, c := range []struct {
		pol            RetryPolicy
		base, maxDelay time.Duration
	}{{RetryPolicy{}, 100 * time.Millisecond, 5 * time.Second}, {set, set.BaseDelay, set.MaxDelay}} {
		var o runOptions
		WithRetry(c.pol)(&o)
		p := NewPredictClient("127.0.0.1:1", c.pol).pol // dials lazily: nothing is dialed here
		for _, got := range []RetryPolicy{*o.retry, p} {
			if got.BaseDelay != c.base || got.MaxDelay != c.maxDelay {
				t.Errorf("policy %+v: delays %v/%v, want %v/%v", c.pol, got.BaseDelay, got.MaxDelay, c.base, c.maxDelay)
			}
		}
	}
}
