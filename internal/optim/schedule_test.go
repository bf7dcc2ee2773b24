package optim

import (
	"math"
	"testing"
)

// TestCosineLRSchedule is the golden LR-decay table for the cosine
// schedule: half a cosine from base 1.0 to min 0.1 over 4 epochs, then
// clamped to the floor.
func TestCosineLRSchedule(t *testing.T) {
	sched := ScheduleSpec{Kind: SchedCosine, Period: 4, MinLR: 0.1}
	want := []float64{
		1.0,                // e=0: full base rate
		0.8681980515339464, // e=1: 0.1 + 0.45·(1+cos(π/4))
		0.55,               // e=2: midpoint
		0.2318019484660537, // e=3: 0.1 + 0.45·(1−cos(π/4))
		0.1,                // e=4: floor reached
		0.1,                // e=5: clamped
		0.1,                // e=6: clamped
	}
	for e := range want {
		if lr := sched.Rate(1.0, e); math.Abs(lr-want[e]) > 1e-12 {
			t.Fatalf("cosine epoch %d lr = %v, want %v", e, lr, want[e])
		}
	}
}
