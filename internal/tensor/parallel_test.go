package tensor

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForCoversRange verifies every index is visited exactly once
// for worker counts that force uneven chunking.
func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		prev := SetMaxWorkers(workers)
		for _, n := range []int{1, 2, 5, 97, 1000} {
			var mu sync.Mutex
			seen := make([]int, n)
			parallelFor(n, 1, func(s, e int) {
				mu.Lock()
				for i := s; i < e; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
		SetMaxWorkers(prev)
	}
}

// TestParallelForNested pins the worker pool's no-deadlock guarantee: a
// parallel region whose body opens another parallel region (the batch-loop
// → matmul shape) must complete even when every pool worker is busy. The
// unbuffered try-send design degrades to inline execution, never blocks.
func TestParallelForNested(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	out := make([]int32, 64*64)
	parallelFor(64, 1, func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			base := b * 64
			parallelFor(64, 1, func(s, e int) {
				for i := s; i < e; i++ {
					out[base+i] = int32(base + i)
				}
			})
		}
	})
	for i, v := range out {
		if v != int32(i) {
			t.Fatalf("nested parallelFor lost element %d (got %d)", i, v)
		}
	}
}

// TestSetMaxWorkersConcurrent exercises SetMaxWorkers racing running
// kernels; run under -race this pins the atomicity contract (the old plain
// int was a data race).
func TestSetMaxWorkersConcurrent(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			SetMaxWorkers(1 + i%8)
		}
	}()
	sink := make([]float32, 512)
	for i := 0; i < 200; i++ {
		parallelFor(len(sink), 1, func(s, e int) {
			for j := s; j < e; j++ {
				sink[j] += 1
			}
		})
	}
	<-done
	for i, v := range sink {
		if v != 200 {
			t.Fatalf("element %d accumulated %v, want 200", i, v)
		}
	}
}

// TestSetMaxWorkersReset verifies n < 1 resets to NumCPU and that the
// previous value round-trips.
func TestSetMaxWorkersReset(t *testing.T) {
	prev := SetMaxWorkers(3)
	if got := SetMaxWorkers(0); got != 3 {
		t.Fatalf("SetMaxWorkers returned %d, want 3", got)
	}
	if got := SetMaxWorkers(prev); got < 1 {
		t.Fatalf("reset left non-positive worker count %d", got)
	}
}

// TestParallelBranchesRunsEveryBranchOnce: every index exactly once at any
// worker count, branch 0 on the caller, never more goroutines at work than
// workers, and — because branches call kernels — a branch that opens a
// parallel region of its own completes even when every lane does the same.
func TestParallelBranchesRunsEveryBranchOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		prev := SetMaxWorkers(workers)
		for _, n := range []int{0, 1, 2, 3, 7} {
			seen := make([]atomic.Int32, n)
			var running, peak atomic.Int32
			out := make([]int32, n*64)
			caller := goroutineID()
			ParallelBranches(n, func(i int) {
				if i == 0 && goroutineID() != caller {
					t.Errorf("workers=%d n=%d: branch 0 ran off the caller", workers, n)
				}
				now := running.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				seen[i].Add(1)
				parallelFor(64, 1, func(s, e int) {
					for j := s; j < e; j++ {
						out[i*64+j] = int32(i*64 + j)
					}
				})
				running.Add(-1)
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: branch %d ran %d times", workers, n, i, c)
				}
			}
			for i, v := range out {
				if v != int32(i) {
					t.Fatalf("workers=%d n=%d: a branch's kernel lost element %d", workers, n, i)
				}
			}
			if p := int(peak.Load()); p > workers {
				t.Fatalf("workers=%d n=%d: %d branches ran at once", workers, n, p)
			}
		}
		SetMaxWorkers(prev)
	}
}

// goroutineID is the "goroutine N" header of the caller's stack dump: enough
// to tell the calling goroutine from a lane.
func goroutineID() string {
	var buf [32]byte
	hdr := string(buf[:runtime.Stack(buf[:], false)])
	return hdr[:strings.Index(hdr, " [")]
}

// TestParallelBranchesOneWorkerIsAPlainLoop: at one worker every branch runs
// on the caller in index order and no goroutine is started — a panic
// unwinds straight through, with the branch's frames still on the stack.
func TestParallelBranchesOneWorkerIsAPlainLoop(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	caller := goroutineID()
	before := runtime.NumGoroutine()
	var order []int
	ParallelBranches(5, func(i int) {
		order = append(order, i)
		if goroutineID() != caller {
			t.Errorf("branch %d ran off the caller", i)
		}
		if g := runtime.NumGoroutine(); g != before {
			t.Errorf("branch %d: %d goroutines, %d before the call", i, g, before)
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("branches ran in order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 branches", len(order))
	}
}

// TestParallelBranchesRepanicsOnCaller is the panic contract at the height of
// the primitive: whichever branch panics — the caller's own or one on a
// lane — the value reaches the caller's recover unchanged, only after every
// lane has ended, and no goroutine is left behind.
func TestParallelBranchesRepanicsOnCaller(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	poolOnce.Do(startWorkers) // the kernel pool's goroutines are not lanes
	before := runtime.NumGoroutine()
	type shapeErr struct{ branch int }
	for _, bad := range []int{0, 1, 2, 4} {
		var live atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			ParallelBranches(5, func(i int) {
				live.Add(1)
				defer live.Add(-1)
				if i == bad {
					panic(&shapeErr{i})
				}
				time.Sleep(time.Millisecond) // still running when the panic is raised
			})
			return nil
		}()
		if e, ok := got.(*shapeErr); !ok || e.branch != bad {
			t.Fatalf("branch %d panicked, caller recovered %#v", bad, got)
		}
		if n := live.Load(); n != 0 {
			t.Fatalf("branch %d: the panic surfaced with %d branches still running", bad, n)
		}
		// A lane's last act is wg.Done: give the runtime a moment to retire
		// goroutines that have returned but are still counted.
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("branch %d: %d goroutines after the call, %d before", bad, g, before)
		}
	}
	// Two branches panic: exactly one value surfaces, and it is one of theirs.
	got := func() (r any) {
		defer func() { r = recover() }()
		ParallelBranches(3, func(i int) { panic(i) })
		return nil
	}()
	if v, ok := got.(int); !ok || v < 0 || v > 2 {
		t.Fatalf("recovered %#v from three panicking branches", got)
	}
}
