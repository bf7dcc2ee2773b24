package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the parallelism used by tensor kernels. It is atomic so
// SetMaxWorkers can race a running kernel without a data race: kernels load
// it once per call, so a concurrent change simply applies to the next call.
var maxWorkers atomic.Int64

func init() { maxWorkers.Store(int64(runtime.NumCPU())) }

// SetMaxWorkers overrides the number of chunks tensor kernels split work
// into and ParallelBranches deals branches over (1: one goroutine of
// compute, literally). n < 1 resets to runtime.NumCPU(). It returns the
// previous value.
//
// Results are bit-identical for any worker count because work is split into
// disjoint output ranges whose boundaries depend only on this value. It is
// the seam tests and benchmarks pin a count with (no production code sets
// it: the pool alone bounds the cores), safe to call concurrently with
// running kernels: each reads the value exactly once at its start.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = runtime.NumCPU()
	}
	return int(maxWorkers.Swap(int64(n)))
}

// ParallelRange runs fn over [0,n) split into contiguous disjoint chunks,
// one per worker. It is exported for packages (autodiff, data) that
// parallelise batch loops; disjoint ranges keep results deterministic. The
// chunks run on the kernel pool: fn must not block (see ParallelBranches).
func ParallelRange(n int, fn func(start, end int)) {
	parallelFor(n, 1, fn)
}

// ParallelBranches runs fn(0) … fn(n-1): the entry for long-running
// independent branches (a sub-network's forward, a component of a backward
// pass) that build graph nodes and call kernels themselves. It deals them in
// index order over min(n, maxWorkers) pool chunks: the caller's own (last)
// chunk runs branch 0, then joins the deal; every other chunk deals from
// branch 1 on, on a parked worker or, when none is parked, on the caller.
// So branches start no goroutine and fill the cores the others leave idle.
// Branches write disjoint state, so where they run never shows in a result.
// With one worker this is a plain loop on the caller. A panic stops the deal
// and the first is re-raised on the caller, unchanged, once every chunk has
// finished: whoever recovers shape panics does so on its own goroutine.
func ParallelBranches(n int, fn func(i int)) {
	chunks := min(n, int(maxWorkers.Load()))
	if chunks < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64 // last branch dealt; 0 is the caller's
	var raised atomic.Pointer[any]
	parallelFor(chunks, 1, func(_, end int) {
		defer func() {
			if r := recover(); r != nil {
				raised.CompareAndSwap(nil, &r)
				next.Store(int64(n))
			}
		}()
		i := 0
		if end < chunks { // not the caller's own chunk
			i = int(next.Add(1))
		}
		for ; i < n; i = int(next.Add(1)) {
			fn(i)
		}
	})
	if r := raised.Load(); r != nil {
		panic(*r)
	}
}

// Persistent worker pool.
//
// Spawning goroutines per kernel call showed up on profiles once the
// kernels themselves got fast: a training step issues hundreds of parallel
// regions, each previously paying goroutine start/stop plus scheduler
// churn. Instead a fixed set of workers (one per CPU) is started lazily on
// first use and lives for the process; parallelFor hands them chunks — a
// kernel's ranges, ParallelBranches' deals — over an unbuffered channel.
//
// The channel is deliberately unbuffered and the send non-blocking: a send
// succeeds only when a worker is parked in receive, otherwise the caller
// runs that chunk inline. This keeps nested parallel regions (a batch loop
// whose body calls a parallel matmul, a branch's kernels) deadlock-free —
// in the worst case every chunk runs inline on the caller, which is plain
// sequential execution — and means the pool never queues stale work. It is
// also the one bound on compute: G goroutines calling into this package
// (executors, serve workers) run on at most G + NumCPU goroutines.
//
// Determinism: the pool only changes *where* chunks execute, never how the
// work is partitioned. Chunk boundaries depend solely on n, minPerWorker,
// and the maxWorkers value loaded at call entry, and every chunk writes a
// disjoint output range, so results remain bit-identical for any
// SetMaxWorkers value and any scheduling.
type poolTask struct {
	fn   func(start, end int)
	s, e int
	wg   *sync.WaitGroup
}

var (
	poolOnce sync.Once
	poolJobs chan poolTask
)

func startWorkers() {
	poolJobs = make(chan poolTask)
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for t := range poolJobs {
				t.fn(t.s, t.e)
				t.wg.Done()
			}
		}()
	}
}

// chunksFor returns how many chunks parallelFor would split [0,n) into.
// Kernels use it as a serial fast-path test (== 1) so they can call their
// range function directly instead of constructing an escaping closure —
// that closure is the difference between 0 and 1 allocs/op on the
// steady-state hot path.
func chunksFor(n, minPerWorker int) int {
	workers := int(maxWorkers.Load())
	if minPerWorker < 1 {
		minPerWorker = 1
	}
	if max := (n + minPerWorker - 1) / minPerWorker; workers > max {
		workers = max
	}
	return workers
}

// parallelFor runs fn over [0,n) split into contiguous chunks, one per
// worker. fn receives the half-open range [start, end). It runs inline when
// the problem is small enough that parallelism overhead would dominate.
func parallelFor(n, minPerWorker int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	workers := chunksFor(n, minPerWorker)
	if workers <= 1 {
		fn(0, n)
		return
	}
	poolOnce.Do(startWorkers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	start := 0
	for ; start+chunk < n; start += chunk {
		wg.Add(1)
		select {
		case poolJobs <- poolTask{fn: fn, s: start, e: start + chunk, wg: &wg}:
		default:
			// No worker free — run this chunk on the caller.
			fn(start, start+chunk)
			wg.Done()
		}
	}
	// The caller always takes the final chunk instead of parking in Wait.
	fn(start, n)
	wg.Wait()
}
