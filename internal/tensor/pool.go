package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Scratch-buffer pool.
//
// Training steps allocate the same tensor shapes over and over: im2col
// column matrices, matmul outputs, activation values, gradient buffers.
// Get/Put recycle those buffers through size-bucketed sync.Pools so the
// steady-state hot path allocates (almost) nothing and the GC stays out of
// the way under heavy traffic.
//
// Buckets hold *Tensor values whose Data capacity is the bucket's
// power-of-two size; Get re-slices a recycled tensor to the requested
// shape, reusing both the struct and its shape slice, so a Get/Put cycle
// is allocation-free once warm.
//
// Ownership rules:
//   - Put only tensors obtained from Get (Put ignores foreign buffers
//     whose capacity is not an exact bucket size).
//   - Never Put a tensor whose Data is shared by a view (Reshape,
//     FromSlice); the next Get would alias live memory.
//   - After Put the tensor must not be touched; Get may hand it to
//     another goroutine immediately.

// maxPoolBits caps pooled buffers at 1<<maxPoolBits floats (1 GiB);
// anything larger is handed to the regular allocator.
const maxPoolBits = 28

var pools [maxPoolBits + 1]sync.Pool

// poolGets instruments Get per bucket for tests and benchmarks.
var poolGets [maxPoolBits + 1]struct{ hits, misses atomic.Int64 }

// Get returns a tensor of the given shape backed by recycled storage when
// available. The contents are arbitrary garbage — callers must fully
// overwrite it. Use GetZero when the op accumulates instead of assigns.
func Get(shape ...int) *Tensor {
	// Inline numel: calling checkedNumel(shape) directly would leak the
	// variadic slice to the heap via its panic path, costing an allocation
	// per Get and defeating the point of the pool.
	n := 1
	for _, d := range shape {
		if d < 0 {
			checkedNumel(append([]int(nil), shape...)) // panics descriptively
		}
		n *= d
	}
	if n == 0 || n > 1<<maxPoolBits {
		return &Tensor{shape: append([]int(nil), shape...), Data: make([]float32, n)}
	}
	b := bucketOf(n)
	if v := pools[b].Get(); v != nil {
		t := v.(*Tensor)
		t.Data = t.Data[:n]
		t.shape = append(t.shape[:0], shape...)
		poolGets[b].hits.Add(1)
		return t
	}
	poolGets[b].misses.Add(1)
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float32, n, 1<<b)}
}

// bucketOf is the index of the smallest power-of-two bucket holding n ≥ 1
// floats: ceil(log2(n)).
func bucketOf(n int) int { return bits.Len(uint(n - 1)) }

// GetZero is Get with the returned tensor zeroed.
func GetZero(shape ...int) *Tensor {
	t := Get(shape...)
	zeroFloats(t.Data)
	return t
}

// Put returns a tensor to the pool for reuse. nil tensors are ignored, and
// a capacity check filters out most foreign buffers (capacity not an exact
// bucket size) — but the check is a heuristic, not an ownership proof: a
// New- or FromSlice-backed tensor whose capacity happens to be a power of
// two will be accepted. Callers must only Put storage they exclusively
// own, per the ownership rules above.
func Put(t *Tensor) {
	if t == nil {
		return
	}
	c := cap(t.Data)
	if c == 0 || c&(c-1) != 0 || c > 1<<maxPoolBits {
		return
	}
	t.Data = t.Data[:c]
	pools[bits.Len(uint(c))-1].Put(t)
}

// PoolStats reports cumulative Get hits (recycled) and misses (fresh
// allocations) since process start.
func PoolStats() (hits, misses int64) {
	for b := range poolGets {
		hits += poolGets[b].hits.Load()
		misses += poolGets[b].misses.Load()
	}
	return hits, misses
}

// PoolBucketStats is PoolStats for the one size bucket that serves buffers
// of numel floats — how often a step asked for a buffer that large. Sizes
// the pool does not serve (0, or beyond its cap) report zeros.
func PoolBucketStats(numel int) (hits, misses int64) {
	if numel <= 0 || numel > 1<<maxPoolBits {
		return 0, 0
	}
	b := bucketOf(numel)
	return poolGets[b].hits.Load(), poolGets[b].misses.Load()
}
