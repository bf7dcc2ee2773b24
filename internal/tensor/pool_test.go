package tensor

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

func TestPoolRoundtrip(t *testing.T) {
	a := Get(3, 5)
	if a.Numel() != 15 || a.Dims() != 2 {
		t.Fatalf("Get(3,5) = %v", a.Shape())
	}
	for i := range a.Data {
		a.Data[i] = float32(i)
	}
	Put(a)
	b := Get(15) // same bucket (16)
	if cap(b.Data) != 16 {
		t.Fatalf("bucket capacity = %d, want 16", cap(b.Data))
	}
	Put(b)
}

func TestGetZero(t *testing.T) {
	a := Get(64)
	for i := range a.Data {
		a.Data[i] = 1
	}
	Put(a)
	z := GetZero(64)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZero elem %d = %v", i, v)
		}
	}
	Put(z)
}

func TestPutForeignIgnored(t *testing.T) {
	// Non-power-of-two capacity: must not poison the pool.
	Put(FromSlice(make([]float32, 15), 15))
	Put(nil)
	Put(&Tensor{})
}

func TestPoolZeroSize(t *testing.T) {
	z := Get(0, 4)
	if z.Numel() != 0 {
		t.Fatalf("Get(0,4).Numel() = %d", z.Numel())
	}
	Put(z)
}

func TestPoolSteadyStateNoAlloc(t *testing.T) {
	// Warm the bucket, then verify Get/Put cycles stop allocating.
	warm := Get(128, 128)
	Put(warm)
	allocs := testing.AllocsPerRun(100, func() {
		x := Get(128, 128)
		Put(x)
	})
	if allocs > 0 {
		t.Errorf("steady-state Get/Put allocates %.1f objects per cycle", allocs)
	}
}

// TestPoolConcurrent: eight goroutines cycling one bucket never hand one
// buffer to two holders at once, and PoolStats counts every Get once, as a
// hit or a miss.
func TestPoolConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	var held sync.Map // &Data[0] → the goroutine holding it
	h0, m0 := PoolStats()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := Get(32, 32)
				if other, dup := held.LoadOrStore(&x.Data[0], seed); dup {
					t.Errorf("goroutines %d and %d hold one buffer at once", other, seed)
					Put(x)
					return
				}
				x.Fill(float32(seed))
				for _, v := range x.Data {
					if v != float32(seed) {
						t.Errorf("buffer aliased across goroutines")
						Put(x)
						return
					}
				}
				held.Delete(&x.Data[0])
				Put(x)
			}
		}(g)
	}
	wg.Wait()
	h1, m1 := PoolStats()
	if gets := (h1 - h0) + (m1 - m0); gets != workers*rounds {
		t.Errorf("PoolStats counted %d Gets, want %d", gets, workers*rounds)
	}
}

// emptyBucket empties the bucket of numel floats by taking its buffers until
// the pool has to make one, and drops them all.
func emptyBucket(numel int) {
	for {
		_, m0 := PoolBucketStats(numel)
		Get(numel)
		if _, m := PoolBucketStats(numel); m != m0 {
			return
		}
	}
}

// TestPoolLIFO: a bucket hands back the buffer put last first.
func TestPoolLIFO(t *testing.T) {
	const numel = 3 << 10
	emptyBucket(numel)
	a, b := Get(numel), Get(numel)
	Put(a)
	Put(b)
	if Get(numel) != b || Get(numel) != a {
		t.Fatal("Put a, Put b did not give Get b, then a")
	}
}

// TestPoolTrim: a trim keeps a buffer a Get reached since the previous trim
// and drops one that sat idle across the whole interval between the two.
// The collector is off so that only the test's own trims run.
func TestPoolTrim(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const numel = 5 << 10
	l := &pools[bucketOf(numel)]
	emptyBucket(numel)
	idle, used := Get(numel), Get(numel)
	Put(idle)
	Put(used)
	l.trim()        // the low-water mark was 0: nothing goes, the interval starts
	Put(Get(numel)) // used is reached, idle is not
	l.trim()
	if Get(numel) != used {
		t.Fatal("the trim dropped the buffer a Get reached since the previous trim")
	}
	if Get(numel) == idle {
		t.Fatal("the trim kept the buffer that sat idle across a whole interval")
	}
}

// TestPoolTrimRunsOnCollections: the collector drives the trim, so a buffer
// nothing asks for leaves the pool after a few collections.
func TestPoolTrimRunsOnCollections(t *testing.T) {
	const numel = 7 << 10
	l := &pools[bucketOf(numel)]
	emptyBucket(numel)
	Put(Get(numel))
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer runs after its collection
		l.mu.Lock()
		n := len(l.free)
		l.mu.Unlock()
		if n == 0 {
			return
		}
	}
	t.Fatal("an idle buffer outlived 100 collections")
}

// TestPoolBucketStats: a Get is counted in the bucket of its rounded-up
// size and nowhere else, and PoolStats stays the sum over buckets.
func TestPoolBucketStats(t *testing.T) {
	gets := func(numel int) int64 {
		h, m := PoolBucketStats(numel)
		return h + m
	}
	total := func() int64 {
		h, m := PoolStats()
		return h + m
	}
	in0, below0, above0, all0 := gets(3000), gets(2048), gets(4097), total()
	Put(Get(3000)) // bucket (2048, 4096]
	Put(Get(2049))
	if d := gets(4096) - in0; d != 2 {
		t.Errorf("bucket of 3000 floats counted %d Gets, want 2", d)
	}
	if gets(2048) != below0 || gets(4097) != above0 {
		t.Error("a Get was counted in a neighbouring bucket")
	}
	if d := total() - all0; d != 2 {
		t.Errorf("PoolStats moved by %d, want 2", d)
	}
	if h, m := PoolBucketStats(0); h != 0 || m != 0 {
		t.Error("size 0 is not pooled and must report zeros")
	}
}
