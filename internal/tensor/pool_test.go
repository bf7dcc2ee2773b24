package tensor

import (
	"sync"
	"testing"
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

func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := Get(32, 32)
				x.Fill(float32(seed))
				for _, v := range x.Data {
					if v != float32(seed) {
						t.Errorf("buffer aliased across goroutines")
						Put(x)
						return
					}
				}
				Put(x)
			}
		}(g)
	}
	wg.Wait()
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
