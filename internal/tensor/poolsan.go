//go:build amalgam_poolsan

package tensor

import (
	"os"
	"strconv"
	"sync/atomic"
)

// Pool sanitizer (-tags amalgam_poolsan): Get fills every buffer it hands
// out from one stream seeded by AMALGAM_POOLSAN_SEED (0 when unset), Put
// overwrites every buffer it takes back from a second. A read before a
// write, or after a buffer went back, then moves bits with the seed; a
// clean program's do not. The default build's hooks are poolsan_off.go.

var sanSeed = func() uint64 {
	s, set := os.LookupEnv("AMALGAM_POOLSAN_SEED")
	seed, err := strconv.ParseUint(s, 10, 64)
	if set && err != nil {
		panic("tensor: AMALGAM_POOLSAN_SEED is not an unsigned integer")
	}
	return seed
}()

var sanCalls atomic.Uint64 // each fill starts its own run of the stream

func sanGet(t *Tensor) *Tensor { sanFill(t.Data, 0x6a09e667f3bcc909); return t }

// sanPut runs under the bucket's lock and refuses a buffer already free.
func sanPut(free []*Tensor, t *Tensor) {
	for _, f := range free {
		if &f.Data[0] == &t.Data[0] {
			panic("tensor: double Put: the buffer is already in the pool")
		}
	}
	sanFill(t.Data, 0xbb67ae8584caa73b)
}

// sanFill overwrites d with splitmix64 draws mapped to [-2, 2) in steps of
// 2⁻²², from the stream the seed and key name.
func sanFill(d []float32, key uint64) {
	x := (sanSeed^key)*0x9e3779b97f4a7c15 + sanCalls.Add(1)<<32
	for i := range d {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		d[i] = float32(int32((z^z>>31)>>40)-1<<23) / (1 << 22)
	}
}
