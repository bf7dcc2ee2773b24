package serialize

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// portably runs fn with the bulk path disabled — the path a big-endian
// host takes — so both paths are exercised on whatever runs the tests.
func portably(fn func()) {
	saved := nativeLE
	nativeLE = false
	defer func() { nativeLE = saved }()
	fn()
}

// awkwardBits are float32 patterns a copy must carry and a conversion
// could lose: signed zeros, denormals, infinities, quiet and signalling
// NaNs with payload bits.
var awkwardBits = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x7f800000, 0xff800000,
	0x7fc00000, 0x7fc12345, 0xffc00001, 0x7f800001, 0x7fa55aa5, 0x3f800000,
}

// randTensor draws rank 0 to 4 with dims 0 to 5 — rank-0 and empty
// tensors included — filled with awkward and random bit patterns.
func randTensor(rng *tensor.RNG) *tensor.Tensor {
	shape := make([]int, rng.IntN(5))
	for i := range shape {
		shape[i] = rng.IntN(6)
	}
	t := tensor.New(shape...)
	for i := range t.Data {
		bits := uint32(rng.Uint64())
		if rng.IntN(3) == 0 {
			bits = awkwardBits[rng.IntN(len(awkwardBits))]
		}
		t.Data[i] = math.Float32frombits(bits)
	}
	return t
}

func randDict(rng *tensor.RNG, prefix string) map[string]*tensor.Tensor {
	dict := map[string]*tensor.Tensor{}
	for i, n := 0, rng.IntN(5); i < n; i++ {
		dict[fmt.Sprintf("%s%d.w", prefix, rng.IntN(100))] = randTensor(rng)
	}
	return dict
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func sameDictBits(a, b map[string]*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for name, t := range a {
		if o, ok := b[name]; !ok || !sameBits(t, o) {
			return false
		}
	}
	return true
}

// codecCase is one format under test: its encoder, its exact size, and a
// decode-and-compare against the value that was encoded.
type codecCase struct {
	name   string
	size   int
	write  func(io.Writer) error
	reread func(io.Reader) (same bool, err error)
}

func randCases(rng *tensor.RNG) []codecCase {
	x := randTensor(rng)
	dict := randDict(rng, "layer")
	ck := &TrainCheckpoint{Epoch: rng.IntN(50), Kind: "augmented-text", State: randDict(rng, "orig.")}
	if rng.IntN(2) == 0 {
		ck.OptState = &optim.State{Kind: optim.KindAdam, Step: rng.IntN(1000), LR: rng.Float64(), Buffers: randDict(rng, "m/orig.")}
	}
	if rng.IntN(2) == 0 {
		ck.RNG = map[string][]byte{"orig.drop": {1, 2, 3}, "dec0.drop": {}}
	}
	ints := make([]int, rng.IntN(40))
	for i := range ints {
		ints[i] = int(int64(rng.Uint64()))
	}
	return []codecCase{
		{"tensor", TensorSize(x), func(w io.Writer) error { return WriteTensor(w, x) },
			func(r io.Reader) (bool, error) {
				got, err := ReadTensor(r)
				return err == nil && sameBits(got, x), err
			}},
		{"state dict", StateDictSize(dict), func(w io.Writer) error { return WriteStateDict(w, dict) },
			func(r io.Reader) (bool, error) {
				got, err := ReadStateDict(r)
				return err == nil && sameDictBits(got, dict), err
			}},
		{"checkpoint", TrainCheckpointSize(ck), func(w io.Writer) error { return WriteTrainCheckpoint(w, ck) },
			func(r io.Reader) (bool, error) {
				got, err := ReadTrainCheckpoint(r)
				if err != nil {
					return false, err
				}
				same := got.Epoch == ck.Epoch && got.Kind == ck.Kind && sameDictBits(got.State, ck.State) &&
					got.OptState.Empty() == ck.OptState.Empty() && len(got.RNG) == len(ck.RNG)
				if same && !ck.OptState.Empty() {
					same = got.OptState.Kind == ck.OptState.Kind && got.OptState.Step == ck.OptState.Step &&
						got.OptState.LR == ck.OptState.LR && sameDictBits(got.OptState.Buffers, ck.OptState.Buffers)
				}
				return same, nil
			}},
		{"int slice", IntSliceSize(ints), func(w io.Writer) error { return WriteIntSlice(w, ints) },
			func(r io.Reader) (bool, error) {
				got, err := ReadIntSlice(r)
				same := err == nil && len(got) == len(ints)
				for i := 0; same && i < len(ints); i++ {
					same = got[i] == ints[i]
				}
				return same, err
			}},
	}
}

// streamOnly hides an in-memory reader's Len, so a decoder takes the
// path it takes for a file or a socket.
type streamOnly struct{ io.Reader }

// TestBulkAndPortablePathsAgree is the codec's equivalence property: for
// every format, over random ranks, shapes and bit patterns, the bulk
// path and the per-element path write identical bytes, …Size is their
// exact length, and every decoder — bulk or portable, from memory or
// from a stream — restores identical bit patterns.
func TestBulkAndPortablePathsAgree(t *testing.T) {
	if !nativeLE {
		t.Log("big-endian host: the bulk path does not exist here; both runs take the portable path")
	}
	for seed := uint64(1); seed <= 200; seed++ {
		for _, c := range randCases(tensor.NewRNG(seed)) {
			var bulk, portable bytes.Buffer
			if err := c.write(&bulk); err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			portably(func() {
				if err := c.write(&portable); err != nil {
					t.Fatalf("seed %d %s, portable: %v", seed, c.name, err)
				}
			})
			if !bytes.Equal(bulk.Bytes(), portable.Bytes()) {
				t.Fatalf("seed %d %s: bulk and portable encodings differ (%d vs %d bytes)", seed, c.name, bulk.Len(), portable.Len())
			}
			if c.size != bulk.Len() {
				t.Fatalf("seed %d %s: Size says %d, the encoding is %d bytes", seed, c.name, c.size, bulk.Len())
			}
			readers := map[string]func() io.Reader{
				"memory": func() io.Reader { return bytes.NewReader(bulk.Bytes()) },
				"stream": func() io.Reader { return streamOnly{bytes.NewReader(bulk.Bytes())} },
			}
			for from, open := range readers {
				check := func(path string) {
					if same, err := c.reread(open()); err != nil || !same {
						t.Fatalf("seed %d %s, %s decode from %s: same=%v err=%v", seed, c.name, path, from, same, err)
					}
				}
				check("bulk")
				portably(func() { check("portable") })
			}
		}
	}
}

// TestLargePayloadBothPaths crosses the allocChunk boundaries the random
// shapes above stay under: a payload of several chunks, written and read
// on both paths, from memory and from a stream.
func TestLargePayloadBothPaths(t *testing.T) {
	x := tensor.New(3*allocChunk/4 + 5)
	tensor.NewRNG(3).FillNormal(x, 0, 1)
	var want bytes.Buffer
	if err := WriteTensor(&want, x); err != nil {
		t.Fatal(err)
	}
	for _, portable := range []bool{false, true} {
		run := func(fn func()) { fn() }
		if portable {
			run = portably
		}
		run(func() {
			var got bytes.Buffer
			if err := WriteTensor(&got, x); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("portable=%v: encoding differs", portable)
			}
			for _, r := range []io.Reader{bytes.NewReader(want.Bytes()), streamOnly{bytes.NewReader(want.Bytes())}} {
				y, err := ReadTensor(r)
				if err != nil || !sameBits(x, y) {
					t.Fatalf("portable=%v from %T: err=%v", portable, r, err)
				}
			}
		})
	}
}

// TestInMemoryDecodeIsOneAllocation pins what the bulk path buys a
// decoder reading a frame: each tensor is reserved once, at its size, so
// the whole checkpoint costs barely more than its own payload — and a
// snapshot encodes into one buffer of exactly TrainCheckpointSize bytes.
func TestInMemoryDecodeIsOneAllocation(t *testing.T) {
	state := map[string]*tensor.Tensor{"emb": tensor.New(4000, 64), "fc.w": tensor.New(64, 4)}
	ck := &TrainCheckpoint{Epoch: 2, Kind: "augmented-text", State: state,
		OptState: &optim.State{Kind: optim.KindSGD, LR: 0.05, Buffers: map[string]*tensor.Tensor{"emb": tensor.New(4000, 64)}}}
	size := TrainCheckpointSize(ck)

	var buf *bytes.Buffer
	grew := allocDuring(func() {
		buf = bytes.NewBuffer(make([]byte, 0, size))
		if err := WriteTrainCheckpoint(buf, ck); err != nil {
			t.Fatal(err)
		}
	})
	if buf.Len() != size || cap(buf.Bytes()) != size {
		t.Fatalf("encoded %d bytes in a buffer of %d, want exactly %d", buf.Len(), cap(buf.Bytes()), size)
	}
	if limit := uint64(size) + 64<<10; grew > limit {
		t.Errorf("encoding %d bytes allocated %d, want the one buffer (limit %d)", size, grew, limit)
	}

	grew = allocDuring(func() {
		if _, err := ReadTrainCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(size) + uint64(size)/10; grew > limit {
		t.Errorf("decoding %d bytes from memory allocated %d, want at most 1.1x (%d)", size, grew, limit)
	}
}

// TestForgedHeaderOnMemoryReader keeps PR 12's promise on the new path:
// an in-memory reader's declared sizes are believed only as far as bytes
// are actually present, so a header claiming a gigabyte over a few
// kilobytes of payload allocates in proportion to the kilobytes.
func TestForgedHeaderOnMemoryReader(t *testing.T) {
	present := make([]byte, 40<<10)
	forged := map[string]func() error{
		// A rank-1 tensor claiming 2²⁸ elements, followed by 40 KiB of them.
		"tensor": func() error {
			_, err := ReadTensor(bytes.NewReader(append(withHeader(tensorMagic, hostileTensorBody...), present...)))
			return err
		},
		// An int slice claiming 2²⁸ entries, likewise.
		"int slice": func() error {
			_, err := ReadIntSlice(bytes.NewReader(append(append([]byte(nil), hostileInts...), present...)))
			return err
		},
	}
	for name, decode := range forged {
		check := func(path string) {
			var err error
			grew := allocDuring(func() { err = decode() })
			if err == nil {
				t.Fatalf("%s, %s path: decoded with almost all of its payload missing", name, path)
			}
			if limit := uint64(1<<17 + 4*len(present)); grew > limit {
				t.Errorf("%s, %s path: forged header over %d present bytes allocated %d, limit %d", name, path, len(present), grew, limit)
			}
		}
		check("bulk")
		portably(func() { check("portable") })
	}
}
