package serialize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// Three inputs that used to reserve memory from their header alone; every
// decoder fuzzer below is seeded with them (wrapped in its own framing).
var (
	// An int slice claiming 2²⁸ entries (2 GiB of ints) and carrying none.
	hostileInts = []byte{0, 0, 0, 0x10}
	// A rank-1 tensor body claiming 2²⁸ elements (1 GiB) and carrying none.
	hostileTensorBody = []byte{1, 0, 0, 0, 0x10}
	// Rank-4 dims [65536]⁴: the element product is 2⁶⁴, which wraps to 0.
	hostileWrapBody = []byte{4, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0}
)

// withHeader prefixes body with a serialize stream header.
func withHeader(magic uint32, body ...byte) []byte {
	var buf bytes.Buffer
	if err := writeHeader(&buf, magic); err != nil {
		panic(err)
	}
	return append(buf.Bytes(), body...)
}

// oneEntryDict is a state dict whose single entry "w" has the given
// tensor body.
func oneEntryDict(tensorBody []byte) []byte {
	entry := append([]byte{1, 0, 0, 0, 1, 0, 'w'}, tensorBody...)
	return withHeader(dictMagic, entry...)
}

// allocDuring reports the bytes allocated while fn runs.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileHeadersAllocateNothing pins the bounded-allocation promise
// on the three inputs above: each is refused with an error after
// allocating well under 1 MiB, where the header alone used to reserve
// gigabytes (or, for the wrapped product, decode "successfully").
func TestHostileHeadersAllocateNothing(t *testing.T) {
	cases := map[string]func() error{
		"int slice claiming 2^28 entries": func() error {
			_, err := ReadIntSlice(bytes.NewReader(hostileInts))
			return err
		},
		"tensor claiming 2^28 elements": func() error {
			_, err := ReadTensor(bytes.NewReader(withHeader(tensorMagic, hostileTensorBody...)))
			return err
		},
		"tensor dims wrapping to 0 elements": func() error {
			_, err := ReadTensor(bytes.NewReader(withHeader(tensorMagic, hostileWrapBody...)))
			return err
		},
	}
	for name, decode := range cases {
		var err error
		grew := allocDuring(func() { err = decode() })
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if grew >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing, want < 1 MiB", name, grew)
		}
	}
}

// fuzzDecoder drives one decoder over arbitrary bytes: it must never
// panic, must allocate no more than a small multiple of its input (plus a
// fixed allowance for readers and one element chunk), and must report a
// stream opening with a foreign magic as ErrWrongFormat. magic 0 means the
// format has none.
func fuzzDecoder(f *testing.F, magic uint32, decode func(io.Reader) error) {
	fuzzBytes(f, magic, func(_ *testing.T, data []byte) error { return decode(bytes.NewReader(data)) })
}

// fuzzBytes is fuzzDecoder for a decode that also needs the input whole.
func fuzzBytes(f *testing.F, magic uint32, decode func(t *testing.T, data []byte) error) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var err error
		grew := allocDuring(func() { err = decode(t, data) })
		if limit := uint64(1<<20 + 64*len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		foreign := magic != 0 && len(data) >= 4 && binary.LittleEndian.Uint32(data) != magic
		if foreign && !errors.Is(err, ErrWrongFormat) {
			t.Fatalf("foreign magic %#x decoded to %v, want ErrWrongFormat", data[:4], err)
		}
	})
}

func FuzzReadIntSlice(f *testing.F) {
	var ok bytes.Buffer
	if err := WriteIntSlice(&ok, []int{3, -1, 4, 1 << 40}); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	f.Add(hostileInts)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // over the element cap
	f.Add([]byte{2, 0, 0, 0, 1, 2, 3})    // truncated mid-element
	fuzzDecoder(f, 0, func(r io.Reader) error {
		_, err := ReadIntSlice(r)
		return err
	})
}

func FuzzReadStateDict(f *testing.F) {
	var ok bytes.Buffer
	if err := WriteStateDict(&ok, testBuffers("w", "b")); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	f.Add(ok.Bytes()[:ok.Len()-3])
	f.Add(oneEntryDict(hostileTensorBody))
	f.Add(oneEntryDict(hostileWrapBody))
	f.Add(withHeader(dictMagic, 0xff, 0xff, 0x0f, 0)) // 2²⁰ entries claimed, none sent
	f.Add(withHeader(tensorMagic, hostileTensorBody...))
	fuzzDecoder(f, dictMagic, func(r io.Reader) error {
		_, err := ReadStateDict(r)
		return err
	})
}

func FuzzReadTrainCheckpoint(f *testing.F) {
	full := &TrainCheckpoint{
		Epoch: 3, Kind: "augmented-lm", State: testBuffers("w", "b"),
		OptState: &optim.State{Kind: optim.KindAdam, Step: 17, LR: 0.0005, Buffers: testBuffers("m/w", "v/w")},
		RNG:      map[string][]byte{"orig.drop": {1, 2, 3}},
	}
	var ok, bare bytes.Buffer
	if err := WriteTrainCheckpoint(&ok, full); err != nil {
		f.Fatal(err)
	}
	if err := WriteTrainCheckpoint(&bare, &TrainCheckpoint{Epoch: 1, Kind: "plain-cv", State: map[string]*tensor.Tensor{}}); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	f.Add(bare.Bytes())
	f.Add(bare.Bytes()[:bare.Len()-1]) // cut before the mandatory RNG flag
	// Epoch 1, kind "", no optimiser section, then a hostile model dict.
	prefix := []byte{1, 0, 0, 0, 0, 0, 0}
	f.Add(withHeader(ckptMagic, append(prefix, oneEntryDict(hostileTensorBody)...)...))
	f.Add(withHeader(ckptMagic, append(prefix, oneEntryDict(hostileWrapBody)...)...))
	f.Add(withHeader(0x414d4332, prefix...)) // the retired AMC2 magic
	// Epoch 1, kind "", an optimiser section (kind "sgd", step 0, LR 0), an
	// empty model dict, then a hostile optimiser buffer dict.
	optPrefix := append([]byte{1, 0, 0, 0, 0, 0, 1, 3, 0, 's', 'g', 'd'}, make([]byte, 16)...)
	optPrefix = append(optPrefix, withHeader(dictMagic, 0, 0, 0, 0)...)
	f.Add(withHeader(ckptMagic, append(optPrefix, oneEntryDict(hostileTensorBody)...)...))
	f.Add(withHeader(ckptMagic, append(optPrefix, oneEntryDict(hostileWrapBody)...)...))
	// An optimiser kind longer than any name.
	f.Add(withHeader(ckptMagic, 1, 0, 0, 0, 0, 0, 1, 0xff, 0xff))
	// Every input is also decoded in place, into a destination shaped like
	// the valid seed: either both decodes succeed and agree, or the
	// in-place one fails and leaves the destination as it was.
	fuzzBytes(f, ckptMagic, func(t *testing.T, data []byte) error {
		fresh, err := ReadTrainCheckpoint(bytes.NewReader(data))
		dst := &TrainCheckpoint{Epoch: 99, Kind: "dst", State: cloneDict(full.State),
			OptState: &optim.State{Kind: full.OptState.Kind, Buffers: cloneDict(full.OptState.Buffers)}}
		before := *dst
		before.State, before.OptState = cloneDict(dst.State), &optim.State{Kind: dst.OptState.Kind, Buffers: cloneDict(dst.OptState.Buffers)}
		if inPlace := ReadTrainCheckpointInto(data, dst); inPlace == nil {
			if err != nil || !sameBoundary(dst, fresh) {
				t.Fatalf("decoded in place, but the fresh decode (%v) differs", err)
			}
		} else if !sameBoundary(dst, &before) {
			t.Fatalf("the failed in-place decode (%v) changed the destination", inPlace)
		}
		return err
	})
}
