package serialize

import (
	"bytes"
	"errors"
	"maps"
	"testing"

	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// cloneDict copies every tensor of dict.
func cloneDict(dict map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(dict))
	for name, t := range dict {
		out[name] = t.Clone()
	}
	return out
}

// encode is WriteTrainCheckpoint to memory.
func encode(t *testing.T, ck *TrainCheckpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrainCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// boundaryAt is a checkpoint of a two-tensor model with momentum whose
// every value depends on seed.
func boundaryAt(seed uint64, epoch int) *TrainCheckpoint {
	rng := tensor.NewRNG(seed)
	state := map[string]*tensor.Tensor{"emb": tensor.New(40, 8), "fc.w": tensor.New(8, 3)}
	mom := map[string]*tensor.Tensor{"emb": tensor.New(40, 8), "fc.w": tensor.New(8, 3)}
	for _, d := range []map[string]*tensor.Tensor{state, mom} {
		for _, v := range d {
			rng.FillNormal(v, 0, 1)
		}
	}
	return &TrainCheckpoint{Epoch: epoch, Kind: "augmented-text", State: state,
		OptState: &optim.State{Kind: optim.KindSGD, LR: 0.5, Buffers: mom},
		RNG:      map[string][]byte{"orig.drop": {byte(seed), 2, 3}}}
}

// sameBoundary reports whether got holds want's epoch boundary, bit for bit.
func sameBoundary(got, want *TrainCheckpoint) bool {
	if got.Epoch != want.Epoch || got.Kind != want.Kind || !sameDictBits(got.State, want.State) ||
		!maps.EqualFunc(got.RNG, want.RNG, bytes.Equal) || got.OptState.Empty() != want.OptState.Empty() {
		return false
	}
	if want.OptState.Empty() {
		return true
	}
	g, w := got.OptState, want.OptState
	return g.Kind == w.Kind && g.Step == w.Step && g.LR == w.LR && sameDictBits(g.Buffers, w.Buffers)
}

// TestReadTrainCheckpointIntoLandsInPlace: the weights of every decoded
// boundary land in the destination's own tensors, the optimiser buffers
// in one set allocated by the first decode and reused by every later one,
// on the bulk and the portable path alike — and the result is the fresh
// decode's, bit for bit.
func TestReadTrainCheckpointIntoLandsInPlace(t *testing.T) {
	for _, path := range []string{"bulk", "portable"} {
		t.Run(path, func(t *testing.T) {
			run := func(fn func()) { fn() }
			if path == "portable" {
				run = portably
			}
			run(func() {
				model := cloneDict(boundaryAt(0, 0).State)
				views := maps.Clone(model)
				dst := &TrainCheckpoint{State: model}
				var buffers map[string]*tensor.Tensor
				for epoch := 1; epoch <= 3; epoch++ {
					want := boundaryAt(uint64(epoch), epoch)
					payload := encode(t, want)
					var err error
					grew := allocDuring(func() { err = ReadTrainCheckpointInto(payload, dst) })
					if err != nil {
						t.Fatal(err)
					}
					if !sameBoundary(dst, want) {
						t.Fatalf("epoch %d: the in-place decode is not the boundary that was written", epoch)
					}
					fresh, err := ReadTrainCheckpoint(bytes.NewReader(payload))
					if err != nil || !sameBoundary(fresh, dst) {
						t.Fatalf("epoch %d: the fresh decode (%v) differs from the in-place one", epoch, err)
					}
					if !maps.Equal(dst.State, views) {
						t.Fatalf("epoch %d: the destination's state dict was replaced, not written into", epoch)
					}
					if epoch == 1 {
						buffers = maps.Clone(dst.OptState.Buffers)
						continue
					}
					if !maps.Equal(dst.OptState.Buffers, buffers) {
						t.Fatalf("epoch %d: the optimiser buffers were reallocated", epoch)
					}
					if grew > 16<<10 {
						t.Errorf("epoch %d: decoding into the destination allocated %d bytes", epoch, grew)
					}
				}
			})
		})
	}
}

// TestReadTrainCheckpointIntoIsAtomic: a payload that does not fit the
// destination, or does not decode, fails and leaves every tensor and
// field of the destination as it was — also when its bad part comes after
// tensors that do fit.
func TestReadTrainCheckpointIntoIsAtomic(t *testing.T) {
	good := boundaryAt(1, 1)
	reshaped := func(dict map[string]*tensor.Tensor, name string, shape ...int) map[string]*tensor.Tensor {
		out := maps.Clone(dict)
		out[name] = tensor.New(shape...)
		return out
	}
	with := func(edit func(ck *TrainCheckpoint)) []byte {
		ck := boundaryAt(2, 2)
		edit(ck)
		return encode(t, ck)
	}
	full := encode(t, boundaryAt(2, 2))
	cases := []struct {
		name     string
		payload  []byte
		mismatch bool
	}{
		// "fc.w" sorts after "emb": a decode without a dry pass would
		// have written "emb" before failing.
		{"mis-shaped weight", with(func(ck *TrainCheckpoint) { ck.State = reshaped(ck.State, "fc.w", 3, 8) }), true},
		{"weight of another rank", with(func(ck *TrainCheckpoint) { ck.State = reshaped(ck.State, "fc.w", 24) }), true},
		{"unknown weight", with(func(ck *TrainCheckpoint) { ck.State = reshaped(ck.State, "fc.x", 8, 3) }), true},
		{"missing weight", with(func(ck *TrainCheckpoint) { delete(ck.State, "fc.w") }), true},
		{"extra weight", with(func(ck *TrainCheckpoint) { ck.State = reshaped(ck.State, "fc.b", 3) }), true},
		{"mis-shaped momentum", with(func(ck *TrainCheckpoint) {
			ck.OptState.Buffers = reshaped(ck.OptState.Buffers, "fc.w", 8, 4)
		}), true},
		{"cut inside the RNG cursors", full[:len(full)-20], false},
		{"cut inside the momentum", full[:len(full)-200], false},
		{"foreign magic", withHeader(dictMagic), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The destination after one good boundary: its momentum set
			// exists and is reused.
			dst := &TrainCheckpoint{State: cloneDict(good.State)}
			if err := ReadTrainCheckpointInto(encode(t, good), dst); err != nil {
				t.Fatal(err)
			}
			opt := dst.OptState
			err := ReadTrainCheckpointInto(c.payload, dst)
			if err == nil {
				t.Fatal("decoded without error")
			}
			if c.mismatch != errors.Is(err, ErrMismatch) {
				t.Errorf("error %v: ErrMismatch %v, want %v", err, errors.Is(err, ErrMismatch), c.mismatch)
			}
			if !sameBoundary(dst, good) || dst.OptState != opt {
				t.Fatalf("the failed decode changed the destination: %v", err)
			}
		})
	}
}

// TestCheckTrainCheckpointMaterialisesNothing: checking a checkpoint
// allocates no tensor and reports what decoding it would.
func TestCheckTrainCheckpointMaterialisesNothing(t *testing.T) {
	ck := &TrainCheckpoint{Epoch: 2, Kind: "augmented-text",
		State:    map[string]*tensor.Tensor{"emb": tensor.New(4000, 64), "fc.w": tensor.New(64, 4)},
		OptState: &optim.State{Kind: optim.KindSGD, LR: 0.05, Buffers: map[string]*tensor.Tensor{"emb": tensor.New(4000, 64)}}}
	payload := encode(t, ck)
	var err error
	if grew := allocDuring(func() { err = CheckTrainCheckpoint(payload) }); err != nil || grew > 16<<10 {
		t.Fatalf("checking a %d-byte checkpoint: %v, %d bytes allocated", len(payload), err, grew)
	}
	for _, cut := range []int{1, 20, len(payload) / 2, len(payload) - 1} {
		_, want := ReadTrainCheckpoint(bytes.NewReader(payload[:cut]))
		if got := CheckTrainCheckpoint(payload[:cut]); (got == nil) != (want == nil) {
			t.Errorf("cut to %d bytes: check says %v, decode %v", cut, got, want)
		}
	}
}
