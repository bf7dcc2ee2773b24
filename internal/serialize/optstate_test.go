package serialize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

func testBuffers(names ...string) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(names))
	rng := tensor.NewRNG(11)
	for _, n := range names {
		v := tensor.New(3, 2)
		rng.FillNormal(v, 0, 1)
		out[n] = v
	}
	return out
}

func statesEqual(t *testing.T, got, want *optim.State) {
	t.Helper()
	if got.Kind != want.Kind || got.Step != want.Step || got.LR != want.LR {
		t.Fatalf("scalars mangled: got %q/%d/%v, want %q/%d/%v",
			got.Kind, got.Step, got.LR, want.Kind, want.Step, want.LR)
	}
	if len(got.Buffers) != len(want.Buffers) {
		t.Fatalf("buffer count %d, want %d", len(got.Buffers), len(want.Buffers))
	}
	for name, src := range want.Buffers {
		if !got.Buffers[name].Equal(src) {
			t.Fatalf("buffer %q not restored", name)
		}
	}
}

// TestTrainCheckpointAMC3Roundtrip pins the optimiser and RNG sections:
// an Adam job's checkpoint restores kind, step, LR, buffers, and cursors,
// and a file cut before its mandatory RNG flag is truncated, not valid.
func TestTrainCheckpointAMC3Roundtrip(t *testing.T) {
	state := testBuffers("w", "b")
	in := &TrainCheckpoint{
		Epoch: 3, Kind: "augmented-lm", State: state,
		OptState: &optim.State{
			Kind: optim.KindAdam, Step: 17, LR: 0.0005,
			Buffers: testBuffers("m/w", "v/w"),
		},
		RNG: map[string][]byte{"orig.drop": {1, 2, 3}},
	}
	var buf bytes.Buffer
	if err := WriteTrainCheckpoint(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()[:4]); got != ckptMagic {
		t.Fatalf("checkpoint wrote magic %#x, want AMC3", got)
	}
	ck, err := ReadTrainCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 3 || ck.Kind != "augmented-lm" {
		t.Fatalf("epoch/kind mangled: %d %q", ck.Epoch, ck.Kind)
	}
	statesEqual(t, ck.OptState, in.OptState)
	if !bytes.Equal(ck.RNG["orig.drop"], []byte{1, 2, 3}) {
		t.Fatal("RNG section lost through the AMC3 layout")
	}

	in.RNG = nil
	buf.Reset()
	if err := WriteTrainCheckpoint(&buf, in); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1] // everything but the RNG flag byte
	if _, err := ReadTrainCheckpoint(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("checkpoint without its RNG flag: got %v, want ErrUnexpectedEOF", err)
	}
}
