package serialize

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// TestLoadModelArchitectureMismatch pins that a state dict written from one
// architecture fails to load into another, and that the failed load leaves
// the model untouched.
func TestLoadModelArchitectureMismatch(t *testing.T) {
	small := models.NewLeNet5(tensor.NewRNG(1), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3})
	var buf bytes.Buffer
	if err := WriteStateDict(&buf, nn.StateDict(small)); err != nil {
		t.Fatal(err)
	}
	dict, err := ReadStateDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	big := models.NewLeNet5(tensor.NewRNG(1), models.CVConfig{InC: 3, InH: 12, InW: 12, Classes: 3})
	before := big.Conv1.W.Val.Clone()
	if err := nn.LoadStateDict(big, dict); err == nil {
		t.Fatal("architecture mismatch should fail")
	}
	// And must not have partially mutated the model.
	if !big.Conv1.W.Val.Equal(before) {
		t.Fatal("failed load must not mutate the model")
	}
}

func TestTrainCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.amc")
	m := models.NewLeNet5(tensor.NewRNG(1), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3})
	dict := nn.StateDict(m)
	vel := map[string]*tensor.Tensor{}
	for name, src := range dict {
		v := tensor.New(src.Shape()...)
		tensor.NewRNG(9).FillUniform(v, -1, 1)
		vel[name] = v
	}
	opt := &optim.State{Kind: optim.KindSGD, LR: 0.05, Buffers: vel}
	in := &TrainCheckpoint{Epoch: 7, Kind: "augmented-cv", State: dict, OptState: opt}
	if err := SaveTrainCheckpoint(path, in); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temporary file must not linger")
	}
	ck, err := LoadTrainCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 7 || ck.Kind != "augmented-cv" || len(ck.State) != len(dict) || ck.OptState.NumBuffers() != len(vel) {
		t.Fatalf("round trip mangled the checkpoint: %d %q %d/%d", ck.Epoch, ck.Kind, len(ck.State), ck.OptState.NumBuffers())
	}
	if ck.OptState.Kind != optim.KindSGD || ck.OptState.Step != 0 {
		t.Fatalf("SGD optimiser state mangled: kind %q step %d", ck.OptState.Kind, ck.OptState.Step)
	}
	for name, src := range dict {
		if !ck.State[name].Equal(src) {
			t.Fatalf("entry %q not restored", name)
		}
	}
	for name, src := range vel {
		if !ck.OptState.Buffers[name].Equal(src) {
			t.Fatalf("optimiser entry %q not restored", name)
		}
	}
}

// TestTrainCheckpointNoOptState pins the momentum-free layout: no
// optimiser dict on disk, nil OptState back.
func TestTrainCheckpointNoOptState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.amc")
	m := models.NewLeNet5(tensor.NewRNG(1), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3})
	in := &TrainCheckpoint{Epoch: 2, Kind: "augmented-text", State: nn.StateDict(m)}
	if err := SaveTrainCheckpoint(path, in); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadTrainCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.OptState != nil {
		t.Fatalf("momentum-free checkpoint returned %d optimiser entries", ck.OptState.NumBuffers())
	}
	if ck.Epoch != 2 || ck.Kind != "augmented-text" {
		t.Fatalf("epoch/kind mangled: %d %q", ck.Epoch, ck.Kind)
	}
}

// TestTrainCheckpointRejectsForeignInput pins magic/format discrimination:
// a plain state-dict file is not a training checkpoint and vice versa.
func TestTrainCheckpointRejectsForeignInput(t *testing.T) {
	m := models.NewLeNet5(tensor.NewRNG(1), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3})

	var dict bytes.Buffer
	if err := WriteStateDict(&dict, nn.StateDict(m)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrainCheckpoint(&dict); !errors.Is(err, ErrWrongFormat) {
		t.Fatalf("state dict loaded as a training checkpoint: %v", err)
	}
	// The retired AMC1/AMC2 magics are foreign input like any other.
	for _, magic := range []uint32{0x414d4331, 0x414d4332} {
		var old bytes.Buffer
		if err := writeHeader(&old, magic); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrainCheckpoint(&old); !errors.Is(err, ErrWrongFormat) {
			t.Fatalf("magic %#x read as a training checkpoint: %v", magic, err)
		}
	}

	var ck bytes.Buffer
	if err := WriteTrainCheckpoint(&ck, &TrainCheckpoint{Epoch: 1, State: nn.StateDict(m)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStateDict(&ck); !errors.Is(err, ErrWrongFormat) {
		t.Fatalf("training checkpoint read as a bare state dict: %v", err)
	}
}

func TestTrainCheckpointNegativeEpoch(t *testing.T) {
	if err := SaveTrainCheckpoint(filepath.Join(t.TempDir(), "x.amc"), &TrainCheckpoint{Epoch: -1}); err == nil {
		t.Fatal("negative epoch should error")
	}
}
