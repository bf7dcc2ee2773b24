package serialize

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// saveAtomic writes path through a temporary file renamed into place, so a
// crash mid-save never leaves a truncated checkpoint.
func saveAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serialize: create checkpoint: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serialize: write checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ckptMagic ("AMC3") heads a training checkpoint: a resumable snapshot
// pairing a state dict with the number of fully completed epochs.
// Trainers write one mid-job (every N epochs, and on cancellation) so an
// interrupted cloud job can be resumed from the last epoch boundary. It is
// the one encoding of an epoch boundary, on disk and on the wire alike: a
// request's starting state (msgInit), every mid-job snapshot
// (msgCheckpoint) and a job's final state (msgState) are these bytes.
// Layout: header, epoch, job kind, optimiser flag [+ optimiser kind, step,
// LR], model state dict, [optimiser buffer dict], RNG flag [+ RNG bytes
// dict].
const ckptMagic = 0x414d4333

// TrainCheckpoint is a resumable training snapshot.
type TrainCheckpoint struct {
	// Epoch counts fully completed epochs (the resume point).
	Epoch int
	// Kind is the job's wire spec kind ("augmented-cv", "augmented-text",
	// "augmented-lm", ...), so a checkpoint can be matched against the job
	// it is loaded into.
	Kind string
	// State is the full (augmented-model) state dict.
	State map[string]*tensor.Tensor
	// OptState holds the optimiser's resume state: its kind, scalar
	// counters (Adam's bias-correction step), and named buffers (SGD
	// momentum, Adam moments) — what makes a resumed run bit-identical to
	// an uninterrupted one. Nil when the run had accumulated none.
	OptState *optim.State
	// RNG holds per-layer random-stream cursors (dropout PCG state) keyed
	// by stream name ("orig.drop", "orig.block0.drop", ...), so a resumed
	// Dropout > 0 run replays masks from the interruption point. Nil for
	// models without stochastic layers.
	RNG map[string][]byte
}

// WriteTrainCheckpoint encodes a training checkpoint.
func WriteTrainCheckpoint(w io.Writer, ck *TrainCheckpoint) error {
	if ck.Epoch < 0 {
		return fmt.Errorf("serialize: checkpoint epoch must be ≥ 0, got %d", ck.Epoch)
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, ckptMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(ck.Epoch)); err != nil {
		return err
	}
	if err := writeString(bw, ck.Kind); err != nil {
		return err
	}
	hasOpt := !ck.OptState.Empty()
	if err := binary.Write(bw, binary.LittleEndian, hasOpt); err != nil {
		return err
	}
	if hasOpt {
		if err := writeOptScalars(bw, ck.OptState); err != nil {
			return err
		}
	}
	if err := writeStateDictTo(bw, ck.State); err != nil {
		return err
	}
	if hasOpt {
		if err := writeStateDictTo(bw, ck.OptState.Buffers); err != nil {
			return err
		}
	}
	hasRNG := len(ck.RNG) > 0
	if err := binary.Write(bw, binary.LittleEndian, hasRNG); err != nil {
		return err
	}
	if hasRNG {
		if err := writeBytesDictTo(bw, ck.RNG); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TrainCheckpointSize is the exact length of WriteTrainCheckpoint's
// output.
func TrainCheckpointSize(ck *TrainCheckpoint) int {
	n := headerSize + 4 + 2 + len(ck.Kind) + 1 + StateDictSize(ck.State) + 1
	if !ck.OptState.Empty() {
		n += optScalarsSize(ck.OptState) + StateDictSize(ck.OptState.Buffers)
	}
	if len(ck.RNG) > 0 {
		n += bytesDictSize(ck.RNG)
	}
	return n
}

// ReadTrainCheckpoint decodes a checkpoint written by
// WriteTrainCheckpoint. Any other magic fails with ErrWrongFormat.
func ReadTrainCheckpoint(r io.Reader) (*TrainCheckpoint, error) {
	ck := &TrainCheckpoint{}
	if err := readTrainCheckpoint(buffered(r), ck, false); err != nil {
		return nil, err
	}
	return ck, nil
}

// ReadTrainCheckpointInto decodes a checkpoint held whole in payload into
// dst's own tensors: the weights into dst.State's, which the checkpoint
// must name exactly, each with its shape (ErrMismatch otherwise); the
// optimiser buffers into dst.OptState's, under the same rule, or into a
// set allocated here when dst holds none. Epoch, Kind, the optimiser's
// scalars and the RNG cursors are replaced. The decode is atomic: a dry
// pass first reads every header, name and shape against dst, and only
// then is a byte written — on any error dst is as it was.
func ReadTrainCheckpointInto(payload []byte, dst *TrainCheckpoint) error {
	probe := *dst
	if err := readTrainCheckpoint(bytes.NewReader(payload), &probe, true); err != nil {
		return err
	}
	return readTrainCheckpoint(bytes.NewReader(payload), dst, false)
}

// CheckTrainCheckpoint reports the error ReadTrainCheckpoint would return
// for payload, without materialising a tensor.
func CheckTrainCheckpoint(payload []byte) error {
	return readTrainCheckpoint(bytes.NewReader(payload), &TrainCheckpoint{}, true)
}

// readTrainCheckpoint decodes one checkpoint into ck: into the tensors of
// ck.State and ck.OptState's buffers where ck holds them, into new ones
// where it does not. dry reads and checks everything and writes no
// tensor (see readStateDictFrom).
func readTrainCheckpoint(br source, ck *TrainCheckpoint, dry bool) error {
	// One source for the whole stream: the dict sections are decoded
	// with the non-wrapping reader so the model dict cannot read ahead
	// into the optimiser dict.
	if err := readHeader(br, ckptMagic); err != nil {
		return err
	}
	var e uint32
	if err := binary.Read(br, binary.LittleEndian, &e); err != nil {
		return fmt.Errorf("serialize: read checkpoint epoch: %w", err)
	}
	kind, err := readString(br)
	if err != nil {
		return fmt.Errorf("serialize: read checkpoint kind: %w", err)
	}
	hasOpt, err := readFlag(br)
	if err != nil {
		return fmt.Errorf("serialize: read optimiser flag: %w", err)
	}
	var opt *optim.State
	if hasOpt {
		if opt, err = readOptScalars(br); err != nil {
			return err
		}
	}
	state, err := readStateDictFrom(br, ck.State, dry)
	if err != nil {
		return err
	}
	if hasOpt {
		var into map[string]*tensor.Tensor
		if ck.OptState != nil && len(ck.OptState.Buffers) > 0 {
			into = ck.OptState.Buffers
		}
		if opt.Buffers, err = readStateDictFrom(br, into, dry); err != nil {
			return fmt.Errorf("serialize: optimiser state: %w", err)
		}
	}
	hasRNG, err := readFlag(br)
	if err != nil {
		return fmt.Errorf("serialize: read RNG flag: %w", err)
	}
	var rng map[string][]byte
	if hasRNG {
		if rng, err = readBytesDictFrom(br); err != nil {
			return fmt.Errorf("serialize: RNG state: %w", err)
		}
	}
	ck.Epoch, ck.Kind, ck.State, ck.OptState, ck.RNG = int(e), kind, state, opt, rng
	return nil
}

// writeOptScalars encodes the part of an optimiser state that is not a
// tensor: kind, step counter, capture-time LR.
func writeOptScalars(w io.Writer, st *optim.State) error {
	if err := writeString(w, st.Kind); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(st.Step)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, math.Float64bits(st.LR))
}

func optScalarsSize(st *optim.State) int { return 2 + len(st.Kind) + 8 + 8 }

func readOptScalars(r io.Reader) (*optim.State, error) {
	kind, err := readString(r)
	if err != nil {
		return nil, fmt.Errorf("serialize: read optimiser kind: %w", err)
	}
	var step, lrBits uint64
	if err := binary.Read(r, binary.LittleEndian, &step); err != nil {
		return nil, fmt.Errorf("serialize: read optimiser step: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &lrBits); err != nil {
		return nil, fmt.Errorf("serialize: read optimiser lr: %w", err)
	}
	return &optim.State{Kind: kind, Step: int(step), LR: math.Float64frombits(lrBits)}, nil
}

// readFlag decodes one presence byte; anything but 0 or 1 is corruption,
// and so is a stream that ends before it.
func readFlag(r io.ByteReader) (bool, error) {
	b, err := r.ReadByte()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("bad flag byte %d", b)
	}
	return b == 1, nil
}

// SaveTrainCheckpoint writes a checkpoint to path atomically.
func SaveTrainCheckpoint(path string, ck *TrainCheckpoint) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteTrainCheckpoint(w, ck) })
}

// LoadTrainCheckpoint reads a checkpoint from path.
func LoadTrainCheckpoint(path string) (*TrainCheckpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrainCheckpoint(f)
}
