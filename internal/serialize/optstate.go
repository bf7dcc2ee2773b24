package serialize

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"amalgam/internal/optim"
)

// optStateMagic ("AMO1") frames an optimiser state on the wire (msgOptState
// frames): kind, step counter, capture-time LR, then the named buffer dict.
// Checkpoints carry the same scalars and buffers in their own sections.
const optStateMagic = 0x414d4f31

// WriteOptState encodes a (non-nil) optimiser state for the wire.
func WriteOptState(w io.Writer, st *optim.State) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, optStateMagic); err != nil {
		return err
	}
	if err := writeOptScalars(bw, st); err != nil {
		return err
	}
	if err := writeStateDictTo(bw, st.Buffers); err != nil {
		return err
	}
	return bw.Flush()
}

// OptStateSize is the exact length of WriteOptState's output.
func OptStateSize(st *optim.State) int {
	return headerSize + optScalarsSize(st) + StateDictSize(st.Buffers)
}

// ReadOptState decodes a state written by WriteOptState. Any other magic
// fails with ErrWrongFormat.
func ReadOptState(r io.Reader) (*optim.State, error) {
	br := buffered(r)
	if err := readHeader(br, optStateMagic); err != nil {
		return nil, err
	}
	st, err := readOptScalars(br)
	if err != nil {
		return nil, err
	}
	if st.Buffers, err = readStateDictFrom(br); err != nil {
		return nil, err
	}
	return st, nil
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
