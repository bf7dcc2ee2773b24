// Package serialize defines the binary wire/disk formats for the artifacts
// Amalgam ships to and from the cloud: tensors, state dicts, datasets, and
// augmentation keys. The real prototype ships TorchScript modules and
// PyTorch tensor files; our formats play the same role (self-contained,
// name-anonymisable, versioned).
//
// All integers are little-endian. Every stream starts with a 4-byte magic
// and a format version so decoders fail fast on foreign input.
package serialize

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"amalgam/internal/tensor"
)

// ErrWrongFormat marks a stream whose magic identifies a DIFFERENT
// serialize format (e.g. a state dict offered to the checkpoint reader).
// Callers that probe a file against several formats match on it with
// errors.Is; any other decode error means the stream claims to be the
// right format but is corrupt, and must not be silently retried as
// something else.
var ErrWrongFormat = errors.New("serialize: wrong format")

const (
	tensorMagic  = 0x414d5431 // "AMT1"
	dictMagic    = 0x414d4431 // "AMD1"
	bytesMagic   = 0x414d4231 // "AMB1"
	version      = 1
	maxDims      = 8
	maxNameLen   = 1 << 12
	maxElements  = 1 << 31
	maxDictSize  = 1 << 20
	maxBytesItem = 1 << 16
	// allocChunk bounds what a decoder reserves on the strength of a
	// declared length alone: element payloads over it grow with the bytes
	// that actually arrive, so a forged header cannot reserve gigabytes
	// before sending a single element.
	allocChunk = 1 << 16
)

// WriteTensor encodes t.
func WriteTensor(w io.Writer, t *tensor.Tensor) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, tensorMagic); err != nil {
		return err
	}
	if err := writeTensorBody(bw, t); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadTensor decodes a tensor written by WriteTensor.
func ReadTensor(r io.Reader) (*tensor.Tensor, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, tensorMagic); err != nil {
		return nil, err
	}
	return readTensorBody(br)
}

func writeHeader(w io.Writer, magic uint32) error {
	if err := binary.Write(w, binary.LittleEndian, magic); err != nil {
		return fmt.Errorf("serialize: write magic: %w", err)
	}
	return binary.Write(w, binary.LittleEndian, uint16(version))
}

func readHeader(r io.Reader, magic uint32) error {
	var m uint32
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return fmt.Errorf("serialize: read magic: %w", err)
	}
	if m != magic {
		return fmt.Errorf("serialize: bad magic %#x, want %#x: %w", m, magic, ErrWrongFormat)
	}
	var v uint16
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return fmt.Errorf("serialize: read version: %w", err)
	}
	if v != version {
		return fmt.Errorf("serialize: unsupported version %d", v)
	}
	return nil
}

func writeTensorBody(w io.Writer, t *tensor.Tensor) error {
	shape := t.Shape()
	if len(shape) > maxDims {
		return fmt.Errorf("serialize: tensor rank %d exceeds %d", len(shape), maxDims)
	}
	if err := binary.Write(w, binary.LittleEndian, uint8(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	buf := make([]byte, 4*len(t.Data))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readTensorBody(r io.Reader) (*tensor.Tensor, error) {
	var rank uint8
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return nil, fmt.Errorf("serialize: read rank: %w", err)
	}
	if rank > maxDims {
		return nil, fmt.Errorf("serialize: tensor rank %d exceeds %d", rank, maxDims)
	}
	shape := make([]int, rank)
	n := 1
	for i := range shape {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, fmt.Errorf("serialize: read dim: %w", err)
		}
		shape[i] = int(d)
		// Checked per dimension: four uint32 dims already wrap an int64
		// product (to 0, which a single check at the end would accept).
		if d != 0 && n > maxElements/int(d) {
			return nil, fmt.Errorf("serialize: tensor shape %v exceeds %d elements", shape[:i+1], maxElements)
		}
		n *= int(d)
	}
	data, err := readChunked(r, n, 4, func(dst []float32, src []byte) {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("serialize: read payload: %w", err)
	}
	return tensor.FromSlice(data, shape...), nil
}

// readChunked decodes n fixed-size wire elements, reading at most
// allocChunk bytes at a time; the output at most doubles as chunks
// arrive, so memory tracks the bytes received, never the declared count.
func readChunked[T any](r io.Reader, n, size int, decode func(dst []T, src []byte)) ([]T, error) {
	buf := make([]byte, min(n*size, allocChunk))
	out := make([]T, 0, len(buf)/size)
	for len(out) < n {
		k := min(n-len(out), len(buf)/size)
		if _, err := io.ReadFull(r, buf[:k*size]); err != nil {
			return nil, err
		}
		if len(out)+k > cap(out) {
			grown := make([]T, len(out), min(n, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		out = out[:len(out)+k]
		decode(out[len(out)-k:], buf)
	}
	return out, nil
}

// WriteStateDict encodes a name→tensor map with deterministic (sorted)
// entry order so byte output is reproducible.
func WriteStateDict(w io.Writer, dict map[string]*tensor.Tensor) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, dictMagic); err != nil {
		return err
	}
	names := sortedKeys(dict)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeString(bw, name); err != nil {
			return err
		}
		if err := writeTensorBody(bw, dict[name]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadStateDict decodes a map written by WriteStateDict.
func ReadStateDict(r io.Reader) (map[string]*tensor.Tensor, error) {
	return readStateDictFrom(bufio.NewReader(r))
}

// readStateDictFrom decodes a state dict without adding its own
// buffering, reading exactly the dict's bytes — callers that decode
// several sections from one stream (the checkpoint reader) share a
// single buffered reader across sections instead of letting a nested
// bufio.Reader read ahead past the section boundary.
func readStateDictFrom(r io.Reader) (map[string]*tensor.Tensor, error) {
	if err := readHeader(r, dictMagic); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxDictSize {
		return nil, fmt.Errorf("serialize: dict with %d entries rejected", n)
	}
	out := make(map[string]*tensor.Tensor)
	for i := uint32(0); i < n; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		t, err := readTensorBody(r)
		if err != nil {
			return nil, fmt.Errorf("serialize: entry %q: %w", name, err)
		}
		out[name] = t
	}
	return out, nil
}

// WriteBytesDict encodes a name→opaque-bytes map (RNG stream cursors) in
// deterministic sorted order. The layout parallels the state dict: magic,
// version, count, then (name, length-prefixed bytes) entries.
func WriteBytesDict(w io.Writer, dict map[string][]byte) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, bytesMagic); err != nil {
		return err
	}
	names := make([]string, 0, len(dict))
	//amalgam:allow detcheck keys are collected then sorted below; wire order never sees map order
	for k := range dict {
		names = append(names, k)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeString(bw, name); err != nil {
			return err
		}
		b := dict[name]
		if len(b) > maxBytesItem {
			return fmt.Errorf("serialize: bytes entry %q length %d exceeds %d", name, len(b), maxBytesItem)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(b))); err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBytesDict decodes a map written by WriteBytesDict.
func ReadBytesDict(r io.Reader) (map[string][]byte, error) {
	return readBytesDictFrom(bufio.NewReader(r))
}

// readBytesDictFrom decodes a bytes dict without adding buffering — like
// readStateDictFrom, for callers decoding several sections from one
// buffered stream.
func readBytesDictFrom(r io.Reader) (map[string][]byte, error) {
	if err := readHeader(r, bytesMagic); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxDictSize {
		return nil, fmt.Errorf("serialize: bytes dict with %d entries rejected", n)
	}
	out := make(map[string][]byte)
	for i := uint32(0); i < n; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		var ln uint32
		if err := binary.Read(r, binary.LittleEndian, &ln); err != nil {
			return nil, err
		}
		if ln > maxBytesItem {
			return nil, fmt.Errorf("serialize: bytes entry %q length %d rejected", name, ln)
		}
		b := make([]byte, ln)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("serialize: entry %q: %w", name, err)
		}
		out[name] = b
	}
	return out, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > maxNameLen {
		return fmt.Errorf("serialize: string length %d exceeds %d", len(s), maxNameLen)
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", fmt.Errorf("serialize: string length %d exceeds %d", n, maxNameLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// WriteIntSlice encodes a []int (augmentation-key index lists).
func WriteIntSlice(w io.Writer, s []int) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	for _, v := range s {
		if err := binary.Write(w, binary.LittleEndian, int64(v)); err != nil {
			return err
		}
	}
	return nil
}

// ReadIntSlice decodes a slice written by WriteIntSlice.
func ReadIntSlice(r io.Reader) ([]int, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxElements {
		return nil, fmt.Errorf("serialize: int slice with %d entries rejected", n)
	}
	return readChunked(r, int(n), 8, func(dst []int, src []byte) {
		for i := range dst {
			dst[i] = int(int64(binary.LittleEndian.Uint64(src[8*i:])))
		}
	})
}

func sortedKeys(m map[string]*tensor.Tensor) []string {
	keys := make([]string, 0, len(m))
	//amalgam:allow detcheck keys are collected then sorted below; callers never see map order
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
