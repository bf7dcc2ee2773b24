// Package serialize defines the binary wire/disk formats for the artifacts
// Amalgam ships to and from the cloud: tensors, state dicts, datasets, and
// augmentation keys. The real prototype ships TorchScript modules and
// PyTorch tensor files; our formats play the same role (self-contained,
// name-anonymisable, versioned).
//
// All integers are little-endian. Every stream starts with a 4-byte magic
// and a format version so decoders fail fast on foreign input.
//
// Element payloads (float32 tensor data, int64 index lists) are the bulk
// of every stream and move as one copy: on a little-endian host the wire
// layout IS the slice's memory, so writers hand the slice's bytes to the
// io.Writer and readers fill the slice's bytes from the io.Reader (see
// wireBytes); the per-element loops remain as the big-endian path. Each
// Write… has an exact …Size, so a caller encoding to memory reserves the
// whole stream once.
package serialize

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"unsafe"

	"amalgam/internal/tensor"
)

// ErrWrongFormat marks a stream whose magic identifies a DIFFERENT
// serialize format (e.g. a state dict offered to the checkpoint reader).
// Callers that probe a file against several formats match on it with
// errors.Is; any other decode error means the stream claims to be the
// right format but is corrupt, and must not be silently retried as
// something else.
var ErrWrongFormat = errors.New("serialize: wrong format")

// ErrMismatch marks a well-formed stream that does not fit the tensors it
// is decoded into: an entry those tensors lack, or one of another shape.
var ErrMismatch = errors.New("serialize: stream does not fit its destination")

const (
	tensorMagic  = 0x414d5431 // "AMT1"
	dictMagic    = 0x414d4431 // "AMD1"
	bytesMagic   = 0x414d4231 // "AMB1"
	version      = 1
	maxDims      = 8
	maxNameLen   = 1 << 12
	maxElements  = min(1<<31, math.MaxInt/8) // on 32 bits, 8-byte payloads stay an int
	maxDictSize  = 1 << 20
	maxBytesItem = 1 << 16
	// allocChunk bounds what a decoder reserves on the strength of a
	// declared length alone: element payloads over it grow with the bytes
	// that actually arrive, so a forged header cannot reserve gigabytes
	// before sending a single element.
	allocChunk = 1 << 16
	headerSize = 6 // magic + version
)

// nativeLE reports that this host stores integers and floats in wire
// order. Tests clear it to run the portable path on any host.
var nativeLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wireBytes returns s's memory as its wire encoding when the two
// coincide — a little-endian host whose element is size bytes wide — and
// nil otherwise (or for an empty s).
func wireBytes[T float32 | int](s []T, size int) []byte {
	if !nativeLE || len(s) == 0 || int(unsafe.Sizeof(s[0])) != size {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*size)
}

// source is what the decoders read: a stream behind one bufio.Reader, or
// an in-memory reader used as it is.
type source interface {
	io.Reader
	io.ByteReader
}

// inMemory is a source that knows how many bytes it still holds
// (*bytes.Reader, *bytes.Buffer, *strings.Reader): what readChunked may
// reserve in one allocation, since those bytes have already arrived.
type inMemory interface {
	source
	Len() int
}

func buffered(r io.Reader) source {
	if m, ok := r.(inMemory); ok {
		return m
	}
	return bufio.NewReader(r)
}

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

// TensorSize is the exact length of WriteTensor's output.
func TensorSize(t *tensor.Tensor) int { return headerSize + tensorBodySize(t) }

// ReadTensor decodes a tensor written by WriteTensor.
func ReadTensor(r io.Reader) (*tensor.Tensor, error) {
	br := buffered(r)
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
	return writeElems(w, t.Data, 4, func(dst []byte, src []float32) {
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
	})
}

func tensorBodySize(t *tensor.Tensor) int {
	return 1 + 4*t.Dims() + 4*len(t.Data)
}

// writeElems encodes s as fixed-size wire elements: in one Write of its
// own memory where that is the wire layout, through encode in allocChunk
// pieces otherwise.
func writeElems[T float32 | int](w io.Writer, s []T, size int, encode func(dst []byte, src []T)) error {
	if raw := wireBytes(s, size); raw != nil {
		_, err := w.Write(raw)
		return err
	}
	buf := make([]byte, min(len(s)*size, allocChunk))
	for len(s) > 0 {
		k := min(len(s), len(buf)/size)
		encode(buf, s[:k])
		if _, err := w.Write(buf[:k*size]); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

func readTensorBody(r io.Reader) (*tensor.Tensor, error) {
	shape, n, err := readShape(r)
	if err != nil {
		return nil, err
	}
	data, err := readFloats(r, n, nil)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(data, shape...), nil
}

// readShape decodes a tensor body's rank and dimensions; n is their
// product, the number of elements that follow.
func readShape(r io.Reader) (shape []int, n int, err error) {
	var rank uint8
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return nil, 0, fmt.Errorf("serialize: read rank: %w", err)
	}
	if rank > maxDims {
		return nil, 0, fmt.Errorf("serialize: tensor rank %d exceeds %d", rank, maxDims)
	}
	shape = make([]int, rank)
	total := uint64(1)
	for i := range shape {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, 0, fmt.Errorf("serialize: read dim: %w", err)
		}
		shape[i] = int(d)
		// Checked per dimension, in 64 bits: four uint32 dims already wrap
		// a 64-bit product (to 0, which a single check at the end would
		// accept). On a 32-bit target a dim past int is refused too.
		if uint64(d) > math.MaxInt || d != 0 && total > maxElements/uint64(d) {
			return nil, 0, fmt.Errorf("serialize: tensor shape %v exceeds %d elements", shape[:i+1], maxElements)
		}
		total *= uint64(d)
	}
	return shape, int(total), nil
}

// readFloats decodes a tensor body's n elements: into into when it is
// non-nil (it holds exactly n), into a new slice otherwise.
func readFloats(r io.Reader, n int, into []float32) ([]float32, error) {
	data, err := readChunked(r, n, 4, func(dst []float32, src []byte) {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}, into)
	if err != nil {
		return nil, fmt.Errorf("serialize: read payload: %w", err)
	}
	return data, nil
}

// readChunked decodes n fixed-size wire elements, into into when it is
// non-nil (it holds exactly n). Otherwise the output is reserved whole
// only when r is in memory and holds them all; else it starts at
// allocChunk bytes and at most doubles as elements arrive — either way
// memory tracks the bytes received, never the declared count. Where the
// output's memory is the wire layout the reads land in it directly.
func readChunked[T float32 | int](r io.Reader, n, size int, decode func(dst []T, src []byte), into []T) ([]T, error) {
	out := into[:0:len(into)]
	if into == nil {
		reserve := min(n, allocChunk/size)
		if m, ok := r.(inMemory); ok && n <= m.Len()/size {
			reserve = n
		}
		out = make([]T, 0, reserve)
	}
	var buf []byte
	for len(out) < n {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(n, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		dst := out[len(out):min(n, cap(out))]
		if raw := wireBytes(dst, size); raw != nil {
			if _, err := io.ReadFull(r, raw); err != nil {
				return nil, err
			}
		} else {
			if buf == nil {
				buf = make([]byte, min(n*size, allocChunk))
			}
			dst = dst[:min(len(dst), len(buf)/size)]
			if _, err := io.ReadFull(r, buf[:len(dst)*size]); err != nil {
				return nil, err
			}
			decode(dst, buf)
		}
		out = out[:len(out)+len(dst)]
	}
	return out, nil
}

// skip moves past n bytes of a dry pass's source — a *bytes.Reader, the
// payload in memory — and fails as a truncated stream when they are not
// all there.
func skip(r io.Reader, n int) error {
	if m, ok := r.(*bytes.Reader); ok && m.Len() >= n {
		_, err := m.Seek(int64(n), io.SeekCurrent)
		return err
	}
	return io.ErrUnexpectedEOF
}

// WriteStateDict encodes a name→tensor map with deterministic (sorted)
// entry order so byte output is reproducible.
func WriteStateDict(w io.Writer, dict map[string]*tensor.Tensor) error {
	bw := bufio.NewWriter(w)
	if err := writeStateDictTo(bw, dict); err != nil {
		return err
	}
	return bw.Flush()
}

// writeStateDictTo is WriteStateDict for callers that write several
// sections through one buffered writer.
func writeStateDictTo(w io.Writer, dict map[string]*tensor.Tensor) error {
	if err := writeHeader(w, dictMagic); err != nil {
		return err
	}
	names := slices.Sorted(maps.Keys(dict))
	if err := binary.Write(w, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeString(w, name); err != nil {
			return err
		}
		if err := writeTensorBody(w, dict[name]); err != nil {
			return err
		}
	}
	return nil
}

// StateDictSize is the exact length of WriteStateDict's output.
func StateDictSize(dict map[string]*tensor.Tensor) int {
	n := headerSize + 4
	for _, name := range slices.Sorted(maps.Keys(dict)) {
		n += 2 + len(name) + tensorBodySize(dict[name])
	}
	return n
}

// ReadStateDict decodes a map written by WriteStateDict.
func ReadStateDict(r io.Reader) (map[string]*tensor.Tensor, error) {
	return readStateDictFrom(buffered(r), nil, false)
}

// readStateDictFrom decodes a state dict without adding its own
// buffering, reading exactly the dict's bytes — callers that decode
// several sections from one stream (the checkpoint reader) share a
// single source across sections instead of letting a nested
// bufio.Reader read ahead past the section boundary.
//
// With into non-nil the dict must name exactly into's tensors, in the
// sorted order every writer uses, each with its shape, and the elements
// land in them (the map returned is into); anything else is ErrMismatch.
// dry reads every header, name and shape, and checks that the elements
// are there, but allocates and writes no tensor.
func readStateDictFrom(r source, into map[string]*tensor.Tensor, dry bool) (map[string]*tensor.Tensor, error) {
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
	if into != nil && int(n) != len(into) {
		return nil, fmt.Errorf("serialize: dict of %d entries for %d tensors: %w", n, len(into), ErrMismatch)
	}
	out := into
	if out == nil {
		out = make(map[string]*tensor.Tensor)
	}
	prev := ""
	for i := uint32(0); i < n; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		shape, size, err := readShape(r)
		if err != nil {
			return nil, fmt.Errorf("serialize: entry %q: %w", name, err)
		}
		var dst []float32
		if into != nil {
			t := into[name]
			if t == nil || (i > 0 && name <= prev) || !slices.Equal(t.Shape(), shape) {
				return nil, fmt.Errorf("serialize: entry %q %v does not fit its destination: %w", name, shape, ErrMismatch)
			}
			prev, dst = name, t.Data
		}
		var data []float32
		if dry {
			err = skip(r, 4*size)
		} else if data, err = readFloats(r, size, dst); err == nil && into == nil {
			out[name] = tensor.FromSlice(data, shape...)
		}
		if err != nil {
			return nil, fmt.Errorf("serialize: entry %q: %w", name, err)
		}
	}
	return out, nil
}

// writeBytesDictTo encodes a name→opaque-bytes map (a checkpoint's RNG
// stream cursors) in deterministic sorted order. The layout parallels the
// state dict: magic, version, count, then (name, length-prefixed bytes)
// entries.
func writeBytesDictTo(w io.Writer, dict map[string][]byte) error {
	if err := writeHeader(w, bytesMagic); err != nil {
		return err
	}
	names := slices.Sorted(maps.Keys(dict))
	if err := binary.Write(w, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeString(w, name); err != nil {
			return err
		}
		b := dict[name]
		if len(b) > maxBytesItem {
			return fmt.Errorf("serialize: bytes entry %q length %d exceeds %d", name, len(b), maxBytesItem)
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(b))); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func bytesDictSize(dict map[string][]byte) int {
	n := headerSize + 4
	for _, name := range slices.Sorted(maps.Keys(dict)) {
		n += 2 + len(name) + 4 + len(dict[name])
	}
	return n
}

// readBytesDictFrom decodes a map written by writeBytesDictTo without
// adding buffering — like readStateDictFrom, for the checkpoint reader's
// one shared source.
func readBytesDictFrom(r source) (map[string][]byte, error) {
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

// WriteIntSlice encodes a []int (augmentation-key index lists, token
// samples) as a uint32 count and int64 elements.
func WriteIntSlice(w io.Writer, s []int) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	return writeElems(w, s, 8, func(dst []byte, src []int) {
		for i, v := range src {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(int64(v)))
		}
	})
}

// IntSliceSize is the exact length of WriteIntSlice's output.
func IntSliceSize(s []int) int { return 4 + 8*len(s) }

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
	}, nil)
}
