package serialize

import (
	"bytes"
	"math/bits"
	"strings"
	"testing"

	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

func TestTensorRoundtrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	shapes := [][]int{{1}, {7}, {3, 4}, {2, 3, 4, 5}}
	for _, shape := range shapes {
		x := tensor.New(shape...)
		rng.FillNormal(x, 0, 3)
		var buf bytes.Buffer
		if err := WriteTensor(&buf, x); err != nil {
			t.Fatal(err)
		}
		y, err := ReadTensor(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !x.Equal(y) {
			t.Fatalf("roundtrip lost data for shape %v", shape)
		}
	}
}

func TestTensorBadMagic(t *testing.T) {
	if _, err := ReadTensor(bytes.NewReader([]byte{0, 1, 2, 3, 4, 5, 6, 7})); err == nil {
		t.Fatal("garbage input should fail")
	}
}

func TestTensorTruncated(t *testing.T) {
	x := tensor.Ones(4, 4)
	var buf bytes.Buffer
	if err := WriteTensor(&buf, x); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadTensor(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

func TestStateDictRoundtrip(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := nn.NewLinear(rng, 6, 3)
	dict := nn.StateDict(l)
	var buf bytes.Buffer
	if err := WriteStateDict(&buf, dict); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStateDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(dict) {
		t.Fatalf("entry count %d vs %d", len(got), len(dict))
	}
	for name, src := range dict {
		if !got[name].Equal(src) {
			t.Fatalf("entry %q corrupted", name)
		}
	}
}

func TestStateDictDeterministicBytes(t *testing.T) {
	dict := map[string]*tensor.Tensor{
		"b": tensor.Ones(2),
		"a": tensor.Ones(3),
		"c": tensor.Ones(1),
	}
	var b1, b2 bytes.Buffer
	if err := WriteStateDict(&b1, dict); err != nil {
		t.Fatal(err)
	}
	if err := WriteStateDict(&b2, dict); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("state dict encoding must be byte-deterministic")
	}
}

func TestIntSliceRoundtrip(t *testing.T) {
	s := []int{0, -5, 1 << min(40, bits.UintSize-2), 42} // past 32 bits where int has them
	var buf bytes.Buffer
	if err := WriteIntSlice(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIntSlice(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("int slice roundtrip: %v vs %v", got, s)
		}
	}
}

func TestLongNameRejected(t *testing.T) {
	dict := map[string]*tensor.Tensor{strings.Repeat("x", 5000): tensor.Ones(1)}
	var buf bytes.Buffer
	if err := WriteStateDict(&buf, dict); err == nil {
		t.Fatal("oversized name should be rejected")
	}
}
