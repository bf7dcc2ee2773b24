package data

import (
	"testing"

	"amalgam/internal/tensor"
)

func TestGenerateImagesShapesAndRange(t *testing.T) {
	tests := []struct {
		name string
		ds   *ImageDataset
		c, h int
		cls  int
	}{
		{"mnist", SyntheticMNIST(50, 1), 1, 28, 10},
		{"cifar10", SyntheticCIFAR10(40, 1), 3, 32, 10},
		{"cifar100", SyntheticCIFAR100(200, 1), 3, 32, 100},
		{"imagenette", SyntheticImagenette(2, 1), 3, 224, 10},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ds.C() != tc.c || tc.ds.H() != tc.h || tc.ds.W() != tc.h {
				t.Fatalf("geometry %dx%dx%d", tc.ds.C(), tc.ds.H(), tc.ds.W())
			}
			if tc.ds.Classes != tc.cls {
				t.Fatalf("classes %d, want %d", tc.ds.Classes, tc.cls)
			}
			for _, v := range tc.ds.Images.Data {
				if v < 0 || v > 1 {
					t.Fatalf("pixel %v outside [0,1]", v)
				}
			}
			for _, l := range tc.ds.Labels {
				if l < 0 || l >= tc.cls {
					t.Fatalf("label %d out of range", l)
				}
			}
		})
	}
}

func TestGenerateImagesDeterministic(t *testing.T) {
	a := SyntheticCIFAR10(10, 42)
	b := SyntheticCIFAR10(10, 42)
	if !a.Images.Equal(b.Images) {
		t.Fatal("same seed must give identical datasets")
	}
	c := SyntheticCIFAR10(10, 43)
	if a.Images.Equal(c.Images) {
		t.Fatal("different seeds should differ")
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Mean intra-class pixel distance must be smaller than inter-class
	// distance, otherwise the synthetic task is unlearnable.
	ds := SyntheticMNIST(100, 7)
	dist := func(i, j int) float64 {
		a, b := ds.Image(i), ds.Image(j)
		var s float64
		for k := range a.Data {
			d := float64(a.Data[k] - b.Data[k])
			s += d * d
		}
		return s
	}
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			if ds.Labels[i] == ds.Labels[j] {
				intra += dist(i, j)
				nIntra++
			} else {
				inter += dist(i, j)
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 {
		t.Fatal("degenerate sampling")
	}
	if intra/float64(nIntra) >= inter/float64(nInter) {
		t.Fatalf("classes not separable: intra %.2f vs inter %.2f", intra/float64(nIntra), inter/float64(nInter))
	}
}

func TestImageViewAndBatch(t *testing.T) {
	ds := SyntheticMNIST(10, 1)
	img := ds.Image(3)
	if img.Dims() != 3 || img.Dim(0) != 1 || img.Dim(1) != 28 {
		t.Fatalf("Image view shape %v", img.Shape())
	}
	x, labels := ds.Batch([]int{1, 4})
	if x.Dim(0) != 2 || len(labels) != 2 {
		t.Fatal("Batch wrong size")
	}
	if labels[0] != ds.Labels[1] || labels[1] != ds.Labels[4] {
		t.Fatal("Batch labels wrong")
	}
	if x.At(1, 0, 0, 0) != ds.Image(4).At(0, 0, 0) {
		t.Fatal("Batch pixels wrong")
	}
}

func TestSliceView(t *testing.T) {
	ds := SyntheticMNIST(10, 1)
	s := ds.Slice(2, 6)
	if s.N() != 4 {
		t.Fatalf("Slice size %d", s.N())
	}
	if !s.Image(0).Equal(ds.Image(2)) {
		t.Fatal("Slice must be a view from lo")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Slice should panic")
		}
	}()
	ds.Slice(5, 20)
}

func TestBatchIter(t *testing.T) {
	batches := BatchIter(10, 3, nil)
	if len(batches) != 4 {
		t.Fatalf("batches %d, want 4 (3+3+3+1)", len(batches))
	}
	if len(batches[3]) != 1 {
		t.Fatal("last partial batch wrong")
	}
	// Sequential when rng nil.
	if batches[0][0] != 0 || batches[0][1] != 1 {
		t.Fatal("nil rng should preserve order")
	}
	// Shuffled covers all indices exactly once.
	rng := tensor.NewRNG(1)
	shuffled := BatchIter(10, 3, rng)
	seen := map[int]bool{}
	for _, b := range shuffled {
		for _, i := range b {
			if seen[i] {
				t.Fatal("duplicate index in shuffled batches")
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatal("shuffled batches must cover all samples")
	}
}

func TestTokenStreamGeneration(t *testing.T) {
	s := SyntheticWikiText2(5000, 3)
	if len(s.Tokens) != 5000 || s.Vocab != WikiText2Vocab {
		t.Fatalf("stream %d tokens vocab %d", len(s.Tokens), s.Vocab)
	}
	for _, tok := range s.Tokens {
		if tok < 0 || tok >= s.Vocab {
			t.Fatalf("token %d out of range", tok)
		}
	}
	if s.SizeBytes() != 40000 {
		t.Fatalf("SizeBytes = %d, want 40000", s.SizeBytes())
	}
}

func TestClassifiedTextSeparable(t *testing.T) {
	ds := SyntheticAGNews(80, 5)
	if ds.SeqLen() != AGNewsSeqLen || ds.Vocab != AGNewsVocab || ds.Classes != 4 {
		t.Fatalf("agnews config wrong: %d %d %d", ds.SeqLen(), ds.Vocab, ds.Classes)
	}
	// Class-0 samples should contain many tokens from the class-0 topic band
	// [0, 200) — the signal a classifier learns.
	inBand := 0
	for j, tok := range ds.Samples[0] {
		_ = j
		if tok < 200 {
			inBand++
		}
	}
	if inBand < ds.SeqLen()/5 {
		t.Fatalf("class-0 sample has only %d topic tokens", inBand)
	}
	ids, labels := ds.Batch([]int{0, 1, 2})
	if len(ids) != 3 || labels[1] != 1 {
		t.Fatal("text Batch wrong")
	}
}

func TestTextDatasetSlice(t *testing.T) {
	ds := SyntheticAGNews(20, 5)
	s := ds.Slice(5, 10)
	if s.N() != 5 || s.Labels[0] != ds.Labels[5] {
		t.Fatal("text Slice wrong")
	}
}

func TestPaperScaleConstants(t *testing.T) {
	// Table 2 size cross-checks: 70000×28²×4 B = 219.5 MB (paper: 219.6).
	mnistBytes := int64(PaperImageSets["mnist"].PaperN) * 28 * 28 * 4
	if mb := float64(mnistBytes) / 1e6; mb < 218 || mb > 221 {
		t.Fatalf("MNIST paper size %.1f MB, want ≈219.6", mb)
	}
	cifarBytes := int64(PaperImageSets["cifar10"].PaperN) * 3 * 32 * 32 * 4
	if mb := float64(cifarBytes) / 1e6; mb < 735 || mb > 740 {
		t.Fatalf("CIFAR paper size %.1f MB, want ≈737.6", mb)
	}
	wikiBytes := int64(WikiText2PaperTokens) * 8
	if mb := float64(wikiBytes) / 1e6; mb < 16 || mb > 17 {
		t.Fatalf("WikiText2 paper size %.1f MB, want ≈16.4", mb)
	}
}

// TestWindowSetBatching pins the BPTT-style window view LM trainers
// batch over: non-overlapping windows, trailing remainder dropped,
// batches gathering by index.
func TestWindowSetBatching(t *testing.T) {
	s := &TokenStream{Name: "w", Tokens: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Vocab: 11}
	ws := s.WindowSet(4)
	if ws.N() != 2 || ws.SeqLen() != 4 {
		t.Fatalf("11 tokens at window 4: N=%d SeqLen=%d, want 2/4 (remainder dropped)", ws.N(), ws.SeqLen())
	}
	b := ws.Batch([]int{1, 0})
	if b[0][0] != 4 || b[1][0] != 0 {
		t.Fatalf("batch gathered %v", b)
	}
	if s.N() != 11 {
		t.Fatalf("TokenStream.N = %d, want 11", s.N())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive window length must panic")
		}
	}()
	s.WindowSet(0)
}
