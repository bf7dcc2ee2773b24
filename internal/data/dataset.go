// Package data provides the dataset substrate for the Amalgam
// reproduction: synthetic, procedurally generated stand-ins for the six
// datasets of the paper's evaluation (MNIST, CIFAR-10, CIFAR-100,
// Imagenette, WikiText-2, AG News), plus batching utilities.
//
// The real datasets cannot be downloaded in this offline environment; the
// generators produce tensors with identical shapes, splits, and value
// ranges, and with class-conditional structure strong enough for the model
// zoo to learn, so that training/validation curves are meaningful.
package data

import (
	"fmt"

	"amalgam/internal/tensor"
)

// ImageDataset is a labelled image set stored as one dense tensor.
type ImageDataset struct {
	Name    string
	Images  *tensor.Tensor // [N, C, H, W], values in [0, 1]
	Labels  []int
	Classes int
}

// N returns the number of samples.
func (d *ImageDataset) N() int { return len(d.Labels) }

// C returns the channel count.
func (d *ImageDataset) C() int { return d.Images.Dim(1) }

// H returns the image height.
func (d *ImageDataset) H() int { return d.Images.Dim(2) }

// W returns the image width.
func (d *ImageDataset) W() int { return d.Images.Dim(3) }

// Image returns a view of sample i as [C, H, W].
func (d *ImageDataset) Image(i int) *tensor.Tensor {
	c, h, w := d.C(), d.H(), d.W()
	sz := c * h * w
	return tensor.FromSlice(d.Images.Data[i*sz:(i+1)*sz], c, h, w)
}

// SizeBytes returns the float32 payload size, the quantity reported in the
// paper's Table 2 "Dataset Size" column.
func (d *ImageDataset) SizeBytes() int64 { return d.Images.SizeBytes() }

// Slice returns a dataset view containing samples [lo, hi).
func (d *ImageDataset) Slice(lo, hi int) *ImageDataset {
	if lo < 0 || hi > d.N() || lo > hi {
		panic(fmt.Sprintf("data: Slice [%d,%d) out of range 0..%d", lo, hi, d.N()))
	}
	c, h, w := d.C(), d.H(), d.W()
	sz := c * h * w
	return &ImageDataset{
		Name:    d.Name,
		Images:  tensor.FromSlice(d.Images.Data[lo*sz:hi*sz], hi-lo, c, h, w),
		Labels:  d.Labels[lo:hi],
		Classes: d.Classes,
	}
}

// Batch materialises the samples at the given indices as an input tensor
// and label slice.
func (d *ImageDataset) Batch(indices []int) (*tensor.Tensor, []int) {
	c, h, w := d.C(), d.H(), d.W()
	sz := c * h * w
	x := tensor.New(len(indices), c, h, w)
	labels := make([]int, len(indices))
	for bi, i := range indices {
		copy(x.Data[bi*sz:(bi+1)*sz], d.Images.Data[i*sz:(i+1)*sz])
		labels[bi] = d.Labels[i]
	}
	return x, labels
}

// BatchIter yields mini-batch index slices over the dataset, optionally
// shuffled with the provided RNG (nil rng → sequential order).
func BatchIter(n, batchSize int, rng *tensor.RNG) [][]int {
	if batchSize <= 0 {
		panic("data: batchSize must be positive")
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var batches [][]int
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		batches = append(batches, order[lo:hi])
	}
	return batches
}

// ShuffleRNG derives the batch-shuffle RNG for one epoch from a base seed.
// The derivation is per-epoch rather than one RNG threaded across epochs so
// that (a) a resumed run shuffles epoch e exactly as an uninterrupted run
// does, and (b) local and remote training of the same job visit batches in
// the same order. Both the amalgam trainers and the cloudsim service must
// use this one derivation.
func ShuffleRNG(seed uint64, epoch int) *tensor.RNG {
	return tensor.NewRNG(seed).Split(uint64(epoch) + 1)
}

// TokenStream is a tokenised corpus for language modelling (WikiText-2
// style): one long 1-D sequence of token ids.
type TokenStream struct {
	Name   string
	Tokens []int
	Vocab  int
}

// N returns the token count. It also satisfies the public API's
// EvalDataset interface, so a held-out stream can ride WithEvalSet.
func (s *TokenStream) N() int { return len(s.Tokens) }

// SizeBytes reports the int64-token payload size (Table 2 accounting).
func (s *TokenStream) SizeBytes() int64 { return int64(len(s.Tokens)) * 8 }

// WindowSet slices the stream into its non-overlapping windows of
// windowLen tokens, dropping a trailing partial window (standard
// batchify behaviour). The windows view the stream's backing array.
func (s *TokenStream) WindowSet(windowLen int) *WindowSet {
	if windowLen <= 0 {
		panic(fmt.Sprintf("data: WindowSet window length must be positive, got %d", windowLen))
	}
	n := len(s.Tokens) / windowLen
	wins := make([][]int, n)
	for i := range wins {
		wins[i] = s.Tokens[i*windowLen : (i+1)*windowLen]
	}
	return &WindowSet{Windows: wins, Vocab: s.Vocab}
}

// WindowSet is a fixed-length window view over a token stream — the unit
// LM trainers batch over (BPTT-style batching: each window of L tokens
// yields L−1 next-token training pairs). It plays the role ImageDataset
// and TextDataset play for the other modalities: N/Batch feed the shared
// epoch loop.
type WindowSet struct {
	Windows [][]int
	Vocab   int
}

// N returns the window count.
func (ws *WindowSet) N() int { return len(ws.Windows) }

// SeqLen returns the (uniform) window length.
func (ws *WindowSet) SeqLen() int {
	if len(ws.Windows) == 0 {
		return 0
	}
	return len(ws.Windows[0])
}

// Batch gathers the windows at the given indices.
func (ws *WindowSet) Batch(indices []int) [][]int {
	out := make([][]int, len(indices))
	for bi, i := range indices {
		out[bi] = ws.Windows[i]
	}
	return out
}

// TextDataset is a labelled set of fixed-length token sequences (AG News
// style classification).
type TextDataset struct {
	Name    string
	Samples [][]int
	Labels  []int
	Vocab   int
	Classes int
}

// N returns the sample count.
func (d *TextDataset) N() int { return len(d.Samples) }

// SeqLen returns the (uniform) sequence length.
func (d *TextDataset) SeqLen() int {
	if len(d.Samples) == 0 {
		return 0
	}
	return len(d.Samples[0])
}

// SizeBytes reports the int64-token payload size.
func (d *TextDataset) SizeBytes() int64 { return int64(d.N()*d.SeqLen()) * 8 }

// Batch gathers samples at indices.
func (d *TextDataset) Batch(indices []int) (ids [][]int, labels []int) {
	ids = make([][]int, len(indices))
	labels = make([]int, len(indices))
	for bi, i := range indices {
		ids[bi] = d.Samples[i]
		labels[bi] = d.Labels[i]
	}
	return ids, labels
}

// Slice returns samples [lo, hi) as a view.
func (d *TextDataset) Slice(lo, hi int) *TextDataset {
	return &TextDataset{Name: d.Name, Samples: d.Samples[lo:hi], Labels: d.Labels[lo:hi], Vocab: d.Vocab, Classes: d.Classes}
}
