package core

import (
	"fmt"

	"amalgam/internal/data"
	"amalgam/internal/tensor"
)

// TextAugmentOptions configures the Dataset Augmenter for text (§4.1).
type TextAugmentOptions struct {
	// Amount is the augmentation amount A_d: each window of WindowLen
	// tokens grows to WindowLen + WindowLen·A_d.
	Amount float64
	// WindowLen is the sequence unit the key applies to: the BPTT length
	// for LM streams (the paper's WikiText-2 pipeline uses 20), or the
	// fixed sample length for classification datasets (ignored there; the
	// dataset's own SeqLen is used).
	WindowLen int
	// Noise selects the synthetic-token distribution.
	Noise NoiseSpec
	// Seed drives key generation and noise sampling.
	Seed uint64
}

// AugmentedStream pairs an augmented token stream with its secret key.
type AugmentedStream struct {
	Stream *data.TokenStream
	Key    *TextAugKey
}

// AugmentTokenStream obfuscates an LM corpus: the stream is processed in
// windows of WindowLen tokens; synthetic tokens are inserted at the key's
// secret within-window positions (fresh noise per window), as in Fig. 3.
// A trailing partial window is dropped (standard batchify behaviour).
func AugmentTokenStream(s *data.TokenStream, opts TextAugmentOptions) (*AugmentedStream, error) {
	if opts.WindowLen <= 0 {
		return nil, fmt.Errorf("core: WindowLen must be positive, got %d", opts.WindowLen)
	}
	if err := opts.Noise.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(opts.Seed)
	key, err := NewTextAugKey(rng.Split(1), opts.WindowLen, opts.Amount)
	if err != nil {
		return nil, err
	}
	return &AugmentedStream{Stream: key.augmentStream(s, opts.Noise, rng.Split(2)), Key: key}, nil
}

// scatter grows one window of OrigLen tokens to AugLen: originals at the
// keep positions, a fresh token drawn from noiseRNG at every insert
// position — the one forward application of a text key (Fig. 3).
func (k *TextAugKey) scatter(src []int, noise NoiseSpec, noiseRNG *tensor.RNG, vocab int) []int {
	window := make([]int, k.AugLen)
	for pi, pos := range k.Keep {
		window[pos] = src[pi]
	}
	for _, pos := range k.Insert {
		window[pos] = noise.sampleToken(noiseRNG, vocab)
	}
	return window
}

// augmentStream scatters every full OrigLen window of s; a trailing
// partial window is dropped.
func (k *TextAugKey) augmentStream(s *data.TokenStream, noise NoiseSpec, noiseRNG *tensor.RNG) *data.TokenStream {
	nWindows := len(s.Tokens) / k.OrigLen
	out := make([]int, 0, nWindows*k.AugLen)
	for wi := 0; wi < nWindows; wi++ {
		out = append(out, k.scatter(s.Tokens[wi*k.OrigLen:(wi+1)*k.OrigLen], noise, noiseRNG, s.Vocab)...)
	}
	return &data.TokenStream{Name: s.Name + "+aug", Tokens: out, Vocab: s.Vocab}
}

// augmentDataset scatters every sample of ds (each OrigLen tokens long).
func (k *TextAugKey) augmentDataset(ds *data.TextDataset, noise NoiseSpec, noiseRNG *tensor.RNG) *data.TextDataset {
	samples := make([][]int, ds.N())
	for i, src := range ds.Samples {
		samples[i] = k.scatter(src, noise, noiseRNG, ds.Vocab)
	}
	return &data.TextDataset{
		Name:    ds.Name + "+aug",
		Samples: samples,
		Labels:  append([]int(nil), ds.Labels...),
		Vocab:   ds.Vocab,
		Classes: ds.Classes,
	}
}

// AugmentTokenStreamWithKey reuses an existing key on another stream
// (e.g. a held-out validation split for an LM job): windows of
// key.OrigLen tokens grow to key.AugLen with fresh noise at the key's
// insert positions. A trailing partial window is dropped.
func AugmentTokenStreamWithKey(s *data.TokenStream, key *TextAugKey, noise NoiseSpec, seed uint64) (*data.TokenStream, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	if err := noise.Validate(); err != nil {
		return nil, err
	}
	return key.augmentStream(s, noise, tensor.NewRNG(seed).Split(2)), nil
}

// RecoverTokenStream inverts stream augmentation with the key.
func RecoverTokenStream(aug *data.TokenStream, key *TextAugKey) (*data.TokenStream, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	if len(aug.Tokens)%key.AugLen != 0 {
		return nil, fmt.Errorf("core: augmented stream length %d not a multiple of window %d", len(aug.Tokens), key.AugLen)
	}
	nWindows := len(aug.Tokens) / key.AugLen
	out := make([]int, 0, nWindows*key.OrigLen)
	for wi := 0; wi < nWindows; wi++ {
		window := aug.Tokens[wi*key.AugLen : (wi+1)*key.AugLen]
		for _, pos := range key.Keep {
			out = append(out, window[pos])
		}
	}
	return &data.TokenStream{Name: aug.Name + "+recovered", Tokens: out, Vocab: aug.Vocab}, nil
}

// AugmentedText pairs an augmented classification dataset with its key.
type AugmentedText struct {
	Dataset *data.TextDataset
	Key     *TextAugKey
}

// AugmentTextDataset obfuscates a classification dataset: every sample of
// length L grows to L + L·A with synthetic tokens at the secret positions.
func AugmentTextDataset(ds *data.TextDataset, opts TextAugmentOptions) (*AugmentedText, error) {
	if ds.N() == 0 {
		return nil, fmt.Errorf("core: empty text dataset")
	}
	if err := opts.Noise.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(opts.Seed)
	key, err := NewTextAugKey(rng.Split(1), ds.SeqLen(), opts.Amount)
	if err != nil {
		return nil, err
	}
	return &AugmentedText{Dataset: key.augmentDataset(ds, opts.Noise, rng.Split(2)), Key: key}, nil
}

// AugmentTextDatasetWithKey reuses an existing key (e.g. for a test split).
func AugmentTextDatasetWithKey(ds *data.TextDataset, key *TextAugKey, noise NoiseSpec, seed uint64) (*data.TextDataset, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	if err := noise.Validate(); err != nil {
		return nil, err
	}
	if ds.SeqLen() != key.OrigLen {
		return nil, fmt.Errorf("core: key window %d does not match sample length %d", key.OrigLen, ds.SeqLen())
	}
	return key.augmentDataset(ds, noise, tensor.NewRNG(seed).Split(2)), nil
}
