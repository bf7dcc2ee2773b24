package models

import (
	"fmt"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

// lastRows copies row (i+1)·t−1 of all-position logits [n·t, vocab] for
// each sequence i: the referee for a next-token forward's [n, vocab].
func lastRows(all *tensor.Tensor, n, t int) *tensor.Tensor {
	vocab := all.Dim(1)
	out := tensor.New(n, vocab)
	for i := 0; i < n; i++ {
		copy(out.Data[i*vocab:(i+1)*vocab], all.Data[((i+1)*t-1)*vocab:(i+1)*t*vocab])
	}
	return out
}

// TestLMForwardIsLastRowOfAllPositions: ForwardIDs and the split tail
// ForwardEmbedded project only each sequence's last position, and row i of
// their [N, vocab] logits is bit for bit row (i+1)·T−1 of the all-position
// logits Decoder.Forward(Features(ids)). Odd and even N reach the paired
// row kernels, and at D·vocab = 2¹⁴ the GEMMs split rows over the workers.
func TestLMForwardIsLastRowOfAllPositions(t *testing.T) {
	const maxT = 9
	m := NewTransformerLM(tensor.NewRNG(21), TransformerLMConfig{Vocab: 1024, D: 16, Heads: 2, FF: 24, Layers: 2, MaxT: maxT, Dropout: 0.1})
	m.SetTraining(false)
	rng := tensor.NewRNG(22)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	defer tensor.SetSIMD(tensor.SetSIMD(false))
	for _, simd := range []bool{false, true} {
		if tensor.SetSIMD(simd); simd && !tensor.SIMDEnabled() {
			t.Log("AVX2 not available; SIMD dispatch not exercised")
			continue
		}
		for _, wk := range []int{1, 2, 3, 8} {
			tensor.SetMaxWorkers(wk)
			setting := fmt.Sprintf("simd=%v workers=%d", simd, wk)
			for _, n := range []int{1, 2, 3, 5} {
				for _, tt := range []int{1, 4, maxT} {
					ids := make([][]int, n)
					for i := range ids {
						ids[i] = make([]int, tt)
						for p := range ids[i] {
							ids[i][p] = rng.IntN(m.Vocab)
						}
					}
					all := m.Decoder.Forward(m.Features(ids))
					want := lastRows(all.Val, n, tt)
					autodiff.Release(all)

					full := m.ForwardIDs(ids)
					h := m.EmbedIDs(ids)
					split := m.ForwardEmbedded(autodiff.Constant(h.Val))
					for _, got := range []struct {
						name string
						out  *autodiff.Node
					}{{"ForwardIDs", full}, {"ForwardEmbedded", split}} {
						if !got.out.Val.Equal(want) {
							t.Errorf("%s N=%d T=%d: %s logits %v differ from the all-position logits' last rows", setting, n, tt, got.name, got.out.Val.Shape())
						}
					}
					autodiff.Release(full)
					autodiff.Release(split)
					autodiff.Release(h)
				}
			}
		}
	}
}
