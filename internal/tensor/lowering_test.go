package tensor

import (
	"fmt"
	"testing"
)

// loweringGeoms covers what the in-bounds ranges must get right: stride 1
// and 2, no padding, padding wider than the kernel reaches (a 1×1 window
// that is all padding at the border), kernels larger than the input,
// non-square inputs and kernels, and a strided width whose last column the
// windows never reach.
var loweringGeoms = []ConvGeom{
	{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{InC: 3, InH: 7, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{InC: 1, InH: 5, InW: 8, KH: 2, KW: 3, StrideH: 1, StrideW: 1},
	{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 2, StrideW: 2},
	{InC: 1, InH: 2, InW: 3, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	{InC: 2, InH: 9, InW: 6, KH: 3, KW: 2, StrideH: 3, StrideW: 2, PadH: 0, PadW: 1},
	{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{InC: 4, InH: 4, InW: 4, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3},
}

// TestLoweringMatchesDefinition checks the three lowerings against the
// per-element definition — tap (c, kh, kw) at position (oh, ow) reads input
// (oh·S−P+kh, ow·S−P+kw) or zero — over one image and over a block, at
// every worker count. Im2Col and Im2Row must place exactly those values;
// Col2Im must add each column entry into its pixel in the order the
// definition's loop nest visits them, so its sums are bit-identical.
func TestLoweringMatchesDefinition(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	for gi := range loweringGeoms {
		for _, nb := range []int{1, 3} {
			g := loweringGeoms[gi]
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("geom%d/nb%d", gi, nb), func(t *testing.T) {
				kdim, ncols, img := g.InC*g.KH*g.KW, g.OutH*g.OutW, g.InC*g.InH*g.InW
				rng := NewRNG(uint64(7 + gi))
				x, dy := New(nb, img), New(kdim, nb*ncols)
				rng.FillNormal(x, 0, 1)
				rng.FillNormal(dy, 0, 1)

				wantCols, wantRows := New(kdim, nb*ncols), New(nb*ncols, kdim)
				wantDx := New(nb, img)
				rng.FillNormal(wantDx, 0, 1) // Col2Im adds into what is there
				dx0 := wantDx.Clone()
				for b := 0; b < nb; b++ {
					for c := 0; c < g.InC; c++ {
						for kh := 0; kh < g.KH; kh++ {
							for kw := 0; kw < g.KW; kw++ {
								tap := (c*g.KH+kh)*g.KW + kw
								for oh := 0; oh < g.OutH; oh++ {
									for ow := 0; ow < g.OutW; ow++ {
										ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
										pos := b*ncols + oh*g.OutW + ow
										if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
											continue
										}
										at := b*img + (c*g.InH+ih)*g.InW + iw
										wantCols.Data[tap*nb*ncols+pos] = x.Data[at]
										wantRows.Data[pos*kdim+tap] = x.Data[at]
										wantDx.Data[at] += dy.Data[tap*nb*ncols+pos]
									}
								}
							}
						}
					}
				}

				for _, workers := range []int{1, 3, 8} {
					SetMaxWorkers(workers)
					cols, rows := New(kdim, nb*ncols), New(nb*ncols, kdim)
					cols.Fill(-7) // stale scratch: padding must be written, not assumed
					rows.Fill(-7)
					Im2Col(cols, x.Data, &g)
					Im2Row(rows, x.Data, &g)
					dx := dx0.Clone()
					Col2Im(dx.Data, dy, &g)
					if !cols.Equal(wantCols) {
						t.Errorf("workers=%d: Im2Col differs from the definition", workers)
					}
					if !rows.Equal(wantRows) {
						t.Errorf("workers=%d: Im2Row differs from the definition", workers)
					}
					if !dx.Equal(wantDx) {
						t.Errorf("workers=%d: Col2Im differs from the definition's ordered sums", workers)
					}
				}
			})
		}
	}
}

// TestLoweringRejectsMisSizedBuffers: a buffer that is not exactly the
// lowered size of the images handed in, or an input that is not whole
// images, is a caller bug and panics.
func TestLoweringRejectsMisSizedBuffers(t *testing.T) {
	g := &ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	for name, fn := range map[string]func(){
		"Im2Col small dst":  func() { Im2Col(New(4, 3), make([]float32, 9), g) },
		"Im2Row two images": func() { Im2Row(New(4, 4), make([]float32, 18), g) },
		"Col2Im ragged dx":  func() { Col2Im(make([]float32, 10), New(4, 4), g) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
