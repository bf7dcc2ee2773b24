package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// paramNameListing renders, one "# model" section per model, the Params()
// names in order for the whole zoo and the three augmented kinds. The
// names are the state-dict keys checkpoints, the wire and the extractor
// ("orig." vs "decoy<i>.", §4.2–4.3) are indexed by, so the listing is
// pinned byte for byte against testdata/param_names.golden, which was
// written by this same function when every composite still enumerated
// its parameters by hand.
func paramNameListing(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	section := func(title string, m interface{ Params() []nn.Param }) {
		fmt.Fprintf(&b, "# %s\n", title)
		for _, p := range m.Params() {
			b.WriteString(p.Name)
			b.WriteByte('\n')
		}
	}
	cfg := models.CVConfig{InC: 3, InH: 8, InW: 8, Classes: 4}
	for _, name := range models.CVModelNames() {
		m, err := models.BuildCV(name, tensor.NewRNG(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		section(name, m)
	}
	lmCfg := models.TransformerLMConfig{Vocab: 30, D: 8, Heads: 2, FF: 16, Layers: 2, MaxT: 16, Dropout: 0.1}
	section("textclassifier", models.NewTextClassifier(tensor.NewRNG(1), 30, 8, 4))
	section("transformerlm", models.NewTransformerLM(tensor.NewRNG(1), lmCfg))

	for _, amount := range []float64{0, 0.5} {
		opts := ModelAugmentOptions{Amount: amount, SubNets: 2, Seed: 7}
		imgKey, err := NewImageAugKey(tensor.NewRNG(2), cfg.InH, cfg.InW, amount)
		if err != nil {
			t.Fatal(err)
		}
		// resnet18: batch-norm blocks and dotted children under "orig.",
		// decoys with the optional "tap" child.
		orig, err := models.BuildCV("resnet18", tensor.NewRNG(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := AugmentCVModel(orig, imgKey, cfg.InC, cfg.Classes, opts)
		if err != nil {
			t.Fatal(err)
		}
		section(fmt.Sprintf("augmented-cv resnet18 amount=%v", amount), cv)

		txtKey, err := NewTextAugKey(tensor.NewRNG(3), 6, amount)
		if err != nil {
			t.Fatal(err)
		}
		text, err := AugmentTextClassifier(models.NewTextClassifier(tensor.NewRNG(1), 30, 8, 4), txtKey, opts)
		if err != nil {
			t.Fatal(err)
		}
		section(fmt.Sprintf("augmented-text amount=%v", amount), text)

		lm, err := AugmentTransformerLM(models.NewTransformerLM(tensor.NewRNG(1), lmCfg), txtKey, opts)
		if err != nil {
			t.Fatal(err)
		}
		section(fmt.Sprintf("augmented-lm amount=%v", amount), lm)
	}
	return b.String()
}

func TestParamNamesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/param_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := paramNameListing(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("parameter names diverge from the golden at line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("parameter listing has %d lines, golden has %d", len(gl), len(wl))
}
