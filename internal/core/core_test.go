package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"amalgam/internal/data"
	"amalgam/internal/tensor"
)

func TestAugmentedDim(t *testing.T) {
	tests := []struct {
		x      int
		amount float64
		want   int
	}{
		{28, 0.25, 35}, {28, 0.5, 42}, {28, 0.75, 49}, {28, 1.0, 56},
		{32, 0.25, 40}, {32, 0.5, 48}, {32, 0.75, 56}, {32, 1.0, 64},
		{224, 0.25, 280}, {224, 0.5, 336}, {224, 0.75, 392}, {224, 1.0, 448},
		{20, 0.25, 25}, {20, 0.5, 30}, {20, 0.75, 35}, {20, 1.0, 40},
		{10, 0, 10},
	}
	for _, tc := range tests {
		if got := AugmentedDim(tc.x, tc.amount); got != tc.want {
			t.Fatalf("AugmentedDim(%d, %v) = %d, want %d (Table 2 resolution column)", tc.x, tc.amount, got, tc.want)
		}
	}
}

func TestImageKeyProperties(t *testing.T) {
	rng := tensor.NewRNG(1)
	key, err := NewImageAugKey(rng, 8, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Validate(); err != nil {
		t.Fatal(err)
	}
	if key.AugH != 12 || key.AugW != 12 {
		t.Fatalf("augmented geometry %dx%d", key.AugH, key.AugW)
	}
	if len(key.Keep) != 64 || len(key.Insert) != 144-64 {
		t.Fatalf("key sizes %d/%d", len(key.Keep), len(key.Insert))
	}
	// Keep ∪ Insert must partition [0, 144).
	seen := map[int]int{}
	for _, p := range key.Keep {
		seen[p]++
	}
	for _, p := range key.Insert {
		seen[p]++
	}
	if len(seen) != 144 {
		t.Fatalf("partition covers %d positions", len(seen))
	}
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("position %d appears %d times", p, c)
		}
	}
}

func TestImageKeyValidateCatchesCorruption(t *testing.T) {
	rng := tensor.NewRNG(2)
	key, _ := NewImageAugKey(rng, 4, 4, 0.5)
	bad := *key
	bad.Keep = append([]int(nil), key.Keep...)
	bad.Keep[0], bad.Keep[1] = bad.Keep[1], bad.Keep[0] // break ordering
	if err := bad.Validate(); err == nil {
		t.Fatal("unsorted keep should fail validation")
	}
	bad2 := *key
	bad2.Insert = append([]int(nil), key.Insert...)
	bad2.Insert[0] = key.Keep[0] // duplicate
	if err := bad2.Validate(); err == nil {
		t.Fatal("duplicated position should fail validation")
	}
}

func TestNegativeAmountRejected(t *testing.T) {
	rng := tensor.NewRNG(3)
	if _, err := NewImageAugKey(rng, 4, 4, -0.1); err == nil {
		t.Fatal("negative amount should error")
	}
	if _, err := NewTextAugKey(rng, 10, -1); err == nil {
		t.Fatal("negative amount should error")
	}
}

func TestAugmentRecoverRoundtrip(t *testing.T) {
	ds := data.SyntheticCIFAR10(6, 7)
	for _, amount := range []float64{0.25, 0.5, 0.75, 1.0} {
		aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: amount, Noise: DefaultImageNoise(), Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		wantH := AugmentedDim(32, amount)
		if aug.Dataset.H() != wantH || aug.Dataset.W() != wantH {
			t.Fatalf("amount %v: augmented %dx%d, want %dx%d", amount, aug.Dataset.H(), aug.Dataset.W(), wantH, wantH)
		}
		rec, err := RecoverImages(aug.Dataset, aug.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Images.Equal(ds.Images) {
			t.Fatalf("amount %v: recovery is not bit-exact", amount)
		}
		for i, l := range rec.Labels {
			if l != ds.Labels[i] {
				t.Fatal("labels corrupted")
			}
		}
	}
}

func TestAugmentImagesDeterministic(t *testing.T) {
	ds := data.SyntheticMNIST(4, 1)
	a, _ := AugmentImages(ds, ImageAugmentOptions{Amount: 0.5, Noise: DefaultImageNoise(), Seed: 5})
	b, _ := AugmentImages(ds, ImageAugmentOptions{Amount: 0.5, Noise: DefaultImageNoise(), Seed: 5})
	if !a.Dataset.Images.Equal(b.Dataset.Images) {
		t.Fatal("same seed must reproduce the augmented dataset")
	}
	c, _ := AugmentImages(ds, ImageAugmentOptions{Amount: 0.5, Noise: DefaultImageNoise(), Seed: 6})
	if a.Dataset.Images.Equal(c.Dataset.Images) {
		t.Fatal("different seeds should differ")
	}
}

func TestAugmentImagesWithKeySharesSecret(t *testing.T) {
	train := data.SyntheticMNIST(6, 1)
	test := data.SyntheticMNIST(4, 2)
	aug, err := AugmentImages(train, ImageAugmentOptions{Amount: 0.25, Noise: DefaultImageNoise(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	augTest, err := AugmentImagesWithKey(test, aug.Key, DefaultImageNoise(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverImages(augTest, aug.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Images.Equal(test.Images) {
		t.Fatal("shared-key augmentation must recover the test split exactly")
	}
	// Wrong-geometry key is rejected.
	if _, err := AugmentImagesWithKey(data.SyntheticCIFAR10(2, 1), aug.Key, DefaultImageNoise(), 4); err == nil {
		t.Fatal("geometry mismatch should error")
	}
}

func TestNoiseSpecValidation(t *testing.T) {
	tests := []struct {
		name    string
		spec    NoiseSpec
		wantErr bool
	}{
		{"uniform-ok", NoiseSpec{Type: NoiseUniform, Min: 0, Max: 1}, false},
		{"uniform-bad", NoiseSpec{Type: NoiseUniform, Min: 1, Max: 1}, true},
		{"gaussian-ok", NoiseSpec{Type: NoiseGaussian, Sigma: 0.2, Min: 0, Max: 1}, false},
		{"gaussian-bad", NoiseSpec{Type: NoiseGaussian}, true},
		{"laplace-ok", NoiseSpec{Type: NoiseLaplace, Sigma: 0.5}, false},
		{"user-ok", NoiseSpec{Type: NoiseUser, Pool: []float32{0.1, 0.9}}, false},
		{"user-empty", NoiseSpec{Type: NoiseUser}, true},
		{"unknown", NoiseSpec{}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestNoiseTypesProduceInRangePixels(t *testing.T) {
	ds := data.SyntheticMNIST(3, 1)
	specs := []NoiseSpec{
		{Type: NoiseUniform, Min: 0, Max: 1},
		{Type: NoiseGaussian, Mean: 0.5, Sigma: 0.3, Min: 0, Max: 1},
		{Type: NoiseLaplace, Mean: 0.5, Sigma: 0.2, Min: 0, Max: 1},
		{Type: NoiseUser, Pool: []float32{0.25, 0.75}},
	}
	for _, spec := range specs {
		t.Run(spec.Type.String(), func(t *testing.T) {
			aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: 0.5, Noise: spec, Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range aug.Dataset.Images.Data {
				if v < 0 || v > 1 {
					t.Fatalf("%v noise produced out-of-range pixel %v", spec.Type, v)
				}
			}
		})
	}
}

func TestSmoothInfillNoise(t *testing.T) {
	ds := data.SyntheticMNIST(3, 4)
	aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: 0.5, Noise: SmoothInfillNoise(0.02), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Recovery must remain exact (infill touches only insert positions).
	rec, err := RecoverImages(aug.Dataset, aug.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Images.Equal(ds.Images) {
		t.Fatal("smooth infill corrupted original pixels")
	}
	// Pixels stay in range.
	for _, v := range aug.Dataset.Images.Data {
		if v < 0 || v > 1 {
			t.Fatalf("smooth infill produced out-of-range pixel %v", v)
		}
	}
	// The augmented image must be markedly smoother than uniform-noise
	// augmentation (that is the point).
	uni, err := AugmentImages(ds, ImageAugmentOptions{Amount: 0.5, Noise: DefaultImageNoise(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tv := func(img *tensor.Tensor) float64 {
		var s float64
		h, w := img.Dim(1), img.Dim(2)
		for y := 0; y < h; y++ {
			for x := 0; x+1 < w; x++ {
				d := float64(img.At(0, y, x) - img.At(0, y, x+1))
				if d < 0 {
					d = -d
				}
				s += d
			}
		}
		return s
	}
	if tv(aug.Dataset.Image(0)) >= tv(uni.Dataset.Image(0)) {
		t.Fatal("smooth infill should reduce augmented-image total variation vs uniform noise")
	}
	// Negative jitter rejected.
	if err := (NoiseSpec{Type: NoiseSmoothInfill, Sigma: -1}).Validate(); err == nil {
		t.Fatal("negative Sigma should fail validation")
	}
}

func TestUserNoiseDrawsFromPool(t *testing.T) {
	ds := data.SyntheticMNIST(2, 1)
	pool := []float32{0.123, 0.456}
	aug, err := AugmentImages(ds, ImageAugmentOptions{Amount: 1.0, Noise: NoiseSpec{Type: NoiseUser, Pool: pool}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plane := aug.Dataset.H() * aug.Dataset.W()
	for _, pos := range aug.Key.Insert {
		v := aug.Dataset.Images.Data[pos] // sample 0, channel 0
		if v != 0.123 && v != 0.456 {
			t.Fatalf("user-noise pixel %v not from pool", v)
		}
	}
	_ = plane
}

func TestTextStreamRoundtrip(t *testing.T) {
	s := data.SyntheticWikiText2(2000, 1)
	aug, err := AugmentTokenStream(s, TextAugmentOptions{Amount: 0.5, WindowLen: 20, Noise: DefaultTextNoise(s.Vocab), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if aug.Key.OrigLen != 20 || aug.Key.AugLen != 30 {
		t.Fatalf("text key %d→%d", aug.Key.OrigLen, aug.Key.AugLen)
	}
	if len(aug.Stream.Tokens) != (2000/20)*30 {
		t.Fatalf("augmented stream length %d", len(aug.Stream.Tokens))
	}
	rec, err := RecoverTokenStream(aug.Stream, aug.Key)
	if err != nil {
		t.Fatal(err)
	}
	for i, tok := range rec.Tokens {
		if tok != s.Tokens[i] {
			t.Fatalf("token %d corrupted: %d vs %d", i, tok, s.Tokens[i])
		}
	}
}

func TestTextDatasetRoundtrip(t *testing.T) {
	ds := data.SyntheticAGNews(10, 2)
	aug, err := AugmentTextDataset(ds, TextAugmentOptions{Amount: 0.25, Noise: DefaultTextNoise(ds.Vocab), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if aug.Dataset.SeqLen() != AugmentedDim(data.AGNewsSeqLen, 0.25) {
		t.Fatalf("augmented seq len %d", aug.Dataset.SeqLen())
	}
	gather := NewSkipTokenGatherFromKey(aug.Key)
	rec := gather.Apply(aug.Dataset.Samples)
	for i := range rec {
		for j := range rec[i] {
			if rec[i][j] != ds.Samples[i][j] {
				t.Fatal("text dataset gather does not recover originals")
			}
		}
	}
	// Shared key across splits.
	test := data.SyntheticAGNews(5, 9)
	augTest, err := AugmentTextDatasetWithKey(test, aug.Key, DefaultTextNoise(ds.Vocab), 7)
	if err != nil {
		t.Fatal(err)
	}
	recTest := gather.Apply(augTest.Samples)
	for i := range recTest {
		for j := range recTest[i] {
			if recTest[i][j] != test.Samples[i][j] {
				t.Fatal("shared-key text augmentation broken")
			}
		}
	}
}

func TestTokenNoiseInVocabRange(t *testing.T) {
	s := data.SyntheticWikiText2(400, 1)
	for _, spec := range []NoiseSpec{
		DefaultTextNoise(s.Vocab),
		{Type: NoiseGaussian, Mean: 100, Sigma: 500},
		{Type: NoiseLaplace, Mean: 100, Sigma: 500},
	} {
		aug, err := AugmentTokenStream(s, TextAugmentOptions{Amount: 1.0, WindowLen: 20, Noise: spec, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range aug.Stream.Tokens {
			if tok < 0 || tok >= s.Vocab {
				t.Fatalf("%v noise produced out-of-vocab token %d", spec.Type, tok)
			}
		}
	}
}

func TestComplementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.IntN(90)
		k := 1 + rng.IntN(n-1)
		s := rng.SampleIndices(n, k)
		// complementOf requires sorted input.
		sorted := append([]int(nil), s...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		comp := complementOf(sorted, n)
		return len(comp)+len(sorted) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchSpaceReproducesTable2 verifies our search-space model against
// every row of the paper's Table 2 (log10 magnitudes).
func TestSearchSpaceReproducesTable2(t *testing.T) {
	// Image rows use the paper's summed-per-channel accounting
	// (channels × C(n′, n′−n)): the RGB cells are exactly 3× the
	// single-channel binomial.
	tests := []struct {
		name      string
		channels  int
		orig, aug int // per-unit lengths (channel plane / window)
		wantLog10 float64
		tol       float64
	}{
		{"mnist-25", 1, 28 * 28, 35 * 35, 346, 0.01},
		{"mnist-50", 1, 28 * 28, 42 * 42, math.Log10(3.62) + 524, 0.01},
		{"mnist-75", 1, 28 * 28, 49 * 49, math.Log10(8.57) + 656, 0.01},
		{"mnist-100", 1, 28 * 28, 56 * 56, math.Log10(1.22) + 764, 0.01},
		{"cifar-25", 3, 32 * 32, 40 * 40, math.Log10(6.86) + 452, 0.01},
		{"cifar-50", 3, 32 * 32, 48 * 48, math.Log10(1.21) + 686, 0.01},
		{"cifar-75", 3, 32 * 32, 56 * 56, math.Log10(9.86) + 858, 0.01},
		{"cifar-100", 3, 32 * 32, 64 * 64, math.Log10(9.05) + 998, 0.01},
		{"imagenette-25", 3, 224 * 224, 280 * 280, math.Log10(9.58) + 22245, 0.01},
		{"imagenette-50", 3, 224 * 224, 336 * 336, math.Log10(4.54) + 33679, 0.01},
		{"imagenette-75", 3, 224 * 224, 392 * 392, math.Log10(1.62) + 42154, 0.01},
		{"imagenette-100", 3, 224 * 224, 448 * 448, math.Log10(3.39) + 49013, 0.01},
		{"wikitext-25", 1, 20, 25, math.Log10(53130), 0.001},
		{"wikitext-50", 1, 20, 30, math.Log10(30045015), 0.001},
		{"wikitext-75", 1, 20, 35, math.Log10(3247943160), 0.001},
		{"wikitext-100", 1, 20, 40, math.Log10(137846528820), 0.001},
		{"agnews-25", 1, 144, 180, math.Log10(9.73) + 37, 0.01},
		{"agnews-50", 1, 144, 216, math.Log10(2.94) + 58, 0.01},
		{"agnews-75", 1, 144, 252, math.Log10(2.78) + 73, 0.01},
		// The paper prints 2.33e86; C(288,144) = 2.33e85. The mantissa
		// matches exactly and the 25/50/75% rows match to 2 decimals, so we
		// treat the exponent as a typo.
		{"agnews-100", 1, 144, 288, math.Log10(2.33) + 85, 0.01},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := LogSearchSpace(tc.orig, tc.aug) + math.Log10(float64(tc.channels))
			if math.Abs(got-tc.wantLog10) > tc.tol {
				t.Fatalf("log10 search space = %.4f, paper %.4f", got, tc.wantLog10)
			}
		})
	}
}

func TestImageSearchSpaceStringChannelFactor(t *testing.T) {
	// CIFAR-10 at 25%: 3·C(1600,576) ≈ 6.86e452 (the paper's cell).
	got := ImageSearchSpaceString(3, 32*32, 40*40)
	if !strings.Contains(got, "e452") || !strings.HasPrefix(got, "6.8") {
		t.Fatalf("CIFAR 25%% search space = %q, want 6.86e452", got)
	}
	if ImageSearchSpaceString(1, 20, 25) != "53130" {
		t.Fatal("single-channel path must match SearchSpaceString")
	}
}

func TestSearchSpaceStringFormats(t *testing.T) {
	// Small: exact integer like the paper's 53130.
	if got := SearchSpaceString(20, 25); got != "53130" {
		t.Fatalf("SearchSpaceString(20,25) = %q, want 53130", got)
	}
	if got := SearchSpaceString(20, 30); got != "30045015" {
		t.Fatalf("SearchSpaceString(20,30) = %q, want 30045015", got)
	}
	// Large: mantissa-exponent.
	got := SearchSpaceString(28*28, 42*42)
	if !strings.Contains(got, "e524") {
		t.Fatalf("SearchSpaceString mnist-50 = %q, want ...e524", got)
	}
	if got := SearchSpaceString(5, 5); got != "1" {
		t.Fatalf("zero augmentation search space = %q", got)
	}
}

func TestBruteForceYears(t *testing.T) {
	if y := BruteForceYears(346, 1e12); !math.IsInf(y, 1) {
		t.Fatalf("MNIST-25%% brute force should be Inf years, got %v", y)
	}
	y := BruteForceYears(10, 1e9) // 1e10 guesses at 1e9/s ≈ 0.16 years /2
	if y <= 0 || y > 1 {
		t.Fatalf("small space brute force years = %v", y)
	}
}

func TestPrivacyEquations(t *testing.T) {
	// Fig. 15 / Eqs. 5-6.
	tests := []struct{ alpha, eps, rho float64 }{
		{0, 1, 0},
		{0.25, 0.8, 0.2},
		{0.5, 1 / 1.5, 1 - 1/1.5},
		{1, 0.5, 0.5},
		{3, 0.25, 0.75},
	}
	for _, tc := range tests {
		if got := PrivacyLoss(tc.alpha); math.Abs(got-tc.eps) > 1e-12 {
			t.Fatalf("ε(%v) = %v, want %v", tc.alpha, got, tc.eps)
		}
		if got := ComputePerformanceLoss(tc.alpha); math.Abs(got-tc.rho) > 1e-12 {
			t.Fatalf("ρ(%v) = %v, want %v", tc.alpha, got, tc.rho)
		}
	}
	curve := TradeoffCurve([]float64{0, 1})
	if len(curve) != 2 || curve[1].PrivacyLoss != 0.5 {
		t.Fatalf("TradeoffCurve wrong: %+v", curve)
	}
	// ε + ρ = 1 always.
	for a := 0.0; a < 5; a += 0.3 {
		if math.Abs(PrivacyLoss(a)+ComputePerformanceLoss(a)-1) > 1e-12 {
			t.Fatal("ε + ρ must equal 1")
		}
	}
}
