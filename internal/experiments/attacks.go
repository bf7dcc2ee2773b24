package experiments

import (
	"fmt"
	"io"

	"amalgam"
	"amalgam/internal/attacks"
	"amalgam/internal/autodiff"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/tensor"
)

// BruteForce prints the brute-force analysis of §6.3: search space per
// dataset/amount and years-to-enumerate at a (generous) guess rate.
func BruteForce(w io.Writer) {
	fmt.Fprintln(w, "Brute-force attack analysis (10^12 guesses/second)")
	fmt.Fprintf(w, "%-11s %-8s %-14s %s\n", "dataset", "amount", "searchSpace", "years(half-space)")
	type row struct {
		name      string
		orig, per int // original unit length, per side or window
		image     bool
	}
	rows := []row{{"mnist", 28, 0, true}, {"cifar10", 32, 0, true}, {"wikitext2", 20, 0, false}, {"agnews", data.AGNewsSeqLen, 0, false}}
	for _, r := range rows {
		for _, a := range Amounts {
			var orig, aug int
			if r.image {
				orig = r.orig * r.orig
				side := core.AugmentedDim(r.orig, a)
				aug = side * side
			} else {
				orig = r.orig
				aug = core.AugmentedDim(r.orig, a)
			}
			lg := core.LogSearchSpace(orig, aug)
			years := core.BruteForceYears(lg, 1e12)
			fmt.Fprintf(w, "%-11s %-8s %-14s %g\n", r.name, pct(a), core.SearchSpaceString(orig, aug), years)
		}
	}
}

// Fig16GradientLeakage reproduces the DLG/iDLG experiment: reconstruction
// quality from observed gradients, plain vs Amalgam-augmented victim.
func Fig16GradientLeakage(w io.Writer) error {
	fmt.Fprintln(w, "Figure 16: gradient-leakage (DLG/iDLG) reconstruction quality")
	ds := data.GenerateImages(data.ImageConfig{Name: "g", N: 1, C: 1, H: 8, W: 8, Classes: 4, Seed: 81, Noise: 0.03})
	orig := ds.Image(0).Reshape(1, 64)
	label := ds.Labels[0]

	// Plain victim.
	plain := attacks.NewAttackMLP(tensor.NewRNG(82), 64, 24, 4)
	obs := attacks.ObservedGradients(plain, orig, label)
	closed := attacks.RecoverFromLinearGradients(obs["fc1.weight"], obs["fc1.bias"])
	dlgPlain := attacks.DLG(plain, []int{1, 64}, label, obs, attacks.DefaultDLGOptions())

	// Amalgam victim: 50% augmented data + model (the paper's setting).
	aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: 0.5, Noise: core.DefaultImageNoise(), Seed: 83})
	if err != nil {
		return err
	}
	augLen := aug.Key.AugH * aug.Key.AugW
	victim := attacks.NewAttackMLP(tensor.NewRNG(82), augLen, 24, 4)
	augInput := aug.Dataset.Image(0).Reshape(1, augLen)
	obsA := attacks.ObservedGradients(victim, augInput, label)
	closedA := attacks.RecoverFromLinearGradients(obsA["fc1.weight"], obsA["fc1.bias"])
	dlgAug := attacks.DLG(victim, []int{1, augLen}, label, obsA, attacks.DefaultDLGOptions())

	resize := func(t *tensor.Tensor) *tensor.Tensor {
		return attacks.ResizeNaive(t.Reshape(1, aug.Key.AugH, aug.Key.AugW), 8, 8).Reshape(1, 64)
	}
	fmt.Fprintf(w, "%-34s %-10s\n", "attack", "PSNR(dB)")
	fmt.Fprintf(w, "%-34s %-10.1f\n", "iDLG closed-form, plain", attacks.PSNR(closed, orig.Reshape(64)))
	fmt.Fprintf(w, "%-34s %-10.1f\n", "DLG iterative, plain", attacks.PSNR(dlgPlain.Reconstruction, orig))
	fmt.Fprintf(w, "%-34s %-10.1f\n", "iDLG closed-form, Amalgam 50%", attacks.PSNR(resize(closedA.Reshape(1, augLen)), orig))
	fmt.Fprintf(w, "%-34s %-10.1f\n", "DLG iterative, Amalgam 50%", attacks.PSNR(resize(dlgAug.Reconstruction), orig))
	return nil
}

// Fig17SHAPDistortion reproduces the model-inversion probe: occlusion
// attributions before vs after augmentation.
func Fig17SHAPDistortion(w io.Writer) error {
	fmt.Fprintln(w, "Figure 17: SHAP-style attribution distortion after augmentation")
	ds := data.GenerateImages(data.ImageConfig{Name: "s", N: 16, C: 1, H: 12, W: 12, Classes: 3, Seed: 91, Noise: 0.05})
	cfg := models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 3}
	sc := Scale{TrainN: 16, TestN: 8, Epochs: 2, BatchSize: 8, LR: 0.05}

	plain := models.NewLeNet5(tensor.NewRNG(92), cfg)
	if _, err := trainCV("plain", plain, ds, nil, amalgam.Options{Seed: 93}, sc); err != nil {
		return err
	}
	job, err := amalgam.Obfuscate(models.NewLeNet5(tensor.NewRNG(92), cfg), ds, amalgam.Options{Amount: 1.0, SubNets: 3, Seed: 93})
	if err != nil {
		return err
	}
	am := job.Augmented
	if _, err := train("aug", job, am.TotalParams(), sc.cvConfig(), nil, nil); err != nil {
		return err
	}

	img := ds.Image(0)
	cleanAttr := attacks.OcclusionAttribution(plain, img, ds.Labels[0])
	// The provider explains the shipped augmented model on the augmented
	// input; it cannot gather through the secret key.
	augAttr := attacks.OcclusionAttribution(&augForwardAll{am}, job.AugmentedDataset.Image(0), ds.Labels[0])
	corr := attacks.AttributionDistortion(cleanAttr, augAttr, 12, 12, job.Key.AugH, job.Key.AugW)
	fmt.Fprintf(w, "attribution correlation plain-vs-augmented: %.3f (≈0 ⇒ explanations are useless, matching the paper)\n", corr)

	// Self-control: the clean model's attribution correlates with itself.
	self := attacks.Pearson(cleanAttr, cleanAttr)
	fmt.Fprintf(w, "control self-correlation: %.3f\n", self)
	return nil
}

// augForwardAll exposes the augmented model's full output (sum of all
// sub-network logits), which is what a provider-side explainer probes —
// it cannot single out the original head.
type augForwardAll struct{ am *core.AugmentedCVModel }

// Forward sums every sub-network's logits.
func (a *augForwardAll) Forward(x *autodiff.Node) *autodiff.Node {
	orig, decoys := a.am.ForwardAll(x)
	return autodiff.AddN(append([]*autodiff.Node{orig}, decoys...)...)
}

// Fig18DenoisingAttack reproduces the denoising attack.
func Fig18DenoisingAttack(w io.Writer) error {
	fmt.Fprintln(w, "Figure 18: denoising attack on an augmented image (PSNR dB vs ground truth)")
	ds := data.SyntheticCIFAR10(1, 95)
	origImg := ds.Image(0)
	rng := tensor.NewRNG(96)

	noisy := attacks.AddGaussianNoise(origImg, 0.196, rng) // σ=50/255, the paper's control
	fmt.Fprintf(w, "%-34s %-10.1f\n", "noisy input (σ=50/255), no attack", attacks.PSNR(noisy, origImg))
	for _, r := range attacks.RunDenoiseAttack(noisy, origImg) {
		fmt.Fprintf(w, "%-34s %-10.1f\n", "denoise("+r.Denoiser+") on gaussian", r.PSNR)
	}
	aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{
		Amount: 0.2,
		Noise:  core.NoiseSpec{Type: core.NoiseGaussian, Mean: 0.5, Sigma: 0.196, Min: 0, Max: 1},
		Seed:   97,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %-10.1f\n", "augmented 20%, naive resize", attacks.PSNR(attacks.ResizeNaive(aug.Dataset.Image(0), 32, 32), origImg))
	for _, r := range attacks.RunDenoiseAttack(aug.Dataset.Image(0), origImg) {
		fmt.Fprintf(w, "%-34s %-10.1f\n", "denoise("+r.Denoiser+") on amalgam", r.PSNR)
	}
	return nil
}

// SubnetIdentification measures the provider's ability to spot the
// original sub-network from the provider view (the TV-smoothness attack),
// across augmentation amounts and noise types. Chance is 1/(1+subnets).
//
// Finding (amalgam-bench -experiment identify reprints it; see README
// "Benchmarks"): with the default uniform noise the attack succeeds —
// the original gather reconstructs a smooth natural
// image while every decoy interleaves high-frequency noise. The paper's
// user-provided noise option ("pixels from actual meaningful images",
// §4.1) is the countermeasure: it closes most of the smoothness gap.
func SubnetIdentification(w io.Writer, trials int) error {
	fmt.Fprintln(w, "Identification attack: pick the original sub-network from the provider view (TV heuristic)")
	fmt.Fprintf(w, "%-8s %-14s %-10s %s\n", "amount", "noise", "accuracy", "chance")
	for _, noiseName := range []string{"uniform", "user(image)", "smooth-infill"} {
		for _, a := range Amounts {
			acc, err := identifyTrials(a, noiseName, trials)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s %-14s %-10.2f %.2f\n", pct(a), noiseName, acc, 0.25)
		}
	}
	// The cover-image defense (internal/core/cover.go) needs amount ≥ 1.
	acc, err := identifyCoverTrials(trials)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-14s %-10.2f %.2f  <- defense: decoy gathers a real embedded image\n", "100%", "cover-image", acc, 0.25)
	return nil
}

// identifyCoverTrials runs the attack against cover-image augmentation:
// one decoy's gather points at an embedded second image, so smoothness no
// longer singles out the original. Cover images and pinned decoy gathers
// are core options amalgam.Options does not expose, so this trial
// assembles its victim from core directly.
func identifyCoverTrials(trials int) (float64, error) {
	hits := 0
	for trial := 0; trial < trials; trial++ {
		ds := data.SyntheticCIFAR10(1, uint64(100+trial))
		cover := data.SyntheticCIFAR10(1, uint64(700+trial))
		aug, err := core.AugmentImagesWithCover(ds, cover, 1.0, core.DefaultImageNoise(), uint64(200+trial))
		if err != nil {
			return 0, err
		}
		m, err := identifyVictim(trial)
		if err != nil {
			return 0, err
		}
		am, err := core.AugmentCVModel(m, aug.Key, 3, 10, core.ModelAugmentOptions{
			Amount: 1.0, SubNets: identifySubNets, Seed: uint64(400 + trial),
			DecoyGathers: [][]int{aug.CoverSet},
		})
		if err != nil {
			return 0, err
		}
		if identified(am, aug.Dataset, trial) {
			hits++
		}
	}
	return float64(hits) / float64(trials), nil
}

func identifyTrials(a float64, noiseName string, trials int) (float64, error) {
	hits := 0
	for trial := 0; trial < trials; trial++ {
		ds := data.SyntheticCIFAR10(1, uint64(100+trial))
		noise := core.DefaultImageNoise()
		switch noiseName {
		case "user(image)":
			// User-provided noise: pixels of another natural image.
			cover := data.SyntheticImagenette(1, uint64(900+trial))
			noise = core.NoiseSpec{Type: core.NoiseUser, Pool: cover.Images.Data[:65536]}
		case "smooth-infill":
			noise = core.SmoothInfillNoise(0.03)
		}
		m, err := identifyVictim(trial)
		if err != nil {
			return 0, err
		}
		job, err := amalgam.Obfuscate(m, ds, amalgam.Options{Amount: a, SubNets: identifySubNets, Noise: &noise, Seed: uint64(200 + trial)})
		if err != nil {
			return 0, err
		}
		if identified(job.Augmented, job.AugmentedDataset, trial) {
			hits++
		}
	}
	return float64(hits) / float64(trials), nil
}

// identifySubNets is the decoy count of every identification victim
// (chance is 1/(1+identifySubNets)).
const identifySubNets = 3

func identifyVictim(trial int) (models.CVModel, error) {
	return amalgam.BuildCV("lenet", uint64(300+trial), models.CVConfig{InC: 3, InH: 32, InW: 32, Classes: 10})
}

// identified reports whether the TV heuristic picks the original
// sub-network out of the shuffled gather sets — the provider view does
// the same shuffle without remembering where the original landed.
func identified(am *core.AugmentedCVModel, aug *data.ImageDataset, trial int) bool {
	sets := am.GatherSets() // orig first, pre-shuffle
	order := tensor.NewRNG(uint64(500 + trial)).Perm(len(sets))
	shuffled := make([][]int, len(sets))
	truth := 0
	for to, from := range order {
		shuffled[to] = sets[from]
		if from == 0 {
			truth = to
		}
	}
	return attacks.IdentifySubnetByTV(aug.Image(0), shuffled, 32, 32) == truth
}
