package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/data"
	"amalgam/internal/disco"
	"amalgam/internal/he"
	"amalgam/internal/models"
	"amalgam/internal/mpc"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// Fig14FrameworkComparison reproduces the LeNet/MNIST training-time
// comparison: vanilla, Amalgam (100% augmentation), DISCO, CrypTen-style
// MPC, CPU/TEE, and PyCrCNN-style HE. Wall-clock is measured on this
// machine for vanilla/Amalgam/DISCO/MPC; the GPU baseline is the paper-
// calibrated accelerator model applied to the measured CPU time; HE is
// extrapolated from measured Paillier per-op latency (running a real HE
// epoch would take days — exactly the paper's finding).
func Fig14FrameworkComparison(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "Figure 14: LeNet/MNIST per-epoch training time by framework")
	ds := data.SyntheticMNIST(sc.TrainN, 61)
	cfg := models.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10}
	epochSteps := (ds.N() + sc.BatchSize - 1) / sc.BatchSize
	sc.Epochs = 1

	// --- Vanilla (CPU) and Amalgam (100% model + dataset augmentation):
	// the same job at amounts 0 and 1 ---
	cpu, err := trainCV("vanilla", models.NewLeNet5(tensor.NewRNG(71), cfg), ds, nil, amalgam.Options{Seed: 62}, sc)
	if err != nil {
		return err
	}
	obfuscated, err := trainCV("amalgam", models.NewLeNet5(tensor.NewRNG(71), cfg), ds, nil, amalgam.Options{Amount: 1.0, SubNets: 3, Seed: 62}, sc)
	if err != nil {
		return err
	}

	// --- DISCO-style channel obfuscation: not a job, so the loop under
	// amalgam.Train is driven directly over the live model ---
	dl, err := newDiscoLeNet(tensor.NewRNG(72), cfg)
	if err != nil {
		return err
	}
	hp := sc.cvConfig()
	discoStart := time.Now()
	_, err = cloudsim.TrainLoop(context.TODO(), dl, &cloudsim.TrainRequest{
		Spec: cloudsim.ModelSpec{Kind: "plain-cv", Classes: cfg.Classes},
		Hyper: cloudsim.Hyper{Epochs: hp.Epochs, BatchSize: hp.BatchSize, LR: hp.LR, Momentum: hp.Momentum,
			WeightDecay: hp.WeightDecay, Shuffle: true, ShuffleSeed: 62},
		Images: ds.Images, Labels: ds.Labels,
	}, nil, nil)
	if err != nil {
		return err
	}
	discoSecs := time.Since(discoStart).Seconds()

	// --- CrypTen-style MPC: measured secure-MLP epoch + throughput-based
	// secure-LeNet extrapolation ---
	eng := mpc.NewEngine(73)
	mlp := mpc.NewSecureMLP(eng, tensor.NewRNG(74), 28*28, 64, 10)
	mpcStart := time.Now()
	flops := 0.0
	for _, idx := range data.BatchIter(ds.N(), sc.BatchSize, nil) {
		x, labels := ds.Batch(idx)
		mlp.Step(x.Data, len(labels), labels, 0.05)
		n := float64(len(labels))
		flops += 2 * n * (784*64 + 64*10) * 3 // fwd + two backward matmuls
	}
	mpcMLPSecs := time.Since(mpcStart).Seconds()
	secureFlops := flops / mpcMLPSecs
	mpcLeNetSecs := mpc.ExtrapolateLeNet(secureFlops, ds.N(), sc.BatchSize, 28, 28, 10)

	// --- PyCrCNN-style HE: measured Paillier op cost, extrapolated ---
	key, err := he.GenerateKey(512)
	if err != nil {
		return err
	}
	opCost, err := he.MeasureOps(key, 20)
	if err != nil {
		return err
	}
	heSecs := he.LeNetEpochSeconds(opCost, ds.N(), 28, 28, 10)

	// --- GPU baseline (accelerator cost model) ---
	acc := PaperCalibratedAccelerator()
	gpuSecs := acc.Simulate(cpu.Seconds)

	fmt.Fprintf(w, "dataset: %d samples, batch %d, %d steps/epoch (quick scale)\n", ds.N(), sc.BatchSize, epochSteps)
	fmt.Fprintf(w, "%-22s %-14s %-12s %s\n", "framework", "epochTime(s)", "vsBaseline", "how")
	// Every measured framework runs the product epoch, which ends with a
	// scoring pass over the training set.
	const measured = "measured (epoch incl. its train-accuracy scoring pass)"
	rows := []struct {
		name string
		secs float64
		how  string
	}{
		{"baseline (GPU model)", gpuSecs, "accelerator cost model over measured CPU"},
		{"Amalgam (100%)", obfuscated.Seconds, measured},
		{"DISCO-style", discoSecs, measured},
		{"CrypTen-style MPC", mpcLeNetSecs, "measured secure throughput, LeNet schedule"},
		{"CPU only (TEE bound)", cpu.Seconds, measured},
		{"PyCrCNN-style HE", heSecs, "measured Paillier ops, LeNet schedule"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-14.2f %-12.1fx %s\n", r.name, r.secs, r.secs/gpuSecs, r.how)
	}
	fmt.Fprintf(w, "(secure MLP epoch measured directly: %.2fs; MPC comm %.1f MB, %d rounds)\n",
		mpcMLPSecs, float64(eng.BytesSent)/1e6, eng.Rounds)
	return nil
}

// discoLeNet is LeNet with a DISCO channel obfuscator after conv1.
type discoLeNet struct {
	inner *models.LeNet5
	obf   *disco.ChannelObfuscator
}

func newDiscoLeNet(rng *tensor.RNG, cfg models.CVConfig) (*discoLeNet, error) {
	obf, err := disco.NewChannelObfuscator(rng.Split(1), 6, 0.2)
	if err != nil {
		return nil, err
	}
	return &discoLeNet{inner: models.NewLeNet5(rng.Split(2), cfg), obf: obf}, nil
}

func (d *discoLeNet) Forward(x *autodiff.Node) *autodiff.Node {
	// conv1 keeps the unfused path: the DISCO obfuscator sits between the
	// convolution and its activation.
	h := autodiff.MaxPool2d(autodiff.Activate(d.obf.Forward(d.inner.Conv1.Forward(x)), tensor.ActReLU), 2, 2, 0)
	h = autodiff.MaxPool2d(d.inner.Conv2.ForwardAct(h, tensor.ActReLU), 2, 2, 0)
	flat := autodiff.Flatten(h)
	h2 := d.inner.FC1.ForwardAct(flat, tensor.ActReLU)
	h2 = d.inner.FC2.ForwardAct(h2, tensor.ActReLU)
	return d.inner.FC3.Forward(h2)
}

func (d *discoLeNet) Params() []nn.Param {
	out := d.inner.Params()
	return append(out, nn.PrefixParams("disco", d.obf.Params())...)
}

func (d *discoLeNet) SetTraining(bool) {}

// Accelerator is the cost model standing in for the paper's RTX 3090s: it
// converts measured CPU wall-clock into simulated accelerator time via a
// fixed throughput ratio. The paper's own measurements put its GPU baseline
// 8× above CPU-only training on the same LeNet/MNIST job; we default to
// that ratio and report both raw and simulated numbers.
type Accelerator struct {
	// SpeedupVsCPU is how many times faster the accelerator runs the same
	// training step than this machine's CPU.
	SpeedupVsCPU float64
}

// PaperCalibratedAccelerator returns the Fig. 14-calibrated model.
func PaperCalibratedAccelerator() Accelerator { return Accelerator{SpeedupVsCPU: 8} }

// Simulate maps measured CPU seconds to simulated accelerator seconds.
func (a Accelerator) Simulate(cpuSeconds float64) float64 {
	if a.SpeedupVsCPU <= 0 {
		return cpuSeconds
	}
	return cpuSeconds / a.SpeedupVsCPU
}
