package amalgam_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"amalgam"
	"amalgam/internal/data"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// trainedGolden holds one SHA-256 per (job, backend): the augmented state
// dict after two epochs of amalgam.Train.
const trainedGolden = "testdata/trained.golden"

// trainedJob is one golden job: how it trains and the model it hashes.
type trainedJob struct {
	name string
	job  amalgam.TrainableJob
	cfg  amalgam.TrainConfig
	aug  interface{ Params() []nn.Param }
}

// trainedJobs are the golden's jobs, each built fresh per call:
//   - an LM (vocab 2000, D 32, 2 decoys, dropout 0.1) under Adam whose
//     full batches reach the loss heads' weight gradient as a
//     [N·T = 368, 2000] panel, past the kernels' 1 MB slab, so the dW
//     entry walks it in K-blocks;
//   - LeNet with 3 decoys and taps under SGD with momentum;
//   - the text classifier with 2 decoys under SGD with momentum;
//   - VGG16+CBAM (the only graph with channel and spatial attention),
//     MobileNetV2 (depthwise convolutions, inverted residuals) and
//     DenseNet121 (channel concatenation), each obfuscated at amount 0.25
//     with 2 decoys over four 3×32×32 samples, one batch of 4 per epoch,
//     under SGD with momentum;
//   - ResNet18 (cv_local's model) the same way over four 3×8×8 samples,
//     the smallest input its three stride-2 stages halve to 1×1.
func trainedJobs(t *testing.T) []trainedJob {
	t.Helper()
	const vocab, bptt = 2000, 24
	stream := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt", Tokens: 768, Vocab: vocab, Seed: 1})
	lm := amalgam.BuildLMModel(3, amalgam.TransformerLMConfig{
		Vocab: vocab, D: 32, Heads: 2, FF: 32, Layers: 1, MaxT: 32, Dropout: 0.1})
	lmJob, err := amalgam.ObfuscateTokens(lm, stream, bptt, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	ds := amalgam.SyntheticMNIST(16, 1)
	lenet, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	cvJob, err := amalgam.Obfuscate(lenet, ds, amalgam.Options{Amount: 0.5, SubNets: 3, Seed: 5, ModelName: "lenet"})
	if err != nil {
		t.Fatal(err)
	}

	textJob := mkTextJob(t)
	sgd := amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9}
	jobs := []trainedJob{
		{"lm", lmJob, amalgam.TrainConfig{Epochs: 2, BatchSize: 16, Optimizer: amalgam.Adam(0.01)}, lmJob.Augmented},
		{"lenet", cvJob, sgd, cvJob.Augmented},
		{"text", textJob, sgd, textJob.Augmented},
	}

	cifar := amalgam.SyntheticCIFAR10(4, 2)
	cifarSGD := amalgam.TrainConfig{Epochs: 2, BatchSize: 4, LR: 0.05, Momentum: 0.9}
	for i, name := range []string{"vgg16cbam", "mobilenetv2", "densenet121"} {
		m, err := amalgam.BuildCV(name, uint64(20+i), amalgam.CVConfig{InC: 3, InH: 32, InW: 32, Classes: 10})
		if err != nil {
			t.Fatal(err)
		}
		job, err := amalgam.Obfuscate(m, cifar, amalgam.Options{Amount: 0.25, SubNets: 2, Seed: uint64(30 + i), ModelName: name})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, trainedJob{name, job, cifarSGD, job.Augmented})
	}

	tiny := data.GenerateImages(data.ImageConfig{Name: "tiny", N: 4, C: 3, H: 8, W: 8, Classes: 10, Seed: 2, Noise: 0.08})
	resnet, err := amalgam.BuildCV("resnet18", 23, amalgam.CVConfig{InC: 3, InH: 8, InW: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	resnetJob, err := amalgam.Obfuscate(resnet, tiny, amalgam.Options{Amount: 0.25, SubNets: 2, Seed: 33, ModelName: "resnet18"})
	if err != nil {
		t.Fatal(err)
	}
	return append(jobs, trainedJob{"resnet18", resnetJob, cifarSGD, resnetJob.Augmented})
}

// stateHash is the SHA-256 of every parameter in order: its name, its
// shape and its float32 bit patterns, little-endian.
func stateHash(m interface{ Params() []nn.Param }) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range m.Params() {
		fmt.Fprintf(h, "%s %v\n", p.Name, p.Node.Val.Shape())
		for _, v := range p.Node.Val.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedWeightsGolden pins the trained weights themselves: a kernel
// change that claims to move no bit must leave every hash here as it is.
// Backends round differently (AVX2 fuses each multiply-add, the pure-Go
// kernels do not), so amd64 keeps one key per backend — "avx2" when the
// CPU has it, and "generic" with the SIMD kernels switched off. Other
// platforms round differently again and skip until one arithmetic holds on
// every machine (ROADMAP item 11). -update rewrites the file.
func TestTrainedWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trained-weight goldens are amd64's (avx2 and generic); %s rounds differently until ROADMAP item 11", runtime.GOARCH)
	}
	backends := []struct {
		name string
		simd bool
	}{{"generic", false}}
	if tensor.SIMDEnabled() {
		backends = append([]struct {
			name string
			simd bool
		}{{"avx2", true}}, backends...)
	}
	want := readTrainedGolden(t)
	got := map[string]string{}
	for _, be := range backends {
		prev := tensor.SetSIMD(be.simd)
		for _, j := range trainedJobs(t) {
			if _, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, j.job, j.cfg); err != nil {
				tensor.SetSIMD(prev)
				t.Fatalf("%s: %v", j.name, err)
			}
			key := j.name + "/" + be.name
			got[key] = stateHash(j.aug)
			if !*updateAPI && got[key] != want[key] {
				t.Errorf("%s: trained state sha256 %s, want %s", key, got[key], want[key])
			}
		}
		tensor.SetSIMD(prev)
	}
	if *updateAPI {
		for k, v := range want {
			if _, ok := got[k]; !ok {
				got[k] = v // a backend this machine cannot run keeps its line
			}
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(trainedGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readTrainedGolden parses "job/backend sha256" lines.
func readTrainedGolden(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	f, err := os.Open(trainedGolden)
	if err != nil {
		if *updateAPI && os.IsNotExist(err) {
			return out
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			out[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
