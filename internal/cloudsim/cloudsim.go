// Package cloudsim simulates the cloud side of Amalgam's workflow
// (Fig. 1): a Python-notebook-style training service that accepts a
// serialized (augmented) model plus (augmented) dataset, trains it, and
// returns the trained weights. It also provides the provider-view API —
// exactly what an honest-but-curious cloud can observe — which the attack
// analysis (§6.3) consumes, and an accelerator cost model used to report
// GPU-relative numbers on a CPU-only testbed (Fig. 14; see DESIGN.md §4).
//
// The service speaks wire protocol v3 (frame table in frames.go). One
// connection carries one conversation: a training job run on the
// connection itself (per-epoch progress, checkpoint frames, cooperative
// cancellation, a shutdown handoff), a submission to the multi-tenant
// scheduler followed by poll/attach/cancel on later connections, or any
// number of batched predictions. CV, text-classification, and
// language-model jobs ride the same frames, and every epoch they run goes
// through the one TrainLoop that local training uses too — which is what
// makes remote, local, resumed, and fault-interrupted runs bit-identical.
package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"amalgam/internal/autodiff"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// ModelSpec tells the service how to instantiate the shipped model. In the
// paper's prototype the artifact is a TorchScript module — an opaque graph
// that happens to contain every sub-network's skip sets. Our spec plays
// the same role: it carries the gather sets and decoy seeds needed to
// rebuild the augmented graph, without any labelling the provider could
// not also derive from TorchScript (see ProviderView for what attacks may
// use).
type ModelSpec struct {
	Kind      string  `json:"kind"`            // "plain-cv", "augmented-cv", "augmented-text", or "augmented-lm"
	Model     string  `json:"model,omitempty"` // CV registry name, e.g. "lenet"
	InC       int     `json:"in_c,omitempty"`
	OrigH     int     `json:"orig_h,omitempty"`
	OrigW     int     `json:"orig_w,omitempty"`
	Classes   int     `json:"classes"`
	ModelSeed uint64  `json:"model_seed"`
	AugAmount float64 `json:"aug_amount"`
	SubNets   int     `json:"sub_nets"`
	AugSeed   uint64  `json:"aug_seed"`
	KeyKeep   []int   `json:"key_keep,omitempty"` // gather set of sub-network 0
	AugH      int     `json:"aug_h,omitempty"`
	AugW      int     `json:"aug_w,omitempty"`
	// Text-modality geometry ("augmented-text" and "augmented-lm";
	// OrigLen/AugLen are the BPTT window lengths for LM jobs).
	Vocab    int `json:"vocab,omitempty"`
	EmbedDim int `json:"embed_dim,omitempty"`
	OrigLen  int `json:"orig_len,omitempty"`
	AugLen   int `json:"aug_len,omitempty"`
	// Language-model architecture ("augmented-lm"): the transformer
	// configuration needed to rebuild the original sub-network. ModelSeed
	// doubles as the dropout-stream seed, so a rebuild reproduces the
	// exact training randomness, not just the graph.
	LMDim     int     `json:"lm_dim,omitempty"`
	LMHeads   int     `json:"lm_heads,omitempty"`
	LMFF      int     `json:"lm_ff,omitempty"`
	LMLayers  int     `json:"lm_layers,omitempty"`
	LMMaxT    int     `json:"lm_max_t,omitempty"`
	LMDropout float64 `json:"lm_dropout,omitempty"`
	// LMGELUFF selects the GELU feed-forward variant; absent/false keeps
	// the default ReLU.
	LMGELUFF bool `json:"lm_gelu_ff,omitempty"`
	// Tenant attributes the job to a fair-share scheduling bucket. Empty
	// buckets under the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// Hyper holds the training hyper-parameters of a job.
type Hyper struct {
	Epochs      int     `json:"epochs"`
	BatchSize   int     `json:"batch_size"`
	LR          float64 `json:"lr"`
	Momentum    float64 `json:"momentum"`
	WeightDecay float64 `json:"weight_decay"`
	Shuffle     bool    `json:"shuffle"`
	ShuffleSeed uint64  `json:"shuffle_seed"`
	// StartEpoch resumes a job: epochs [0, StartEpoch) are assumed done
	// (their effect carried by InitState) and metrics continue from there.
	StartEpoch int `json:"start_epoch,omitempty"`
	// Stream asks the server to push a msgProgress frame per epoch.
	Stream bool `json:"stream,omitempty"`
	// CheckpointEvery asks the server to push a msgCheckpoint frame (a full
	// training checkpoint) every N epochs. 0 disables.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Optimizer selects the job's optimiser by spec (kind + hyperparams).
	// Nil means SGD built from the flat LR/Momentum/WeightDecay fields
	// above. A spec with LR 0 inherits Hyper.LR.
	Optimizer *optim.OptimSpec `json:"optimizer,omitempty"`
	// Schedule selects an LR schedule applied at epoch boundaries. The
	// schedule is reconstructed from (spec, completed epochs) on resume,
	// so the rate never needs to travel in optimiser state.
	Schedule *optim.ScheduleSpec `json:"lr_schedule,omitempty"`
}

// TrainRequest is a complete job: spec, hyper-parameters, and the
// (augmented) dataset — images for CV jobs, token samples for text jobs.
type TrainRequest struct {
	Spec   ModelSpec
	Hyper  Hyper
	Images *tensor.Tensor // [N, C, H, W] (CV modality)
	Labels []int
	// Samples holds the augmented token sequences of a text job — or the
	// augmented stream windows of an LM job — each of length Spec.AugLen.
	Samples [][]int
	// Eval* hold an optional held-out split (already obfuscated with the
	// job key) the service scores each epoch, reported as EvalAccuracy.
	// LM jobs ship eval windows with no labels.
	EvalImages  *tensor.Tensor
	EvalLabels  []int
	EvalSamples [][]int
	// InitState, when non-nil, overrides the rebuilt model's initial
	// parameters with the client's (preserving client-side initialisation).
	InitState map[string]*tensor.Tensor
	// InitOptState, when non-nil, seeds the optimiser's resume state
	// (momentum buffers, Adam moments + step counter) — a resumed job
	// continues the optimiser trajectory instead of restarting it.
	InitOptState *optim.State
	// InitRNG, when non-nil, restores per-layer dropout-stream cursors
	// (captured at a checkpoint) into the rebuilt model, so a resumed
	// Dropout > 0 job draws the same masks an uninterrupted run would.
	InitRNG map[string][]byte
}

// EpochMetric records per-epoch training loss/accuracy (of the original
// sub-network for augmented jobs — the curve the paper plots).
type EpochMetric struct {
	Epoch    int     `json:"epoch"`
	Loss     float64 `json:"loss"`
	Accuracy float64 `json:"accuracy"`
	Seconds  float64 `json:"seconds"`
	// EvalAccuracy is the held-out accuracy when the request shipped an
	// eval split; HasEval distinguishes "no eval set" from 0%.
	EvalAccuracy float64 `json:"eval_accuracy,omitempty"`
	HasEval      bool    `json:"has_eval,omitempty"`
	// Perplexity is exp(Loss), reported for language-model jobs (whose
	// Loss is the mean per-token cross-entropy). Zero for other kinds.
	Perplexity float64 `json:"perplexity,omitempty"`
	// LR is the learning rate the epoch trained at. Populated only for
	// jobs that carry an optimiser or schedule spec.
	LR float64 `json:"lr,omitempty"`
}

// TrainResponse carries the trained weights and metrics back to the user.
type TrainResponse struct {
	State map[string]*tensor.Tensor
	// OptState holds the optimiser's final resume state (nil when the job
	// accumulated none), so a checkpoint written from the response resumes
	// bit-identically.
	OptState *optim.State
	Metrics  []EpochMetric
	Seconds  float64
	// RNG holds the model's dropout-stream cursors at the end of the run
	// (nil for models without stochastic layers), so a checkpoint written
	// from the response resumes the mask sequence bit-identically.
	RNG map[string][]byte
	// Cancelled reports that the job stopped early on a client msgCancel;
	// State then holds the epoch-aligned weights at interruption and
	// CompletedEpochs the number of fully finished epochs (the resume
	// point — resuming there re-trains no batch twice).
	Cancelled       bool
	CompletedEpochs int
}

// Snapshot is an epoch-aligned training state capture: everything needed
// to resume the run bit-identically. Checkpoint callbacks receive one per
// checkpoint boundary.
type Snapshot struct {
	// Epoch counts fully completed epochs (the resume point).
	Epoch int
	// State is the full model state dict at the boundary.
	State map[string]*tensor.Tensor
	// OptState holds the optimiser's resume state (nil when none has
	// accumulated).
	OptState *optim.State
	// RNG holds dropout-stream cursors (nil for deterministic models).
	RNG map[string][]byte
}

// RNGStateful is implemented by models whose forward pass consumes random
// streams (dropout): the loop captures the cursors into checkpoints and
// restores them on resume. Models without the interface are fully
// deterministic given their weights and need no cursor plumbing.
type RNGStateful interface {
	RNGStates() (map[string][]byte, error)
	LoadRNGStates(map[string][]byte) error
}

// Trainable is the server-side handle on a rebuilt model: everything the
// optimiser and state-dict plumbing need, for any modality.
type Trainable interface {
	Params() []nn.Param
	SetTraining(bool)
}

// BuildModel instantiates the spec. Exposed so local runs, the TCP server,
// and tests share one code path.
func BuildModel(spec ModelSpec) (Trainable, error) {
	switch spec.Kind {
	case "plain-cv":
		cfg := models.CVConfig{InC: spec.InC, InH: spec.OrigH, InW: spec.OrigW, Classes: spec.Classes}
		return models.BuildCV(spec.Model, tensor.NewRNG(spec.ModelSeed), cfg)
	case "augmented-cv":
		cfg := models.CVConfig{InC: spec.InC, InH: spec.OrigH, InW: spec.OrigW, Classes: spec.Classes}
		orig, err := models.BuildCV(spec.Model, tensor.NewRNG(spec.ModelSeed), cfg)
		if err != nil {
			return nil, err
		}
		key := &core.ImageAugKey{
			OrigH: spec.OrigH, OrigW: spec.OrigW, AugH: spec.AugH, AugW: spec.AugW,
			Keep: spec.KeyKeep,
		}
		key.Insert = complement(key.Keep, spec.AugH*spec.AugW)
		if err := key.Validate(); err != nil {
			return nil, fmt.Errorf("cloudsim: invalid key in spec: %w", err)
		}
		return core.AugmentCVModel(orig, key, spec.InC, spec.Classes, core.ModelAugmentOptions{
			Amount: spec.AugAmount, SubNets: spec.SubNets, Seed: spec.AugSeed,
		})
	case "augmented-text":
		if spec.Vocab <= 0 || spec.EmbedDim <= 0 || spec.Classes <= 0 {
			return nil, fmt.Errorf("cloudsim: text spec needs vocab/embed_dim/classes, got %d/%d/%d: %w",
				spec.Vocab, spec.EmbedDim, spec.Classes, ErrBadRequest)
		}
		orig := models.NewTextClassifier(tensor.NewRNG(spec.ModelSeed), spec.Vocab, spec.EmbedDim, spec.Classes)
		key := &core.TextAugKey{OrigLen: spec.OrigLen, AugLen: spec.AugLen, Keep: spec.KeyKeep}
		key.Insert = complement(key.Keep, spec.AugLen)
		if err := key.Validate(); err != nil {
			return nil, fmt.Errorf("cloudsim: invalid text key in spec: %w", err)
		}
		return core.AugmentTextClassifier(orig, key, core.ModelAugmentOptions{
			Amount: spec.AugAmount, SubNets: spec.SubNets, Seed: spec.AugSeed,
		})
	case "augmented-lm":
		if spec.Vocab <= 0 || spec.LMDim <= 0 || spec.LMHeads <= 0 || spec.LMLayers <= 0 || spec.LMFF <= 0 {
			return nil, fmt.Errorf("cloudsim: LM spec needs vocab/lm_dim/lm_heads/lm_layers/lm_ff, got %d/%d/%d/%d/%d: %w",
				spec.Vocab, spec.LMDim, spec.LMHeads, spec.LMLayers, spec.LMFF, ErrBadRequest)
		}
		// Training feeds OrigLen−1 tokens per window; a positional table
		// shorter than that would panic mid-epoch and take the service
		// down, so reject the spec up front.
		if spec.LMMaxT < spec.OrigLen-1 {
			return nil, fmt.Errorf("cloudsim: LM spec positional table lm_max_t %d shorter than window inputs (%d): %w",
				spec.LMMaxT, spec.OrigLen-1, ErrBadRequest)
		}
		cfg := models.TransformerLMConfig{
			Vocab: spec.Vocab, D: spec.LMDim, Heads: spec.LMHeads, FF: spec.LMFF,
			Layers: spec.LMLayers, MaxT: spec.LMMaxT, Dropout: float32(spec.LMDropout),
			GELUFF: spec.LMGELUFF,
		}
		orig := models.NewTransformerLM(tensor.NewRNG(spec.ModelSeed), cfg)
		key := &core.TextAugKey{OrigLen: spec.OrigLen, AugLen: spec.AugLen, Keep: spec.KeyKeep}
		key.Insert = complement(key.Keep, spec.AugLen)
		if err := key.Validate(); err != nil {
			return nil, fmt.Errorf("cloudsim: invalid LM key in spec: %w", err)
		}
		return core.AugmentTransformerLM(orig, key, core.ModelAugmentOptions{
			Amount: spec.AugAmount, SubNets: spec.SubNets, Seed: spec.AugSeed,
		})
	default:
		return nil, fmt.Errorf("cloudsim: unknown model kind %q: %w", spec.Kind, ErrBadRequest)
	}
}

func complement(keep []int, n int) []int {
	in := make([]bool, n)
	for _, p := range keep {
		if p >= 0 && p < n {
			in[p] = true
		}
	}
	out := make([]int, 0, n-len(keep))
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// Engine hides a job's modality behind step/accuracy closures so one
// training loop serves CV and text jobs alike. The cloud service builds
// engines from wire requests (newEngine); the public LocalTrainer builds
// them over its live job artifacts — both then drive the SAME TrainLoop,
// which is what makes local and remote training bit-identical by
// construction rather than by hand-synced copies.
type Engine struct {
	Model Trainable
	// N is the number of training samples.
	N int
	// Step runs one mini-batch: zero grads, forward, backward, optimiser
	// step, release the graph. Returns the summed original-sub-network
	// loss and the batch size.
	Step func(opt optim.Optimizer, idx []int) (lossSum float64, count int)
	// TrainAcc scores the model on the (augmented) training set.
	TrainAcc func(batch int) float64
	// EvalAcc scores the held-out split; ok is false when there is none.
	// Nil means no eval set.
	EvalAcc func(batch int) (acc float64, ok bool)
	// Perplexity marks a language-model engine: Loss is the mean
	// per-token cross-entropy, and TrainLoop reports exp(Loss) as the
	// epoch's perplexity.
	Perplexity bool
	// InitOptState seeds the optimiser's resume state before the first
	// step (checkpoint resume). Nil starts the optimiser fresh.
	InitOptState *optim.State
	// InitRNG restores dropout-stream cursors before the first step
	// (checkpoint resume). Nil leaves the model's build-time streams.
	InitRNG map[string][]byte
}

// forwarder is implemented by both plain CV models and AugmentedCVModel.
type forwarder interface {
	Forward(x *autodiff.Node) *autodiff.Node
}

func newEngine(req *TrainRequest) (*Engine, error) {
	model, err := BuildModel(req.Spec)
	if err != nil {
		return nil, err
	}
	switch req.Spec.Kind {
	case "plain-cv", "augmented-cv":
		n := len(req.Labels)
		if req.Images == nil || n == 0 || req.Images.Dim(0) != n {
			return nil, fmt.Errorf("cloudsim: dataset has %d images for %d labels: %w", imageCount(req.Images), n, ErrBadRequest)
		}
		ds := &data.ImageDataset{Images: req.Images, Labels: req.Labels, Classes: req.Spec.Classes}
		fw := model.(forwarder) // every CV model, plain or augmented
		lossFn := func(x *autodiff.Node, labels []int) (*autodiff.Node, *autodiff.Node) {
			l := autodiff.SoftmaxCrossEntropy(fw.Forward(x), labels)
			return l, l
		}
		if am, ok := model.(*core.AugmentedCVModel); ok {
			lossFn = am.Loss
		}
		accuracy := func(ds *data.ImageDataset) func(batch int) float64 {
			return func(batch int) float64 {
				return argmaxAccuracy(model, ds.N(), batch, func(idx []int) (*autodiff.Node, []int) {
					x, labels := ds.Batch(idx)
					return fw.Forward(autodiff.Constant(x)), labels
				})
			}
		}
		eng := &Engine{
			Model:    model,
			N:        n,
			Step:     CVStep(model, lossFn, ds),
			TrainAcc: accuracy(ds),
		}
		if req.EvalImages != nil {
			if len(req.EvalLabels) == 0 || req.EvalImages.Dim(0) != len(req.EvalLabels) {
				return nil, fmt.Errorf("cloudsim: eval split has %d images for %d labels: %w",
					req.EvalImages.Dim(0), len(req.EvalLabels), ErrBadRequest)
			}
			evalAcc := accuracy(&data.ImageDataset{Images: req.EvalImages, Labels: req.EvalLabels, Classes: req.Spec.Classes})
			eng.EvalAcc = func(batch int) (float64, bool) { return evalAcc(batch), true }
		}
		return eng, nil
	case "augmented-text":
		n := len(req.Labels)
		if len(req.Samples) != n || n == 0 {
			return nil, fmt.Errorf("cloudsim: dataset has %d samples for %d labels: %w", len(req.Samples), n, ErrBadRequest)
		}
		for i, s := range req.Samples {
			if len(s) != req.Spec.AugLen {
				return nil, fmt.Errorf("cloudsim: sample %d has %d tokens, want aug_len %d: %w", i, len(s), req.Spec.AugLen, ErrBadRequest)
			}
		}
		ds := &data.TextDataset{Samples: req.Samples, Labels: req.Labels, Vocab: req.Spec.Vocab, Classes: req.Spec.Classes}
		am := model.(*core.AugmentedTextClassifier)
		accuracy := func(ds *data.TextDataset) func(batch int) float64 {
			return func(batch int) float64 {
				return argmaxAccuracy(am, ds.N(), batch, func(idx []int) (*autodiff.Node, []int) {
					ids, labels := ds.Batch(idx)
					return am.ForwardIDs(ids), labels
				})
			}
		}
		eng := &Engine{
			Model:    model,
			N:        n,
			Step:     TextStep(am, ds),
			TrainAcc: accuracy(ds),
		}
		if len(req.EvalSamples) > 0 {
			if len(req.EvalSamples) != len(req.EvalLabels) {
				return nil, fmt.Errorf("cloudsim: eval split has %d samples for %d labels: %w",
					len(req.EvalSamples), len(req.EvalLabels), ErrBadRequest)
			}
			evalAcc := accuracy(&data.TextDataset{Samples: req.EvalSamples, Labels: req.EvalLabels, Vocab: req.Spec.Vocab, Classes: req.Spec.Classes})
			eng.EvalAcc = func(batch int) (float64, bool) { return evalAcc(batch), true }
		}
		return eng, nil
	case "augmented-lm":
		n := len(req.Samples)
		if n == 0 {
			return nil, fmt.Errorf("cloudsim: LM job has no token windows: %w", ErrBadRequest)
		}
		for i, s := range req.Samples {
			if len(s) != req.Spec.AugLen {
				return nil, fmt.Errorf("cloudsim: window %d has %d tokens, want aug_len %d: %w", i, len(s), req.Spec.AugLen, ErrBadRequest)
			}
		}
		ws := &data.WindowSet{Windows: req.Samples, Vocab: req.Spec.Vocab}
		am := model.(*core.AugmentedTransformerLM)
		eng := &Engine{
			Model:      model,
			N:          n,
			Step:       LMStep(am, ws),
			TrainAcc:   func(batch int) float64 { return LMAccuracy(am, ws, batch) },
			Perplexity: true,
		}
		if len(req.EvalSamples) > 0 {
			for i, s := range req.EvalSamples {
				if len(s) != req.Spec.AugLen {
					return nil, fmt.Errorf("cloudsim: eval window %d has %d tokens, want aug_len %d: %w", i, len(s), req.Spec.AugLen, ErrBadRequest)
				}
			}
			ews := &data.WindowSet{Windows: req.EvalSamples, Vocab: req.Spec.Vocab}
			eng.EvalAcc = func(batch int) (float64, bool) { return LMAccuracy(am, ews, batch), true }
		}
		return eng, nil
	default:
		return nil, fmt.Errorf("cloudsim: unknown model kind %q: %w", req.Spec.Kind, ErrBadRequest)
	}
}

// CVStep builds the canonical CV mini-batch step: zero grads, joint loss,
// backward, optimiser step, graph release. Shared by the service and the
// public LocalTrainer so there is exactly one definition of "a training
// step" per modality.
func CVStep(model Trainable, lossFn func(x *autodiff.Node, labels []int) (total, orig *autodiff.Node), ds *data.ImageDataset) func(optim.Optimizer, []int) (float64, int) {
	return func(opt optim.Optimizer, idx []int) (float64, int) {
		x, labels := ds.Batch(idx)
		nn.ZeroGrads(model)
		total, orig := lossFn(autodiff.Constant(x), labels)
		autodiff.Backward(total)
		opt.Step()
		l := float64(orig.Scalar()) * float64(len(labels))
		autodiff.Release(total)
		return l, len(labels)
	}
}

// TextStep is CVStep's text-classification counterpart.
func TextStep(am *core.AugmentedTextClassifier, ds *data.TextDataset) func(optim.Optimizer, []int) (float64, int) {
	return func(opt optim.Optimizer, idx []int) (float64, int) {
		ids, labels := ds.Batch(idx)
		nn.ZeroGrads(am)
		total, orig := am.Loss(ids, labels)
		autodiff.Backward(total)
		opt.Step()
		l := float64(orig.Scalar()) * float64(len(labels))
		autodiff.Release(total)
		return l, len(labels)
	}
}

// LMStep is CVStep's language-modelling counterpart: one batch of
// augmented windows through Algorithm 1's joint loss. The returned count
// is in next-token targets of the ORIGINAL windows, so the loop's mean
// Loss is per original token and exp(Loss) is the paper's perplexity.
func LMStep(am *core.AugmentedTransformerLM, ws *data.WindowSet) func(optim.Optimizer, []int) (float64, int) {
	perWindow := len(am.OrigGather.Idx) - 1
	return func(opt optim.Optimizer, idx []int) (float64, int) {
		wins := ws.Batch(idx)
		nn.ZeroGrads(am)
		total, orig := am.LossWindows(wins)
		autodiff.Backward(total)
		opt.Step()
		tokens := len(wins) * perWindow
		l := float64(orig.Scalar()) * float64(tokens)
		autodiff.Release(total)
		return l, tokens
	}
}

// argmaxAccuracy is the eval loop behind every accuracy figure this
// package reports (both service engines and LMAccuracy; the root package
// keeps its own copy for Predict/PredictText, since sharing this one
// would take a new exported name): it puts m in eval mode (restoring the
// prior mode afterwards), walks n samples in order in batches, scores the
// argmax of each logits row forward returns against its label, and
// releases every forward graph back to the tensor pool. No labels scored
// — an empty dataset — is 0, not NaN.
func argmaxAccuracy(m interface{ SetTraining(bool) }, n, batch int,
	forward func(idx []int) (logits *autodiff.Node, labels []int)) float64 {

	prev := nn.TrainingMode(m)
	m.SetTraining(false)
	defer m.SetTraining(prev)
	correct, total := 0, 0
	for _, idx := range data.BatchIter(n, batch, nil) {
		logits, labels := forward(idx)
		pred := tensor.ArgmaxRows(logits.Val)
		autodiff.Release(logits)
		for i, p := range pred {
			if p == labels[i] {
				correct++
			}
		}
		total += len(labels)
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// LMAccuracy scores the original sub-network's next-token accuracy over
// a set of augmented windows — the LM counterpart of classification
// accuracy, shared by the service engine and the public LMJob.
func LMAccuracy(am *core.AugmentedTransformerLM, ws *data.WindowSet, batch int) float64 {
	return argmaxAccuracy(am, ws.N(), batch, func(idx []int) (*autodiff.Node, []int) {
		gathered := am.OrigGather.Apply(ws.Batch(idx))
		inputs := make([][]int, len(gathered))
		targets := make([][]int, len(gathered))
		for i, w := range gathered {
			inputs[i] = w[:len(w)-1]
			targets[i] = w[1:]
		}
		return am.Orig.ForwardIDs(inputs), models.FlattenTargets(targets)
	})
}

func imageCount(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return t.Dim(0)
}

// RunLocal executes a job in-process — the "deployed locally on user
// devices" mode the paper mentions, and the engine behind the TCP server.
func RunLocal(req *TrainRequest) (*TrainResponse, error) {
	return runTraining(context.Background(), req, nil, nil)
}

// runTraining builds the engine from a wire request and drives TrainLoop.
func runTraining(ctx context.Context, req *TrainRequest,
	progress func(EpochMetric) error,
	checkpoint func(*Snapshot) error) (*TrainResponse, error) {

	eng, err := newEngine(req)
	if err != nil {
		return nil, err
	}
	if req.InitState != nil {
		if err := nn.LoadStateDict(eng.Model, req.InitState); err != nil {
			return nil, fmt.Errorf("cloudsim: loading client init: %w", err)
		}
	}
	eng.InitOptState = req.InitOptState
	eng.InitRNG = req.InitRNG
	return TrainLoop(ctx, eng, req.Hyper, progress, checkpoint)
}

// TrainLoop is THE obfuscated-training epoch loop — the cloud service and
// the public LocalTrainer both run it, so batch order (per-epoch
// data.ShuffleRNG), checkpoint cadence, and cancellation semantics cannot
// drift between the two paths.
//
// progress (if non-nil) is called after every epoch; checkpoint (if
// non-nil, and hyper.CheckpointEvery > 0) receives an epoch-aligned
// Snapshot (state dict, momentum buffers, dropout-stream cursors) at
// checkpoint boundaries. A cancelled ctx stops the loop at the NEXT
// EPOCH BOUNDARY (the in-flight epoch completes) and returns the state
// with Cancelled set — not an error, so the caller still gets the
// weights. Epoch granularity keeps the returned state and
// CompletedEpochs consistent: a checkpoint written from a cancelled run
// never contains a partially applied epoch, so resuming re-trains no
// batch twice.
func TrainLoop(ctx context.Context, eng *Engine, hyper Hyper,
	progress func(EpochMetric) error,
	checkpoint func(*Snapshot) error) (*TrainResponse, error) {

	if hyper.Epochs <= 0 || hyper.BatchSize <= 0 {
		return nil, fmt.Errorf("cloudsim: epochs and batch size must be positive: %w", ErrBadRequest)
	}
	if hyper.StartEpoch < 0 || hyper.StartEpoch >= hyper.Epochs {
		return nil, fmt.Errorf("cloudsim: start epoch %d out of range [0,%d): %w", hyper.StartEpoch, hyper.Epochs, ErrBadRequest)
	}
	eng.Model.SetTraining(true)
	// Resolve the optimiser through the spec registry. Without an explicit
	// spec the flat Hyper fields describe SGD; a spec with LR 0 inherits
	// Hyper.LR so schedules and flat configs compose.
	spec := optim.OptimSpec{Kind: optim.KindSGD, LR: hyper.LR, Momentum: hyper.Momentum, WeightDecay: hyper.WeightDecay}
	if hyper.Optimizer != nil {
		spec = *hyper.Optimizer
		if spec.LR == 0 {
			spec.LR = hyper.LR
		}
	}
	opt, err := optim.Build(spec, eng.Model.Params())
	if err != nil {
		if errors.Is(err, optim.ErrUnknownKind) {
			return nil, fmt.Errorf("cloudsim: optimiser kind %q: %w", spec.Kind, ErrUnknownOptimizer)
		}
		return nil, fmt.Errorf("cloudsim: optimiser spec: %v: %w", err, ErrBadRequest)
	}
	var sched optim.Schedule
	if hyper.Schedule != nil {
		sched, err = optim.BuildSchedule(*hyper.Schedule, opt)
		if err != nil {
			if errors.Is(err, optim.ErrUnknownKind) {
				return nil, fmt.Errorf("cloudsim: schedule kind %q: %w", hyper.Schedule.Kind, ErrUnknownOptimizer)
			}
			return nil, fmt.Errorf("cloudsim: schedule spec: %v: %w", err, ErrBadRequest)
		}
	}
	// State restore before schedule positioning: LoadStateDict restores
	// buffers and counters, then SetEpoch reconstructs the rate from
	// (spec, completed epochs) — the rate itself never rides in state, so
	// resume-vs-straight-run bit-identity holds for any schedule.
	if !eng.InitOptState.Empty() {
		if err := opt.LoadStateDict(eng.InitOptState); err != nil {
			return nil, fmt.Errorf("cloudsim: loading optimiser state: %w", err)
		}
	}
	if sched != nil {
		sched.SetEpoch(hyper.StartEpoch)
	}
	stateful, _ := eng.Model.(RNGStateful)
	if len(eng.InitRNG) > 0 {
		if stateful == nil {
			return nil, fmt.Errorf("cloudsim: RNG state shipped for a model without random streams: %w", ErrBadRequest)
		}
		if err := stateful.LoadRNGStates(eng.InitRNG); err != nil {
			return nil, fmt.Errorf("cloudsim: loading RNG state: %w", err)
		}
	}
	// captureRNG snapshots the dropout cursors at an epoch boundary (nil
	// for deterministic models) — eval paths run with SetTraining(false)
	// and consume no stream, so boundary captures are exact.
	captureRNG := func() (map[string][]byte, error) {
		if stateful == nil {
			return nil, nil
		}
		return stateful.RNGStates()
	}
	start := time.Now() //amalgam:allow detcheck wall-clock Seconds is a reported latency metric, never an input to training
	resp := &TrainResponse{CompletedEpochs: hyper.StartEpoch}
	for e := hyper.StartEpoch; e < hyper.Epochs; e++ {
		if ctx.Err() != nil {
			resp.Cancelled = true
			break
		}
		epochStart := time.Now() //amalgam:allow detcheck per-epoch wall time is a reported metric, never an input to training
		var shuffleRNG *tensor.RNG
		if hyper.Shuffle {
			shuffleRNG = data.ShuffleRNG(hyper.ShuffleSeed, e)
		}
		var lossSum float64
		seen := 0
		for _, idx := range data.BatchIter(eng.N, hyper.BatchSize, shuffleRNG) {
			l, c := eng.Step(opt, idx)
			lossSum += l
			seen += c
		}
		resp.CompletedEpochs = e + 1
		m := EpochMetric{
			Epoch:    e + 1,
			Loss:     lossSum / float64(seen),
			Accuracy: eng.TrainAcc(hyper.BatchSize),
			Seconds:  time.Since(epochStart).Seconds(), //amalgam:allow detcheck metric field on the progress report, not training state
		}
		if eng.EvalAcc != nil {
			m.EvalAccuracy, m.HasEval = eng.EvalAcc(hyper.BatchSize)
		}
		if eng.Perplexity {
			m.Perplexity = math.Exp(m.Loss)
		}
		if hyper.Optimizer != nil || hyper.Schedule != nil {
			// The rate this epoch actually trained at — captured before the
			// schedule advances.
			m.LR = opt.LR()
		}
		// The schedule advances at the epoch boundary, before the
		// checkpoint is cut: a resume from epoch e+1 re-derives this exact
		// position via SetEpoch(e+1). Exactly one EpochEnd per epoch.
		if sched != nil {
			sched.EpochEnd()
		}
		resp.Metrics = append(resp.Metrics, m)
		if progress != nil {
			if err := progress(m); err != nil {
				return nil, err
			}
		}
		if checkpoint != nil && hyper.CheckpointEvery > 0 && (e+1)%hyper.CheckpointEvery == 0 {
			rng, err := captureRNG()
			if err != nil {
				return nil, err
			}
			snap := &Snapshot{Epoch: e + 1, State: nn.StateDict(eng.Model), OptState: opt.StateDict(), RNG: rng}
			if err := checkpoint(snap); err != nil {
				return nil, err
			}
		}
	}
	resp.State = nn.StateDict(eng.Model)
	resp.OptState = opt.StateDict()
	rng, err := captureRNG()
	if err != nil {
		return nil, err
	}
	resp.RNG = rng
	resp.Seconds = time.Since(start).Seconds() //amalgam:allow detcheck total wall time is a reported metric, not training state
	return resp, nil
}

// Accelerator is the cost model standing in for the paper's RTX 3090s: it
// converts measured CPU wall-clock into simulated accelerator time via a
// fixed throughput ratio. The paper's own measurements put its GPU baseline
// 8× above CPU-only training on the same LeNet/MNIST job; we default to
// that ratio and report both raw and simulated numbers (DESIGN.md §4).
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
