// Package cloudsim simulates the cloud side of Amalgam's workflow
// (Fig. 1): a Python-notebook-style training service that accepts a
// serialized (augmented) model plus (augmented) dataset, trains it, and
// returns the trained weights. It also provides the provider-view API —
// exactly what an honest-but-curious cloud can observe — which the attack
// analysis (§6.3) consumes, and an accelerator cost model used to report
// GPU-relative numbers on a CPU-only testbed (Fig. 14).
//
// The service speaks wire protocol v4 (frame table in frames.go). One
// connection carries one conversation: a training job run on the
// connection itself (per-epoch progress, checkpoint frames, cooperative
// cancellation, a shutdown handoff), a submission to the multi-tenant
// scheduler followed by poll/attach/cancel on later connections, or any
// number of batched predictions. CV, text-classification, and
// language-model jobs ride the same frames, and every epoch they run goes
// through the one TrainLoop that local training uses too — which is what
// makes remote, local, resumed, and fault-interrupted runs bit-identical.
//
// A modality supplies training with five things, each said once (type
// modality, one table row per job kind): the model built from a spec and
// the spec written from a model (build*/…Spec), a dataset validated out
// of a request's payload, the joint loss of a batch, and the scored
// logits of a batch (bind*). TrainLoop binds them to a request — for the
// service's rebuilt model and the LocalTrainer's live one alike — and
// owns the step; Accuracy is the eval loop.
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
	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

// ModelSpec tells the service how to instantiate the shipped model. In the
// paper's prototype the artifact is a TorchScript module — an opaque graph
// that happens to contain every sub-network's skip sets. Our spec plays
// the same role, and carries more than that graph would: besides the
// architecture and decoy seeds it holds KeyKeep, the key's keep set,
// which tells the provider which inputs of every sample are real and
// which sub-network is the original. ROADMAP item 10 is the key-free
// spec that would close this; ProviderView is what attacks may use
// meanwhile.
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
	// It crosses the wire only as the epoch of the request's msgInit
	// checkpoint, never in the hyper frame.
	StartEpoch int `json:"-"`
	// Stream asks the server to push a msgProgress frame per epoch.
	Stream bool `json:"stream,omitempty"`
	// CheckpointEvery asks the server to push a msgCheckpoint frame (a full
	// training checkpoint) every N epochs. 0 disables.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Optimizer selects the job's optimiser by spec (kind + hyperparams).
	// Nil means SGD built from the flat LR/Momentum/WeightDecay fields
	// above. A spec with LR 0 inherits Hyper.LR.
	Optimizer *optim.OptimSpec `json:"optimizer,omitempty"`
	// Schedule selects an LR schedule applied at epoch boundaries: the
	// rate is ScheduleSpec.Rate(base, completed epochs), on resume too, so
	// it never needs to travel in optimiser state.
	Schedule *optim.ScheduleSpec `json:"lr_schedule,omitempty"`
}

// recipe is the one reading of the hyper-parameters' optimiser and
// schedule; admission (Scheduler.Submit) and TrainLoop both go through it,
// so what would fail on an executor is refused at the door. After it spec
// is valid for optim.Build and h.Schedule, when set, for Rate; a kind the
// registry does not know is ErrUnknownOptimizer, any other fault
// ErrBadRequest.
func (h Hyper) recipe() (spec optim.OptimSpec, err error) {
	spec = optim.OptimSpec{Kind: optim.KindSGD, LR: h.LR, Momentum: h.Momentum, WeightDecay: h.WeightDecay}
	if h.Optimizer != nil {
		spec = *h.Optimizer
		if spec.LR == 0 {
			spec.LR = h.LR
		}
	}
	err = spec.Validate()
	if err == nil && h.Schedule != nil {
		err = h.Schedule.Validate()
	}
	switch {
	case err == nil:
	case errors.Is(err, optim.ErrUnknownKind):
		err = fmt.Errorf("cloudsim: %v: %w", err, ErrUnknownOptimizer)
	default:
		err = fmt.Errorf("cloudsim: %v: %w", err, ErrBadRequest)
	}
	return spec, err
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
	// On the wire it travels with Hyper.StartEpoch, InitOptState and
	// InitRNG as one msgInit checkpoint; without it none of them is sent.
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

// Checkpoint is the epoch boundary the response ends on as a resume point
// (kind: the job's spec kind) — what a checkpoint file, the terminal
// msgState frame and the shutdown handoff's msgCheckpoint hold. It shares
// the response's tensors.
func (r *TrainResponse) Checkpoint(kind string) *serialize.TrainCheckpoint {
	return &serialize.TrainCheckpoint{
		Epoch: r.CompletedEpochs, Kind: kind,
		State: r.State, OptState: r.OptState, RNG: r.RNG,
	}
}

// ResumeFrom points the request at an epoch boundary: training restarts at
// ck.Epoch from ck's weights, optimiser state and dropout-stream cursors.
func (req *TrainRequest) ResumeFrom(ck *serialize.TrainCheckpoint) {
	req.Hyper.StartEpoch = ck.Epoch
	req.InitState, req.InitOptState, req.InitRNG = ck.State, ck.OptState, ck.RNG
}

// Trainable is the server-side handle on a rebuilt model: everything the
// optimiser and state-dict plumbing need, for any modality.
type Trainable interface {
	Params() []nn.Param
	SetTraining(bool)
}

// modality is everything training knows about one job kind: how to build
// the model from its spec (the exported *Spec function next to each build
// is the inverse; forLoad builds it on tensor.RNG.ForLoad streams, for
// buildLoaded alone) and how to bind a model to one split of a request's
// payload. The step, the epoch loop, accuracy scoring, checkpoints and
// the wire are shared by every kind.
type modality struct {
	build func(spec ModelSpec, forLoad bool) (Trainable, error)
	// bind validates one split (what names it in errors) against the spec.
	bind func(model Trainable, spec ModelSpec, p payload, what string) (*split, error)
}

var modalities = map[string]modality{
	"plain-cv":       {build: func(spec ModelSpec, forLoad bool) (Trainable, error) { return buildCV(spec, forLoad) }, bind: bindCV},
	"augmented-cv":   {build: buildAugmentedCV, bind: bindCV},
	"augmented-text": {build: buildText, bind: bindText},
	"augmented-lm":   {build: buildLM, bind: bindLM},
}

func modalityOf(kind string) (modality, error) {
	m, ok := modalities[kind]
	if !ok {
		return m, fmt.Errorf("cloudsim: unknown model kind %q: %w", kind, ErrBadRequest)
	}
	return m, nil
}

// payload is one split (train or eval) of a request's dataset fields.
type payload struct {
	images  *tensor.Tensor
	labels  []int
	samples [][]int
}

// split is a model bound to one validated dataset split.
type split struct {
	n int
	// loss builds one mini-batch's joint loss graph (Algorithm 1): total
	// is what backpropagates, orig the original sub-network's mean loss
	// over count labels — or, for LM windows, over count next-token
	// targets of the ORIGINAL windows, so the epoch's mean Loss is per
	// original token and exp(Loss) is the paper's perplexity, which
	// TrainLoop reports when perToken is set.
	loss     func(idx []int) (total, orig *autodiff.Node, count int)
	perToken bool
	// score pairs the original sub-network's logit rows for one batch
	// with their labels.
	score func(idx []int) (logits *autodiff.Node, labels []int)
}

// BuildModel instantiates the spec. Exposed so local runs, the TCP server,
// and tests share one code path.
func BuildModel(spec ModelSpec) (Trainable, error) { return buildModel(spec, false) }

func buildModel(spec ModelSpec, forLoad bool) (Trainable, error) {
	m, err := modalityOf(spec.Kind)
	if err != nil {
		return nil, err
	}
	return m.build(spec, forLoad)
}

// augOptions reads the decoy construction out of a spec. Its inverse, in
// the *Spec functions, records the RESOLVED decoy count (the random
// SubNets draw happens outside the augmentation RNG stream), so a rebuild
// matches even unpinned jobs.
func augOptions(spec ModelSpec, forLoad bool) core.ModelAugmentOptions {
	return core.ModelAugmentOptions{Amount: spec.AugAmount, SubNets: spec.SubNets, Seed: spec.AugSeed, ForLoad: forLoad}
}

// --- CV ------------------------------------------------------------------

func buildCV(spec ModelSpec, forLoad bool) (models.CVModel, error) {
	cfg := models.CVConfig{InC: spec.InC, InH: spec.OrigH, InW: spec.OrigW, Classes: spec.Classes}
	return models.BuildCV(spec.Model, tensor.NewRNG(spec.ModelSeed).ForLoad(forLoad), cfg)
}

func buildAugmentedCV(spec ModelSpec, forLoad bool) (Trainable, error) {
	orig, err := buildCV(spec, forLoad)
	if err != nil {
		return nil, err
	}
	key, err := core.ImageAugKeyFromKeep(spec.OrigH, spec.OrigW, spec.AugH, spec.AugW, spec.KeyKeep)
	if err != nil {
		return nil, fmt.Errorf("cloudsim: invalid key in spec: %w", err)
	}
	return core.AugmentCVModel(orig, key, spec.InC, spec.Classes, augOptions(spec, forLoad))
}

// CVSpec describes an augmented CV model so buildAugmentedCV rebuilds it;
// zoo names the original architecture, inC its input channels.
func CVSpec(zoo string, inC int, am *core.AugmentedCVModel, key *core.ImageAugKey, amount float64, seed uint64) ModelSpec {
	return ModelSpec{
		Kind: "augmented-cv", Model: zoo,
		InC: inC, OrigH: key.OrigH, OrigW: key.OrigW, Classes: am.Classes,
		KeyKeep: key.Keep, AugH: key.AugH, AugW: key.AugW,
		AugAmount: amount, SubNets: len(am.Decoys), AugSeed: seed,
	}
}

// forwarder is implemented by both plain CV models and AugmentedCVModel.
type forwarder interface {
	Forward(x *autodiff.Node) *autodiff.Node
}

func bindCV(model Trainable, spec ModelSpec, p payload, what string) (*split, error) {
	n := len(p.labels)
	if p.images == nil || n == 0 || p.images.Dim(0) != n {
		return nil, fmt.Errorf("cloudsim: %s wants one image per label and has %d labels: %w", what, n, ErrBadRequest)
	}
	ds := &data.ImageDataset{Images: p.images, Labels: p.labels, Classes: spec.Classes}
	fw := model.(forwarder) // every CV model, plain or augmented
	lossFn := func(x *autodiff.Node, labels []int) (*autodiff.Node, *autodiff.Node) {
		l := autodiff.SoftmaxCrossEntropy(fw.Forward(x), labels)
		return l, l
	}
	if am, ok := model.(*core.AugmentedCVModel); ok {
		lossFn = am.Loss
	}
	return &split{
		n: n,
		loss: func(idx []int) (*autodiff.Node, *autodiff.Node, int) {
			x, labels := ds.Batch(idx)
			total, orig := lossFn(autodiff.Constant(x), labels)
			return total, orig, len(labels)
		},
		score: func(idx []int) (*autodiff.Node, []int) {
			x, labels := ds.Batch(idx)
			return fw.Forward(autodiff.Constant(x)), labels
		},
	}, nil
}

// --- text classification and language modelling ---------------------------

// textKey rebuilds the window key both token kinds carry in their spec.
func textKey(spec ModelSpec, what string) (*core.TextAugKey, error) {
	key, err := core.TextAugKeyFromKeep(spec.OrigLen, spec.AugLen, spec.KeyKeep)
	if err != nil {
		return nil, fmt.Errorf("cloudsim: invalid %s key in spec: %w", what, err)
	}
	return key, nil
}

// checkWindows requires every token sample of a split to span exactly the
// spec's augmented window; the models gather fixed positions out of it.
func checkWindows(samples [][]int, augLen int, what string) error {
	for i, s := range samples {
		if len(s) != augLen {
			return fmt.Errorf("cloudsim: %s sample %d has %d tokens, want aug_len %d: %w", what, i, len(s), augLen, ErrBadRequest)
		}
	}
	return nil
}

func buildText(spec ModelSpec, forLoad bool) (Trainable, error) {
	if spec.Vocab <= 0 || spec.EmbedDim <= 0 || spec.Classes <= 0 {
		return nil, fmt.Errorf("cloudsim: text spec needs vocab/embed_dim/classes, got %d/%d/%d: %w",
			spec.Vocab, spec.EmbedDim, spec.Classes, ErrBadRequest)
	}
	key, err := textKey(spec, "text")
	if err != nil {
		return nil, err
	}
	orig := models.NewTextClassifier(tensor.NewRNG(spec.ModelSeed).ForLoad(forLoad), spec.Vocab, spec.EmbedDim, spec.Classes)
	return core.AugmentTextClassifier(orig, key, augOptions(spec, forLoad))
}

// TextSpec describes an augmented text classifier so buildText rebuilds it.
func TextSpec(am *core.AugmentedTextClassifier, key *core.TextAugKey, amount float64, seed uint64) ModelSpec {
	orig := am.Orig
	return ModelSpec{
		Kind:  "augmented-text",
		Vocab: orig.Vocab, EmbedDim: orig.EmbedDim, Classes: orig.Classes,
		OrigLen: key.OrigLen, AugLen: key.AugLen, KeyKeep: key.Keep,
		AugAmount: amount, SubNets: len(am.Decoys), AugSeed: seed,
	}
}

func bindText(model Trainable, spec ModelSpec, p payload, what string) (*split, error) {
	n := len(p.labels)
	if len(p.samples) != n || n == 0 {
		return nil, fmt.Errorf("cloudsim: %s has %d samples for %d labels: %w", what, len(p.samples), n, ErrBadRequest)
	}
	if err := checkWindows(p.samples, spec.AugLen, what); err != nil {
		return nil, err
	}
	ds := &data.TextDataset{Samples: p.samples, Labels: p.labels, Vocab: spec.Vocab, Classes: spec.Classes}
	am := model.(*core.AugmentedTextClassifier)
	return &split{
		n: n,
		loss: func(idx []int) (*autodiff.Node, *autodiff.Node, int) {
			ids, labels := ds.Batch(idx)
			total, orig := am.Loss(ids, labels)
			return total, orig, len(labels)
		},
		score: func(idx []int) (*autodiff.Node, []int) {
			ids, labels := ds.Batch(idx)
			return am.ForwardIDs(ids), labels
		},
	}, nil
}

func buildLM(spec ModelSpec, forLoad bool) (Trainable, error) {
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
	key, err := textKey(spec, "LM")
	if err != nil {
		return nil, err
	}
	orig := models.NewTransformerLM(tensor.NewRNG(spec.ModelSeed).ForLoad(forLoad), models.TransformerLMConfig{
		Vocab: spec.Vocab, D: spec.LMDim, Heads: spec.LMHeads, FF: spec.LMFF,
		Layers: spec.LMLayers, MaxT: spec.LMMaxT, Dropout: float32(spec.LMDropout),
		GELUFF: spec.LMGELUFF,
	})
	return core.AugmentTransformerLM(orig, key, augOptions(spec, forLoad))
}

// LMSpec describes an augmented language model so buildLM rebuilds it —
// dropout streams included, through the recorded build seed.
func LMSpec(am *core.AugmentedTransformerLM, key *core.TextAugKey, amount float64, seed uint64) ModelSpec {
	cfg := am.Orig.Cfg
	return ModelSpec{
		Kind:  "augmented-lm",
		Vocab: cfg.Vocab, ModelSeed: am.Orig.BuildSeed,
		LMDim: cfg.D, LMHeads: cfg.Heads, LMFF: cfg.FF,
		LMLayers: cfg.Layers, LMMaxT: cfg.MaxT, LMDropout: float64(cfg.Dropout),
		LMGELUFF: cfg.GELUFF,
		OrigLen:  key.OrigLen, AugLen: key.AugLen, KeyKeep: key.Keep,
		AugAmount: amount, SubNets: len(am.Decoys), AugSeed: seed,
	}
}

func bindLM(model Trainable, spec ModelSpec, p payload, what string) (*split, error) {
	n := len(p.samples)
	if n == 0 {
		return nil, fmt.Errorf("cloudsim: LM %s has no token windows: %w", what, ErrBadRequest)
	}
	if err := checkWindows(p.samples, spec.AugLen, what); err != nil {
		return nil, err
	}
	ws := &data.WindowSet{Windows: p.samples, Vocab: spec.Vocab}
	am := model.(*core.AugmentedTransformerLM)
	perWindow := len(am.OrigGather.Idx) - 1
	return &split{
		n: n,
		loss: func(idx []int) (*autodiff.Node, *autodiff.Node, int) {
			wins := ws.Batch(idx)
			total, orig := am.LossWindows(wins)
			return total, orig, len(wins) * perWindow
		},
		perToken: true,
		score:    lmScore(am, ws),
	}, nil
}

// lmScore pairs the original sub-network's next-token logits over a batch
// of augmented windows with the windows' own shifted tokens.
func lmScore(am *core.AugmentedTransformerLM, ws *data.WindowSet) func(idx []int) (*autodiff.Node, []int) {
	return func(idx []int) (*autodiff.Node, []int) {
		gathered := am.OrigGather.Apply(ws.Batch(idx))
		inputs := make([][]int, len(gathered))
		targets := make([][]int, len(gathered))
		for i, w := range gathered {
			inputs[i] = w[:len(w)-1]
			targets[i] = w[1:]
		}
		return am.Orig.ForwardIDs(inputs), models.FlattenTargets(targets)
	}
}

// LMAccuracy scores the original sub-network's next-token accuracy over
// a set of augmented windows — the LM counterpart of classification
// accuracy, outside a training run.
func LMAccuracy(am *core.AugmentedTransformerLM, ws *data.WindowSet, batch int) float64 {
	return Accuracy(am, ws.N(), batch, lmScore(am, ws))
}

// bindRequest validates req's payload against its spec and binds model —
// which must be the kind of model the spec describes; anything else is a
// caller bug and panics — to the train split and, when one was shipped,
// the eval split. The model's parameters are used as they are.
func bindRequest(model Trainable, req *TrainRequest) (train, eval *split, err error) {
	m, err := modalityOf(req.Spec.Kind)
	if err != nil {
		return nil, nil, err
	}
	train, err = m.bind(model, req.Spec, payload{req.Images, req.Labels, req.Samples}, "dataset")
	if err == nil && (req.EvalImages != nil || len(req.EvalSamples) > 0) {
		eval, err = m.bind(model, req.Spec, payload{req.EvalImages, req.EvalLabels, req.EvalSamples}, "eval split")
	}
	return train, eval, err
}

// Accuracy is the eval loop behind every accuracy figure the repo's jobs
// report (TrainLoop, LMAccuracy, and the public Predict/PredictText):
// it puts m in eval mode (restoring the prior mode afterwards), walks n
// samples in order in batches (batch <= 0 means 1), scores the argmax of
// each logits row score returns against its label, and releases every
// forward graph back to the tensor pool. No labels scored — an empty
// dataset — is 0, not NaN.
func Accuracy(m interface{ SetTraining(bool) }, n, batch int,
	score func(idx []int) (logits *autodiff.Node, labels []int)) float64 {

	if batch <= 0 {
		batch = 1
	}
	prev := nn.TrainingMode(m)
	m.SetTraining(false)
	defer m.SetTraining(prev)
	correct, total := 0, 0
	for _, idx := range data.BatchIter(n, batch, nil) {
		logits, labels := score(idx)
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

// RunLocal executes a job in-process — the "deployed locally on user
// devices" mode the paper mentions, and the engine behind the TCP server.
func RunLocal(req *TrainRequest) (*TrainResponse, error) {
	return runTraining(context.Background(), req, nil, nil)
}

// runTraining rebuilds the model a wire request describes, loads the
// client's initial state into it, and drives TrainLoop.
func runTraining(ctx context.Context, req *TrainRequest,
	progress func(EpochMetric) error,
	checkpoint func(*serialize.TrainCheckpoint) error) (*TrainResponse, error) {

	model, err := buildLoaded(req)
	if err != nil {
		return nil, err
	}
	return TrainLoop(ctx, model, req, progress, checkpoint)
}

// buildLoaded builds the model req's spec describes and copies the
// client's initial state into it (req.InitState is then a copy nobody
// reads). With an init state — admission, resume and retry of any job the
// client built — the model is built for load: the strict LoadStateDict below
// overwrites every parameter or fails the request, so no weight is drawn.
// A spec that does not build, a state that does not fit: ErrBadRequest.
func buildLoaded(req *TrainRequest) (Trainable, error) {
	model, err := buildModel(req.Spec, req.InitState != nil)
	if err == nil && req.InitState != nil {
		if err = nn.LoadStateDict(model, req.InitState); err != nil {
			err = fmt.Errorf("cloudsim: loading client init: %w", err)
		}
	}
	if err != nil && !errors.Is(err, ErrBadRequest) {
		err = fmt.Errorf("%w: %w", err, ErrBadRequest)
	}
	return model, err
}

// TrainLoop is THE obfuscated-training epoch loop: it trains model on
// req's payload under req.Hyper, resuming from req.InitOptState/InitRNG
// (req.InitState is for whoever built model to load). The cloud service
// runs it over the model it rebuilt from the spec, the public
// LocalTrainer over the job's live augmented model and the very request
// RemoteTrainer would ship — so the step, batch order (per-epoch
// data.ShuffleRNG), scoring, checkpoint cadence, and cancellation
// semantics cannot drift between the two paths.
//
// progress (if non-nil) is called after every epoch; checkpoint (if
// non-nil, and hyper.CheckpointEvery > 0) receives the epoch-boundary state
// (state dict, optimiser state, dropout-stream cursors) at checkpoint
// boundaries — except the one the run ends on, hyper.Epochs: the response
// returned right after it IS that boundary (TrainResponse.Checkpoint), to
// be saved or shipped once, from there. A checkpoint's State and OptState
// alias the LIVE tensors and are the boundary's values only until the
// callback returns — the next step overwrites them — so a callback
// serialises (or copies) what it keeps before returning: LocalTrainer saves
// its file there, the scheduler cuts the checkpoint's bytes there. A
// cancelled ctx stops the loop at the NEXT EPOCH BOUNDARY (the in-flight
// epoch completes) and returns the state with Cancelled set — not an
// error, so the caller still gets the weights. Epoch granularity keeps the
// returned state and CompletedEpochs consistent: a checkpoint written from
// a cancelled run never contains a partially applied epoch, so resuming
// re-trains no batch twice.
func TrainLoop(ctx context.Context, model Trainable, req *TrainRequest,
	progress func(EpochMetric) error,
	checkpoint func(*serialize.TrainCheckpoint) error) (*TrainResponse, error) {

	hyper := req.Hyper
	if hyper.Epochs <= 0 || hyper.BatchSize <= 0 {
		return nil, fmt.Errorf("cloudsim: epochs and batch size must be positive: %w", ErrBadRequest)
	}
	if hyper.StartEpoch < 0 || hyper.StartEpoch >= hyper.Epochs {
		return nil, fmt.Errorf("cloudsim: start epoch %d out of range [0,%d): %w", hyper.StartEpoch, hyper.Epochs, ErrBadRequest)
	}
	train, eval, err := bindRequest(model, req)
	if err != nil {
		return nil, err
	}
	model.SetTraining(true)
	spec, err := hyper.recipe()
	if err != nil {
		return nil, err
	}
	opt, err := optim.Build(spec, model.Params())
	if err != nil {
		return nil, fmt.Errorf("cloudsim: building optimiser: %v: %w", err, ErrBadRequest)
	}
	// State restore, then the rate: LoadStateDict restores buffers and
	// counters, the schedule gives the rate for the completed epochs — the
	// rate itself never rides in state, so resume-vs-straight-run
	// bit-identity holds for any schedule.
	if !req.InitOptState.Empty() {
		if err := opt.LoadStateDict(req.InitOptState); err != nil {
			return nil, fmt.Errorf("cloudsim: loading optimiser state: %w", err)
		}
	}
	sched := hyper.Schedule // nil: constant rate
	if sched != nil {
		opt.SetLR(sched.Rate(spec.LR, hyper.StartEpoch))
	}
	// Dropout cursors ride in checkpoints under the state dict's dotted
	// names; a name outside the model's tree (any name at all, for a model
	// without dropout) is a request for a different architecture. Eval
	// paths run with SetTraining(false) and consume no stream, so the
	// epoch-boundary captures below are exact.
	if err := nn.LoadRNGStates(model, req.InitRNG); err != nil {
		return nil, fmt.Errorf("cloudsim: loading RNG state: %v: %w", err, ErrBadRequest)
	}
	start := time.Now() //amalgam:allow detcheck wall-clock Seconds is a reported latency metric, never an input to training
	resp := &TrainResponse{CompletedEpochs: hyper.StartEpoch}
	// capture makes resp the state at the epoch boundary just reached
	// (views of the live tensors; RNG is nil for deterministic models).
	capture := func() (err error) {
		resp.State, resp.OptState = nn.StateDict(model), opt.StateDict()
		resp.RNG, err = nn.RNGStates(model)
		return err
	}
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
		for _, idx := range data.BatchIter(train.n, hyper.BatchSize, shuffleRNG) {
			// THE training step (Algorithm 1), for every modality.
			nn.ZeroGrads(model)
			total, orig, count := train.loss(idx)
			autodiff.Backward(total)
			opt.Step()
			lossSum += float64(orig.Scalar()) * float64(count)
			seen += count
			autodiff.Release(total)
		}
		resp.CompletedEpochs = e + 1
		m := EpochMetric{
			Epoch:    e + 1,
			Loss:     lossSum / float64(seen),
			Accuracy: Accuracy(model, train.n, hyper.BatchSize, train.score),
			Seconds:  time.Since(epochStart).Seconds(), //amalgam:allow detcheck metric field on the progress report, not training state
		}
		if eval != nil {
			m.EvalAccuracy, m.HasEval = Accuracy(model, eval.n, hyper.BatchSize, eval.score), true
		}
		if train.perToken {
			m.Perplexity = math.Exp(m.Loss)
		}
		if hyper.Optimizer != nil || hyper.Schedule != nil {
			// The rate this epoch actually trained at — captured before the
			// schedule moves on.
			m.LR = opt.LR()
		}
		// The next epoch's rate is set at the boundary, before the
		// checkpoint is cut: a resume from epoch e+1 starts at this very
		// Rate(…, e+1).
		if sched != nil {
			opt.SetLR(sched.Rate(spec.LR, e+1))
		}
		resp.Metrics = append(resp.Metrics, m)
		if progress != nil {
			if err := progress(m); err != nil {
				return nil, err
			}
		}
		if checkpoint != nil && hyper.CheckpointEvery > 0 && (e+1)%hyper.CheckpointEvery == 0 && e+1 < hyper.Epochs {
			if err := capture(); err != nil {
				return nil, err
			}
			if err := checkpoint(resp.Checkpoint(req.Spec.Kind)); err != nil {
				return nil, err
			}
		}
	}
	if err := capture(); err != nil {
		return nil, err
	}
	resp.Seconds = time.Since(start).Seconds() //amalgam:allow detcheck total wall time is a reported metric, not training state
	return resp, nil
}

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
