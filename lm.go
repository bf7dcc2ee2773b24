package amalgam

import (
	"fmt"
	"math"

	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// Language-model re-exports: the paper's third workload (a WikiText-2
// transformer LM trained under model/data obfuscation) is a first-class
// public job, completing the text story next to TextJob.
type (
	// TokenStream is a tokenised LM corpus: one long sequence of token
	// ids (WikiText-2 style). Its N method also satisfies EvalDataset, so
	// a held-out stream rides WithEvalSet.
	TokenStream = data.TokenStream
	// TransformerLM is the paper's WikiText-2 language model.
	TransformerLM = models.TransformerLM
	// TransformerLMConfig parameterises the transformer (d_model, heads,
	// FFN width, layers, positional-table length, dropout).
	TransformerLMConfig = models.TransformerLMConfig
	// TextConfig parameterises GenerateTokenStream.
	TextConfig = data.TextConfig
)

// Synthetic corpus generators and tokenisation (offline stand-ins; see
// package internal/data).
var (
	// SyntheticWikiText2 returns an n-token WikiText-2 stand-in at the
	// real corpus' vocabulary.
	SyntheticWikiText2 = data.SyntheticWikiText2
	// GenerateTokenStream builds a Markov/Zipfian corpus at any size.
	GenerateTokenStream = data.GenerateTokenStream
	// TokenizeCorpus builds a TokenStream (plus vocabulary) from raw text.
	TokenizeCorpus = data.TokenizeCorpus
	// DefaultTransformerLMConfig returns the paper-scale configuration
	// (d_model 200, 2 heads, 2 layers).
	DefaultTransformerLMConfig = models.DefaultTransformerLMConfig
)

// BuildLMModel constructs the transformer language model with a
// deterministic seed — the LM counterpart of BuildCV/BuildTextClassifier.
// The seed is recorded on the model so a remote job spec can rebuild not
// just the architecture but the dropout streams, keeping local and remote
// training bit-identical even with Dropout > 0.
func BuildLMModel(seed uint64, cfg TransformerLMConfig) *TransformerLM {
	m := models.NewTransformerLM(tensor.NewRNG(seed), cfg)
	m.BuildSeed = seed
	return m
}

// LMJob holds the obfuscated language-modelling artifacts and the secret
// key — the LM concretion of TrainableJob. Ship AugmentedStream and the
// augmented model to the cloud; keep the LMJob.
type LMJob struct {
	Augmented *core.AugmentedTransformerLM
	// AugmentedStream is the obfuscated corpus: every BPTT window of the
	// original stream grown to Key.AugLen tokens with synthetic tokens at
	// the key's secret positions.
	AugmentedStream *TokenStream
	Key             *TextAugKey

	opts Options
}

// ObfuscateTokens augments an LM corpus and wraps the model with decoy
// sub-networks bound to the same key — ObfuscateTokens is to token
// streams what Obfuscate is to images. The stream is processed in BPTT
// windows of bptt tokens (the paper's WikiText-2 pipeline uses 20); each
// window grows to bptt + bptt·Amount tokens, and training batches over
// the augmented windows.
func ObfuscateTokens(model *TransformerLM, stream *TokenStream, bptt int, opts Options) (*LMJob, error) {
	if model.Vocab != stream.Vocab {
		return nil, fmt.Errorf("amalgam: model vocabulary %d does not match stream vocabulary %d", model.Vocab, stream.Vocab)
	}
	if bptt <= 1 {
		return nil, fmt.Errorf("amalgam: BPTT window must be at least 2 tokens, got %d", bptt)
	}
	if len(stream.Tokens) < bptt {
		return nil, fmt.Errorf("amalgam: stream of %d tokens is shorter than one %d-token window", len(stream.Tokens), bptt)
	}
	if bptt-1 > model.Cfg.MaxT {
		return nil, fmt.Errorf("amalgam: BPTT window %d exceeds the model's positional table (MaxT %d)", bptt, model.Cfg.MaxT)
	}
	aug, err := core.AugmentTokenStream(stream, core.TextAugmentOptions{
		Amount: opts.Amount, WindowLen: bptt, Noise: opts.noise(core.DefaultTextNoise(stream.Vocab)), Seed: opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("amalgam: stream augmentation: %w", err)
	}
	am, err := core.AugmentTransformerLM(model, aug.Key, core.ModelAugmentOptions{
		Amount: opts.Amount, SubNets: opts.SubNets, Seed: opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("amalgam: model augmentation: %w", err)
	}
	opts.SubNets = len(am.Decoys) // record the resolved decoy count
	return &LMJob{
		Augmented:       am,
		AugmentedStream: aug.Stream,
		Key:             aug.Key,
		opts:            opts,
	}, nil
}

// ObfuscateTestStream augments a held-out stream with the job's key so
// the augmented model can be validated cloud-side (§5.4).
func (j *LMJob) ObfuscateTestStream(ds *TokenStream, seed uint64) (*TokenStream, error) {
	if ds.Vocab != j.Augmented.Orig.Vocab {
		return nil, fmt.Errorf("amalgam: eval stream vocabulary %d does not match the job's %d",
			ds.Vocab, j.Augmented.Orig.Vocab)
	}
	return core.AugmentTokenStreamWithKey(ds, j.Key, j.opts.noise(core.DefaultTextNoise(ds.Vocab)), seed)
}

// ops adapts the LM job to the Trainer machinery.
func (j *LMJob) ops() *jobOps {
	am := j.Augmented
	o := &jobOps{
		model: am,
		req: &cloudsim.TrainRequest{
			Spec:      cloudsim.LMSpec(am, j.Key, j.opts.Amount, j.opts.Seed),
			Samples:   j.AugmentedStream.WindowSet(j.Key.AugLen).Windows,
			InitState: nn.StateDict(am),
		},
	}
	o.attachEval = func(eds EvalDataset) error {
		ts, ok := eds.(*TokenStream)
		if !ok {
			return fmt.Errorf("amalgam: LM job eval set must be *TokenStream, got %T", eds)
		}
		augEval, err := j.ObfuscateTestStream(ts, j.opts.Seed^evalSeedSalt)
		if err != nil {
			return err
		}
		o.req.EvalSamples = augEval.WindowSet(j.Key.AugLen).Windows
		if len(o.req.EvalSamples) == 0 {
			return fmt.Errorf("amalgam: eval stream of %d tokens is shorter than one %d-token window",
				len(ts.Tokens), j.Key.OrigLen)
		}
		return nil
	}
	return o
}

// ExtractLM builds a fresh language model with the original architecture
// and copies the trained original weights into it (§4.3), verified
// bit-for-bit. The fresh model is built for load (see Job.Extract): seed is
// its BuildSeed and decides its dropout streams, as in BuildLMModel, and
// nothing else.
func (j *LMJob) ExtractLM(seed uint64) (*TransformerLM, error) {
	fresh := models.NewTransformerLM(tensor.NewRNG(seed).ForLoad(true), j.Augmented.Orig.Cfg)
	fresh.BuildSeed = seed
	if err := j.ExtractLMInto(fresh); err != nil {
		return nil, err
	}
	return fresh, nil
}

// ExtractLMInto copies the trained original weights into a user-provided
// fresh model and verifies the copy bit-for-bit.
func (j *LMJob) ExtractLMInto(fresh *TransformerLM) error {
	if err := core.Extract(j.Augmented, fresh); err != nil {
		return err
	}
	return core.VerifyExtraction(j.Augmented, fresh)
}

// Perplexity scores the job's original sub-network on a held-out stream:
// the stream is obfuscated with the job key (ObfuscateTestStream), and
// the mean next-token cross-entropy over its windows is exponentiated —
// the LM form of §5.4's augmented-test-set validation.
func (j *LMJob) Perplexity(ds *TokenStream, batch int) (float64, error) {
	aug, err := j.ObfuscateTestStream(ds, j.opts.Seed^evalSeedSalt)
	if err != nil {
		return 0, err
	}
	ws := aug.WindowSet(j.Key.AugLen)
	if ws.N() == 0 {
		return 0, fmt.Errorf("amalgam: stream of %d tokens is shorter than one %d-token window", len(ds.Tokens), j.Key.OrigLen)
	}
	if batch <= 0 {
		batch = 1
	}
	am := j.Augmented
	prev := am.Training()
	am.SetTraining(false)
	defer am.SetTraining(prev)
	perWindow := j.Key.OrigLen - 1
	var sum float64
	tokens := 0
	for _, idx := range data.BatchIter(ws.N(), batch, nil) {
		wins := ws.Batch(idx)
		l := am.ValidateLoss(wins)
		n := len(wins) * perWindow
		sum += float64(l.Scalar()) * float64(n)
		tokens += n
		autodiff.Release(l)
	}
	return math.Exp(sum / float64(tokens)), nil
}
