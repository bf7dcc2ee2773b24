// Command amalgam-train is the cloud side of the workflow: it serves the
// training service (the role of the Jupyter notebook environment in the
// paper) or submits a demo obfuscated job to a running service through the
// public Job/Trainer API — with per-epoch progress streamed over the wire,
// periodic checkpoints, and Ctrl-C cancellation that leaves a resumable
// checkpoint.
//
//	amalgam-train -serve :7009                        # cloud side
//	amalgam-train -submit 127.0.0.1:7009              # user side (CV demo job)
//	amalgam-train -submit 127.0.0.1:7009 -text        # text-classification job
//	amalgam-train -submit 127.0.0.1:7009 -lm          # language-model job
//	amalgam-train -submit ... -checkpoint job.amc     # resumable (Ctrl-C safe)
//	amalgam-train -submit ... -retries 5              # survive server faults
//	amalgam-train -submit ... -optimizer adam         # train under Adam
//	amalgam-train -submit ... -optimizer adamw -weight-decay 0.01
//	amalgam-train -submit ... -lr-schedule step:2:0.5 # halve the LR every 2 epochs
//	amalgam-train -submit ... -lr-schedule cosine:8:0.001
//
// A served instance drains gracefully on Ctrl-C: in-flight jobs stop at
// their next epoch boundary and failover-aware clients receive an
// epoch-aligned checkpoint plus a retryable error, so a -retries submit
// pointed at a replacement server resumes without losing an epoch.
//
// Exit codes: 0 success, 1 fatal error, 3 retry budget exhausted (every
// attempt hit a transient fault — worth re-running, unlike a fatal error).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"amalgam"
	"amalgam/internal/cloudsim"
)

// exitRetriesExhausted distinguishes "every attempt died of a transient
// fault" (re-running may succeed) from fatal errors (exit 1, re-running
// cannot help).
const exitRetriesExhausted = 3

func main() {
	err := run()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "amalgam-train:", err)
	if errors.Is(err, amalgam.ErrRetriesExhausted) {
		os.Exit(exitRetriesExhausted)
	}
	os.Exit(1)
}

// submitConfig carries the demo-job knobs from flags to the submit paths.
type submitConfig struct {
	amount      float64
	epochs      int
	samples     int
	checkpoint  string
	retries     int
	backoff     time.Duration
	optimizer   string
	weightDecay float64
	schedule    string
}

// applyOptimFlags folds the -optimizer/-weight-decay/-lr-schedule flags
// into a demo TrainConfig. The spec's LR is left zero so it inherits the
// demo's per-modality learning rate.
func applyOptimFlags(tc amalgam.TrainConfig, cfg submitConfig) (amalgam.TrainConfig, error) {
	switch cfg.optimizer {
	case "", "sgd":
		// Legacy SGD from the flat LR/Momentum fields; -weight-decay
		// applies through the flat field too.
		if cfg.weightDecay > 0 {
			tc.WeightDecay = cfg.weightDecay
		}
	case "adam":
		tc.Optimizer = &amalgam.OptimizerSpec{Kind: "adam"}
	case "adamw":
		tc.Optimizer = &amalgam.OptimizerSpec{Kind: "adam", WeightDecay: cfg.weightDecay}
	default:
		return tc, fmt.Errorf("unknown -optimizer %q (want sgd, adam, or adamw)", cfg.optimizer)
	}
	sched, err := parseSchedule(cfg.schedule)
	if err != nil {
		return tc, err
	}
	tc.LRSchedule = sched
	return tc, nil
}

// parseSchedule parses the -lr-schedule grammar: "step:N:G" multiplies
// the LR by G every N epochs; "cosine:P[:MIN]" anneals to MIN (default 0)
// over P epochs. Empty means constant LR.
func parseSchedule(s string) (*amalgam.LRScheduleSpec, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	switch parts[0] {
	case "step":
		if len(parts) != 3 {
			return nil, fmt.Errorf("-lr-schedule step wants step:N:G, got %q", s)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("-lr-schedule %q: bad step size: %w", s, err)
		}
		g, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("-lr-schedule %q: bad gamma: %w", s, err)
		}
		return amalgam.StepDecay(n, g), nil
	case "cosine":
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("-lr-schedule cosine wants cosine:P[:MIN], got %q", s)
		}
		p, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("-lr-schedule %q: bad period: %w", s, err)
		}
		minLR := 0.0
		if len(parts) == 3 {
			minLR, err = strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("-lr-schedule %q: bad min LR: %w", s, err)
			}
		}
		return amalgam.CosineDecay(p, minLR), nil
	default:
		return nil, fmt.Errorf("unknown -lr-schedule kind %q (want step or cosine)", parts[0])
	}
}

func run() error {
	serve := flag.String("serve", "", "address to serve the training service on")
	submit := flag.String("submit", "", "address of a training service to submit a demo job to")
	text := flag.Bool("text", false, "submit a text-classification job instead of a CV job")
	lm := flag.Bool("lm", false, "submit a language-model job instead of a CV job")
	amount := flag.Float64("amount", 1.0, "augmentation amount for the demo job")
	epochs := flag.Int("epochs", 2, "epochs for the demo job")
	samples := flag.Int("samples", 64, "synthetic samples for the demo job")
	checkpoint := flag.String("checkpoint", "", "checkpoint path: writes per-epoch snapshots and resumes from an existing file")
	retries := flag.Int("retries", 0, "retry budget for transient faults (dropped connections, server shutdown); 0 disables retrying")
	retryBackoff := flag.Duration("retry-backoff", 100*time.Millisecond, "base delay of the capped exponential retry backoff")
	optimizer := flag.String("optimizer", "", "optimiser for the demo job: sgd (default), adam, or adamw")
	weightDecay := flag.Float64("weight-decay", 0, "weight decay: L2 via the SGD loss for sgd, decoupled (AdamW) for adamw")
	lrSchedule := flag.String("lr-schedule", "", "LR schedule: step:N:G (multiply by G every N epochs) or cosine:P[:MIN]")
	maxConns := flag.Int("max-conns", 0, "serve: max concurrently served connections (0 = default 256)")
	frameTimeout := flag.Duration("frame-timeout", 0, "serve: per-frame I/O deadline (0 = default 2m, negative disables)")
	executors := flag.Int("executors", 0, "serve: concurrent training executors, sharing one kernel pool (0 = default 4)")
	queueDepth := flag.Int("queue-depth", 0, "serve: max admitted-but-not-dispatched jobs before submissions are rejected (0 = default 256)")
	flag.Parse()

	switch {
	case *serve != "":
		return serveService(*serve, cloudsim.ServerConfig{
			MaxConns: *maxConns, FrameTimeout: *frameTimeout,
			Executors: *executors, QueueDepth: *queueDepth,
		})
	case *submit != "":
		// Ctrl-C cancels the remote job mid-flight; with -checkpoint the
		// partial state lands on disk and a re-run resumes it.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		cfg := submitConfig{
			amount: *amount, epochs: *epochs, samples: *samples,
			checkpoint: *checkpoint, retries: *retries, backoff: *retryBackoff,
			optimizer: *optimizer, weightDecay: *weightDecay, schedule: *lrSchedule,
		}
		switch {
		case *lm:
			return submitLMDemo(ctx, *submit, cfg)
		case *text:
			return submitTextDemo(ctx, *submit, cfg)
		default:
			return submitCVDemo(ctx, *submit, cfg)
		}
	default:
		flag.Usage()
		return fmt.Errorf("need -serve or -submit")
	}
}

// serveService runs the training service until Ctrl-C, then drains
// gracefully: no new connections, in-flight jobs stop at their next epoch
// boundary (failover-aware clients get an epoch-aligned checkpoint and a
// retryable error so they can resume elsewhere).
func serveService(addr string, cfg cloudsim.ServerConfig) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Println("amalgam-train: serving on", l.Addr())
	server := cloudsim.NewServerConfig(l, cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- server.Wait() }()
	select {
	case <-ctx.Done():
		fmt.Println("amalgam-train: shutting down, draining in-flight jobs at their epoch boundaries")
		sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := server.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Println("amalgam-train: drained cleanly")
		return nil
	case err := <-done:
		if err != nil {
			return fmt.Errorf("accept loop: %w", err)
		}
		return nil
	}
}

func trainOptions(cfg submitConfig) []amalgam.TrainOption {
	opts := []amalgam.TrainOption{
		amalgam.WithProgress(func(s amalgam.EpochStats) {
			line := fmt.Sprintf("epoch %d: loss=%.4f acc=%.3f", s.Epoch, s.Loss, s.Accuracy)
			if s.LR > 0 {
				line += fmt.Sprintf(" lr=%.5g", s.LR)
			}
			if s.Perplexity > 0 {
				line += fmt.Sprintf(" ppl=%.1f", s.Perplexity)
			}
			if s.HasEval {
				line += fmt.Sprintf(" eval=%.3f", s.EvalAccuracy)
			}
			fmt.Println(line)
		}),
	}
	if cfg.checkpoint != "" {
		opts = append(opts,
			amalgam.WithCheckpoint(cfg.checkpoint, 1),
			amalgam.WithResume(cfg.checkpoint))
	}
	if cfg.retries > 0 {
		opts = append(opts, amalgam.WithRetry(amalgam.RetryPolicy{
			MaxRetries: cfg.retries,
			BaseDelay:  cfg.backoff,
			Seed:       42,
		}))
	}
	return opts
}

func submitCVDemo(ctx context.Context, addr string, cfg submitConfig) error {
	train := amalgam.SyntheticMNIST(cfg.samples, 1)
	testN := cfg.samples / 4
	if testN < 1 {
		testN = 1
	}
	test := amalgam.SyntheticMNIST(testN, 2)
	model, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		return err
	}
	job, err := amalgam.Obfuscate(model, train, amalgam.Options{
		Amount: cfg.amount, SubNets: 3, Seed: 42, ModelName: "lenet",
	})
	if err != nil {
		return err
	}
	fmt.Printf("submitting obfuscated CV job: %d augmented samples at %dx%d, lenet +%.0f%%\n",
		job.AugmentedDataset.N(), job.Key.AugH, job.Key.AugW, cfg.amount*100)
	opts := append(trainOptions(cfg), amalgam.WithEvalSet(test))
	tc, err := applyOptimFlags(amalgam.TrainConfig{Epochs: cfg.epochs, BatchSize: 16, LR: 0.05, Momentum: 0.9}, cfg)
	if err != nil {
		return err
	}
	if _, err := amalgam.Train(ctx, amalgam.RemoteTrainer{Addr: addr}, job, tc, opts...); err != nil {
		return err
	}
	if _, err := job.Extract("lenet", 7); err != nil {
		return fmt.Errorf("extraction: %w", err)
	}
	fmt.Println("extraction ok: original model recovered from cloud-trained augmented weights")
	return nil
}

func submitTextDemo(ctx context.Context, addr string, cfg submitConfig) error {
	const vocab, embed, classes = 5000, 32, 4
	train := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "agnews-demo", N: cfg.samples, SeqLen: 64, Vocab: vocab, Classes: classes, Seed: 1,
	})
	model := amalgam.BuildTextClassifier(7, vocab, embed, classes)
	job, err := amalgam.ObfuscateText(model, train, amalgam.Options{Amount: cfg.amount, SubNets: 2, Seed: 42})
	if err != nil {
		return err
	}
	fmt.Printf("submitting obfuscated text job: %d samples, %d → %d tokens each, +%.0f%%\n",
		job.AugmentedDataset.N(), job.Key.OrigLen, job.Key.AugLen, cfg.amount*100)
	tc, err := applyOptimFlags(amalgam.TrainConfig{Epochs: cfg.epochs, BatchSize: 16, LR: 0.5, Momentum: 0.9}, cfg)
	if err != nil {
		return err
	}
	if _, err := amalgam.Train(ctx, amalgam.RemoteTrainer{Addr: addr}, job, tc,
		trainOptions(cfg)...); err != nil {
		return err
	}
	if _, err := job.ExtractText(7); err != nil {
		return fmt.Errorf("extraction: %w", err)
	}
	fmt.Println("extraction ok: original classifier recovered from cloud-trained augmented weights")
	return nil
}

func submitLMDemo(ctx context.Context, addr string, cfg submitConfig) error {
	const vocab, bptt = 2000, 20
	train := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt2-demo", Tokens: 8000, Vocab: vocab, Seed: 1})
	val := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt2-val", Tokens: 1000, Vocab: vocab, Seed: 2})
	model := amalgam.BuildLMModel(7, amalgam.TransformerLMConfig{
		Vocab: vocab, D: 32, Heads: 2, FF: 32, Layers: 1, MaxT: 64, Dropout: 0.1,
	})
	// SubNets: 0 — the decoy count resolves from the seed and the remote
	// rebuild still matches bit for bit.
	job, err := amalgam.ObfuscateTokens(model, train, bptt, amalgam.Options{Amount: cfg.amount, Seed: 42})
	if err != nil {
		return err
	}
	fmt.Printf("submitting obfuscated LM job: %d windows, %d → %d tokens each, +%.0f%%\n",
		len(job.AugmentedStream.Tokens)/job.Key.AugLen, job.Key.OrigLen, job.Key.AugLen, cfg.amount*100)
	opts := append(trainOptions(cfg), amalgam.WithEvalSet(val))
	tc, err := applyOptimFlags(amalgam.TrainConfig{Epochs: cfg.epochs, BatchSize: 16, LR: 0.1, Momentum: 0.9}, cfg)
	if err != nil {
		return err
	}
	if _, err := amalgam.Train(ctx, amalgam.RemoteTrainer{Addr: addr}, job, tc, opts...); err != nil {
		return err
	}
	if _, err := job.ExtractLM(7); err != nil {
		return fmt.Errorf("extraction: %w", err)
	}
	pp, err := job.Perplexity(val, 16)
	if err != nil {
		return err
	}
	fmt.Printf("extraction ok: original LM recovered; held-out perplexity %.1f\n", pp)
	return nil
}
