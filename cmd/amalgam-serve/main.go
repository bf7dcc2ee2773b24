// Command amalgam-serve runs the batched obfuscated-inference server.
//
//	amalgam-serve -addr 127.0.0.1:9090   # serve demo models over the wire protocol
//	amalgam-serve -bench                 # in-process saturation benchmark -> BENCH JSON
//
// Serve mode registers one demo model per modality (deterministic seeds,
// synthetic scale) behind the wire protocol's infer frames;
// clients connect with amalgam.NewPredictClient. Bench mode drives the
// dynamic batcher with closed-loop clients across batch budgets and
// reports requests/sec with latency quantiles — the amortisation curve
// of coalescing single predictions into shared forward passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"amalgam"
	"amalgam/internal/cloudsim"
	"amalgam/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "amalgam-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address (serve mode)")
	bench := flag.Bool("bench", false, "run the in-process saturation benchmark instead of serving")
	out := flag.String("out", "BENCH_pr10.json", "benchmark output path")
	clients := flag.Int("clients", 64, "closed-loop client goroutines (bench mode)")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per budget (bench mode)")
	flag.Parse()

	if *bench {
		return runBench(*out, *clients, *duration)
	}
	return serveDemo(*addr)
}

// serveDemo registers a deterministic demo model per modality and serves
// them over the wire protocol until killed.
func serveDemo(addr string) error {
	const vocab, classes = 500, 4
	txt := amalgam.BuildTextClassifier(3, vocab, 64, classes)
	cv, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		return err
	}
	lm := amalgam.BuildLMModel(5, amalgam.TransformerLMConfig{
		Vocab: 1000, D: 64, Heads: 2, FF: 128, Layers: 2, MaxT: 64, Dropout: 0.1,
	})

	srv := amalgam.NewPredictServer(amalgam.PredictServerConfig{})
	defer srv.Close()
	if err := srv.RegisterText("text", txt, 0); err != nil {
		return err
	}
	if err := srv.RegisterCV("cv", cv, 1, 28, 28); err != nil {
		return err
	}
	if err := srv.RegisterLM("lm", lm, 0); err != nil {
		return err
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving models cv, text, lm on %s\n", l.Addr())
	server := cloudsim.NewServerConfig(l, cloudsim.ServerConfig{Infer: srv.Backend()})
	return server.Wait()
}

// budgetResult is one row of the saturation sweep.
type budgetResult struct {
	Budget         string  `json:"budget"`
	MaxBatch       int     `json:"max_batch"`
	MaxDelayMs     float64 `json:"max_delay_ms"`
	Requests       int     `json:"requests"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
}

type benchReport struct {
	Workload        string         `json:"workload"`
	Clients         int            `json:"clients"`
	DurationSec     float64        `json:"duration_sec"`
	Results         []budgetResult `json:"results"`
	SpeedupVsBatch1 float64        `json:"speedup_vs_batch1"`
}

// runBench sweeps batch budgets over a fixed closed-loop client load and
// records requests/sec at the observed latency quantiles. The workload is
// transformer next-token scoring: a forward pass costs dozens of graph
// ops whether it carries one context or thirty-two, so the batcher's
// amortisation shows up directly in the req/s curve.
func runBench(out string, clients int, duration time.Duration) error {
	const vocab, seqLen = 50, 4
	lm := amalgam.BuildLMModel(5, amalgam.TransformerLMConfig{
		Vocab: vocab, D: 8, Heads: 2, FF: 16, Layers: 2, MaxT: seqLen + 2, Dropout: 0.1,
	})
	corpus := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "bench", N: 256, SeqLen: seqLen, Vocab: vocab, Classes: 4, Seed: 1})

	budgets := []struct {
		name     string
		maxBatch int
		maxDelay time.Duration
	}{
		{"batch-1", 1, time.Millisecond},
		{"batch-8", 8, 2 * time.Millisecond},
		{"batch-16", 16, 2 * time.Millisecond},
		{"batch-32", 32, 2 * time.Millisecond},
	}

	report := benchReport{
		Workload:    fmt.Sprintf("transformer-lm next-token vocab=%d d=8 layers=2 ctx=%d", vocab, seqLen),
		Clients:     clients,
		DurationSec: duration.Seconds(),
	}
	for _, b := range budgets {
		res, err := measureBudget(lm, corpus, b.name, b.maxBatch, b.maxDelay, clients, duration)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %9.0f req/s  p50 %6.2fms  p99 %6.2fms\n", b.name, res.RequestsPerSec, res.P50Ms, res.P99Ms)
		report.Results = append(report.Results, res)
	}
	best := 0.0
	for _, r := range report.Results[1:] {
		if r.RequestsPerSec > best {
			best = r.RequestsPerSec
		}
	}
	report.SpeedupVsBatch1 = best / report.Results[0].RequestsPerSec
	fmt.Printf("best batched budget vs batch-1: %.2fx\n", report.SpeedupVsBatch1)

	js, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(js, '\n'), 0o644)
}

// measureBudget runs one closed-loop measurement: clients goroutines
// each issue predictions back-to-back against a fresh server at the
// given budget; per-request latencies aggregate into quantiles.
func measureBudget(lm *amalgam.TransformerLM, corpus *amalgam.TextDataset,
	name string, maxBatch int, maxDelay time.Duration, clients int, duration time.Duration) (budgetResult, error) {
	srv := amalgam.NewPredictServer(amalgam.PredictServerConfig{
		MaxBatch:   maxBatch,
		MaxDelay:   maxDelay,
		Workers:    2,
		QueueDepth: 4 * clients,
	})
	defer srv.Close()
	if err := srv.RegisterLM("bench", lm, 0); err != nil {
		return budgetResult{}, err
	}

	// Warmup: populate the tensor pool so the measurement sees the
	// zero-alloc steady state.
	for i := 0; i < 2*maxBatch; i++ {
		if _, err := srv.PredictLM(amalgam.PredictLMRequest{Model: "bench", Context: corpus.Samples[i%corpus.N()]}); err != nil {
			return budgetResult{}, err
		}
	}

	latencies := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(c) + 1)
			for time.Since(start) < duration {
				tokens := corpus.Samples[rng.IntN(corpus.N())]
				t0 := time.Now()
				if _, err := srv.PredictLM(amalgam.PredictLMRequest{Model: "bench", Context: tokens}); err != nil {
					errs[c] = err
					return
				}
				latencies[c] = append(latencies[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return budgetResult{}, err
		}
	}

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return budgetResult{}, fmt.Errorf("budget %s completed no requests", name)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) float64 {
		i := int(q * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}
	return budgetResult{
		Budget:         name,
		MaxBatch:       maxBatch,
		MaxDelayMs:     float64(maxDelay) / float64(time.Millisecond),
		Requests:       len(all),
		RequestsPerSec: float64(len(all)) / elapsed.Seconds(),
		P50Ms:          quantile(0.50),
		P99Ms:          quantile(0.99),
	}, nil
}
