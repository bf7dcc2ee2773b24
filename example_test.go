package amalgam_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"amalgam"
	"amalgam/internal/cloudsim"
	"amalgam/internal/faultnet"
)

// ExampleObfuscateText walks the text-modality Fig. 1 loop: obfuscate an
// AG News-style corpus and classifier, train the augmented pair locally,
// and extract the original classifier with its trained weights.
func ExampleObfuscateText() {
	const vocab, classes = 500, 4
	train := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "agnews-mini", N: 32, SeqLen: 24, Vocab: vocab, Classes: classes, Seed: 1})
	model := amalgam.BuildTextClassifier(3, vocab, 16, classes)

	job, err := amalgam.ObfuscateText(model, train, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tokens per sample: %d -> %d\n", job.Key.OrigLen, job.Key.AugLen)

	stats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5, Momentum: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epochs trained: %d\n", len(stats))

	if _, err := job.ExtractText(3); err != nil {
		log.Fatal(err)
	}
	fmt.Println("extraction verified bit-for-bit")
	// Output:
	// tokens per sample: 24 -> 36
	// epochs trained: 2
	// extraction verified bit-for-bit
}

// ExampleObfuscateTokens walks the language-model Fig. 1 loop: obfuscate
// a WikiText-2-style token stream and transformer LM in BPTT windows,
// train the augmented pair locally (per-epoch perplexity in the stats),
// and extract the original LM with its trained weights.
func ExampleObfuscateTokens() {
	const vocab, bptt = 300, 12
	train := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "wt-mini", Tokens: 480, Vocab: vocab, Seed: 1})
	model := amalgam.BuildLMModel(3, amalgam.TransformerLMConfig{
		Vocab: vocab, D: 16, Heads: 2, FF: 16, Layers: 1, MaxT: 32, Dropout: 0.1})

	// SubNets: 0 resolves to a seed-determined decoy count; no pinning
	// needed, even for remote training.
	job, err := amalgam.ObfuscateTokens(model, train, bptt, amalgam.Options{Amount: 0.5, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tokens per window: %d -> %d\n", job.Key.OrigLen, job.Key.AugLen)

	stats, err := amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epochs trained: %d, perplexity reported: %v\n", len(stats), stats[1].Perplexity > 0)

	if _, err := job.ExtractLM(3); err != nil {
		log.Fatal(err)
	}
	fmt.Println("extraction verified bit-for-bit")
	// Output:
	// tokens per window: 12 -> 18
	// epochs trained: 2, perplexity reported: true
	// extraction verified bit-for-bit
}

// ExampleWithRetry trains through a fault: the service drops the first
// connection right after the handshake, and the retry policy — capped
// exponential backoff with deterministic jitter — redials and completes
// the job. Had the cut landed mid-training instead, the retry would
// resume from the last epoch-boundary snapshot streamed before the
// fault, re-training no batch twice.
func ExampleWithRetry() {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// faultnet scripts faults per accepted connection; here the first
	// connection dies immediately and the second is transparent.
	fl := faultnet.Wrap(inner, func(i int) faultnet.ConnPlan {
		return faultnet.ConnPlan{RefuseConn: i == 0}
	})
	server := cloudsim.NewServer(fl)
	defer func() {
		fl.Close()
		server.Wait()
	}()

	const vocab, classes = 500, 4
	train := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "agnews-mini", N: 32, SeqLen: 24, Vocab: vocab, Classes: classes, Seed: 1})
	model := amalgam.BuildTextClassifier(3, vocab, 16, classes)
	job, err := amalgam.ObfuscateText(model, train, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	stats, err := amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: fl.Addr().String()}, job,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.5, Momentum: 0.9},
		amalgam.WithRetry(amalgam.RetryPolicy{
			MaxRetries: 3,
			BaseDelay:  time.Millisecond,
			MaxDelay:   10 * time.Millisecond,
			Seed:       7,
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epochs delivered: %d over %d connections\n", len(stats), fl.Accepted())

	if _, err := job.ExtractText(3); err != nil {
		log.Fatal(err)
	}
	fmt.Println("extraction verified bit-for-bit")
	// Output:
	// epochs delivered: 2 over 2 connections
	// extraction verified bit-for-bit
}

// ExampleTrainConfig_optimizer trains an obfuscated job under Adam with a
// halving step schedule instead of the default SGD. The specs are plain
// values: the same pair shipped to a RemoteTrainer rebuilds the identical
// optimiser service-side, and the Adam moment buffers and step counter
// ride checkpoints, so interrupted runs resume bit-identically.
func ExampleTrainConfig_optimizer() {
	const vocab, classes = 500, 4
	train := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "agnews-mini", N: 32, SeqLen: 24, Vocab: vocab, Classes: classes, Seed: 1})
	model := amalgam.BuildTextClassifier(3, vocab, 16, classes)
	job, err := amalgam.ObfuscateText(model, train, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	_, err = amalgam.Train(context.Background(), amalgam.LocalTrainer{}, job,
		amalgam.TrainConfig{Epochs: 3, BatchSize: 8,
			Optimizer: amalgam.Adam(0.01), LRSchedule: amalgam.StepDecay(1, 0.5)},
		amalgam.WithProgress(func(s amalgam.EpochStats) {
			fmt.Printf("epoch %d trained at lr %g\n", s.Epoch, s.LR)
		}))
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// epoch 1 trained at lr 0.01
	// epoch 2 trained at lr 0.005
	// epoch 3 trained at lr 0.0025
}

// ExampleRemoteTrainer ships an obfuscated job to a cloud training service
// and streams per-epoch progress back over the wire. The service sees only
// the augmented artifacts; the key never leaves the job.
func ExampleRemoteTrainer() {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := cloudsim.NewServer(l) // stands in for `amalgam-train -serve`
	defer func() {
		l.Close()
		server.Wait()
	}()

	ds := amalgam.SyntheticMNIST(16, 1)
	model, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		log.Fatal(err)
	}
	// ModelName lets the service rebuild the augmented graph from the spec.
	job, err := amalgam.Obfuscate(model, ds, amalgam.Options{
		Amount: 0.5, SubNets: 2, Seed: 5, ModelName: "lenet"})
	if err != nil {
		log.Fatal(err)
	}

	progressed := 0
	_, err = amalgam.Train(context.Background(), amalgam.RemoteTrainer{Addr: l.Addr().String()}, job,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9},
		amalgam.WithProgress(func(amalgam.EpochStats) { progressed++ }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("progress frames streamed: %d\n", progressed)

	if _, err := job.Extract("lenet", 7); err != nil {
		log.Fatal(err)
	}
	fmt.Println("extraction verified bit-for-bit")
	// Output:
	// progress frames streamed: 2
	// extraction verified bit-for-bit
}

// ExampleRemoteTrainer_Submit uses the service asynchronously: Submit
// returns a durable job ID immediately, Poll watches the scheduler's
// state machine from any connection, and Attach replays the buffered
// per-epoch stats and loads the trained weights back into the job. The
// job lives server-side between calls — disconnecting loses nothing.
func ExampleRemoteTrainer_Submit() {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := cloudsim.NewServer(l) // stands in for `amalgam-train -serve`
	defer func() {
		l.Close()
		server.Wait()
	}()
	tr := amalgam.RemoteTrainer{Addr: l.Addr().String(), Tenant: "alice"}

	ds := amalgam.SyntheticMNIST(16, 1)
	model, err := amalgam.BuildCV("lenet", 7, amalgam.CVConfig{InC: 1, InH: 28, InW: 28, Classes: 10})
	if err != nil {
		log.Fatal(err)
	}
	job, err := amalgam.Obfuscate(model, ds, amalgam.Options{
		Amount: 0.5, SubNets: 2, Seed: 5, ModelName: "lenet"})
	if err != nil {
		log.Fatal(err)
	}

	id, err := tr.Submit(context.Background(), job,
		amalgam.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9})
	if err != nil {
		log.Fatal(err)
	}

	info, err := tr.Poll(context.Background(), id)
	for err == nil && !info.Done() {
		time.Sleep(5 * time.Millisecond)
		info, err = tr.Poll(context.Background(), id)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job reached %q under tenant %q after %d epochs\n", info.State, info.Tenant, info.CompletedEpochs)

	ch, err := tr.Attach(context.Background(), job, id)
	if err != nil {
		log.Fatal(err)
	}
	replayed := 0
	for st := range ch {
		if st.Err != nil {
			log.Fatal(st.Err)
		}
		replayed++
	}
	fmt.Printf("epoch stats replayed: %d\n", replayed)

	if _, err := job.Extract("lenet", 7); err != nil {
		log.Fatal(err)
	}
	fmt.Println("extraction verified bit-for-bit")
	// Output:
	// job reached "done" under tenant "alice" after 2 epochs
	// epoch stats replayed: 2
	// extraction verified bit-for-bit
}

// ExamplePredictServer serves an obfuscated text classifier and its
// bit-identically extracted original side by side: concurrent single
// predictions that arrive while the workers are busy coalesce into
// shared batched forward passes, and the split-inference path ships only
// locally-pooled embeddings — raw tokens never reach the server.
func ExamplePredictServer() {
	const vocab, classes = 500, 4
	train := amalgam.GenerateClassifiedText(amalgam.ClassTextConfig{
		Name: "agnews-mini", N: 32, SeqLen: 24, Vocab: vocab, Classes: classes, Seed: 1})
	model := amalgam.BuildTextClassifier(3, vocab, 16, classes)
	job, err := amalgam.ObfuscateText(model, train, amalgam.Options{Amount: 0.5, SubNets: 2, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	extracted, err := job.ExtractText(3)
	if err != nil {
		log.Fatal(err)
	}

	// A free worker takes up to 16 waiting calls at once; a lone call
	// runs immediately.
	srv := amalgam.NewPredictServer(amalgam.PredictServerConfig{MaxBatch: 16})
	defer srv.Close()
	// The augmented model serves augmented windows without ever being
	// extracted; the original serves plain samples.
	if err := srv.RegisterText("augmented", job.Augmented, 0); err != nil {
		log.Fatal(err)
	}
	if err := srv.RegisterText("original", extracted, 0); err != nil {
		log.Fatal(err)
	}

	full, err := srv.PredictText(amalgam.PredictTextRequest{Model: "original", Tokens: train.Samples[0]})
	if err != nil {
		log.Fatal(err)
	}
	obfuscated, err := srv.PredictText(amalgam.PredictTextRequest{
		Model: "augmented", Tokens: job.AugmentedDataset.Samples[0]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same prediction through the obfuscated model: %v\n", full.Class == obfuscated.Class)

	// Split inference: pool the embedding locally and ship only the dense
	// activations.
	pooled := extracted.Embed.LookupMean([][]int{train.Samples[0]})
	acts := append([]float32(nil), pooled.Val.Data...)
	split, err := srv.PredictText(amalgam.PredictTextRequest{Model: "original", Pooled: acts})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("split-inference class matches: %v\n", split.Class == full.Class)
	// Output:
	// same prediction through the obfuscated model: true
	// split-inference class matches: true
}
