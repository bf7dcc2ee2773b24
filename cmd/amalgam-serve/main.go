// Command amalgam-serve runs the batched obfuscated-inference server.
//
//	amalgam-serve -addr 127.0.0.1:9090   # serve demo models over the wire protocol
//
// It registers one demo model per modality (deterministic seeds,
// synthetic scale) behind the wire protocol's infer frames; clients
// connect with amalgam.NewPredictClient. Saturation (req/s and latency
// quantiles, for lone and batched requests) is measured by the repo
// benchmark: go run ./bench -workload serve_lm.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"amalgam"
	"amalgam/internal/cloudsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "amalgam-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address")
	flag.Parse()
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
