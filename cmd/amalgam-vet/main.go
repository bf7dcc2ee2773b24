// Command amalgam-vet runs the repo's invariant-contract analyzers
// (poolcheck, detcheck, lockcheck, errtaxcheck) as a go vet tool:
//
//	go build -o /tmp/amalgam-vet ./cmd/amalgam-vet
//	go vet -vettool=/tmp/amalgam-vet ./...
//
// cmd/go drives it through the unitchecker protocol: -V=full and -flags
// to identify it, then one JSON .cfg per package (test variants
// included) with pre-built export data for the package's dependencies.
//
// Exit status: 0 for no findings, 2 when diagnostics were reported,
// 1 on operational errors or any other invocation — mirroring go vet's
// convention.
package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"

	"amalgam/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			// Content-derived version string so `go vet` re-runs the tool
			// when its binary changes.
			exe, err := os.Executable()
			sum := "unknown"
			if err == nil {
				if data, rerr := os.ReadFile(exe); rerr == nil {
					sum = fmt.Sprintf("%x", sha256.Sum256(data))[:16]
				}
			}
			fmt.Printf("amalgam-vet version devel buildID=%s\n", sum)
			return 0
		case args[0] == "-flags":
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runVet(args[0])
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=/path/to/amalgam-vet packages...")
	return 1
}

func runVet(cfgPath string) int {
	diags, err := analysis.RunVetTool(cfgPath, analysis.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "amalgam-vet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.String())
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
