package analysis_test

import (
	"fmt"

	"amalgam/internal/analysis"
)

// ExampleAnalyzers shows how a downstream checker embeds the amalgam-vet
// suite. A custom go vet tool hands the .cfg file cmd/go passes it to
// RunVetTool, with the suite plus any analyzers of its own:
//
//	diags, err := analysis.RunVetTool(cfgPath, append(analysis.Analyzers(), mine))
//	if err != nil { ... }
//	for _, d := range diags {
//		fmt.Fprintln(os.Stderr, d) // pos: analyzer: message
//	}
//
// Each Analyzer also stands alone: picking a subset out of Analyzers()
// (or appending a project-specific Analyzer to it) composes naturally.
// Every finding is reported; there is no suppression directive.
func ExampleAnalyzers() {
	for _, a := range analysis.Analyzers() {
		fmt.Println(a.Name)
	}
	// Output:
	// poolcheck
	// detcheck
	// lockcheck
	// errtaxcheck
}
