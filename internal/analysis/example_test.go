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
// (or appending a project-specific Analyzer to it) composes naturally,
// and //amalgam:allow directives keep working because suppression is
// applied by Run and RunVetTool, not by the individual analyzers.
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
