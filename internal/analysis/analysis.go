// Package analysis is amalgam-vet: a suite of static analyzers that
// mechanize the repo's hand-maintained invariant contracts —
//
//   - poolcheck: scratch-pool Get/Put pairing (a pooled tensor must reach
//     tensor.Put or a documented ownership transfer on every return path);
//   - detcheck: bit-exact determinism (no wall clock, no global RNG, no
//     map-order dependence) inside the determinism-contracted packages;
//   - lockcheck: no potentially-blocking work — channel operations,
//     net.Conn I/O, user callbacks — while a sync.Mutex/RWMutex field is
//     held (the PR 6 deadlock class, as a build error);
//   - errtaxcheck: every error crossing the cloudsim protocol boundary is
//     a typed sentinel or wraps one, and every sentinel is a row of the
//     one taxonomy table its wire code and retry class are read from.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the analyzers can be lifted onto the upstream
// framework unchanged when that dependency is available; this container
// builds them on the standard library alone. The suite runs as a
// `go vet -vettool=` plugin speaking cmd/go's unitchecker .cfg protocol
// (cmd/amalgam-vet), which covers test files as well.
//
// The invariants have no exceptions: there is no suppression directive,
// so a finding is fixed where it occurs.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker. The shape mirrors
// x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc states the invariant the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package, mirroring
// x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Dep resolves an import path in the package's dependency closure
	// (nil if absent) — how lockcheck reaches net.Conn.
	Dep func(path string) *types.Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is one fully typechecked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Dep resolves an import path anywhere in this package's dependency
	// closure to its typechecked form (nil if absent). Analyzers use it to
	// reach well-known types such as net.Conn.
	Dep func(path string) *types.Package
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full amalgam-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{PoolCheck, DetCheck, LockCheck, ErrTaxCheck}
}

// runPackage applies the analyzers to one package and returns their
// diagnostics in the order they were reported.
func runPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Dep:      pkg.Dep,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	return diags, nil
}
