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
// Deliberate exceptions are annotated in source:
//
//	//amalgam:allow <analyzer> <reason>
//
// A trailing directive suppresses that analyzer's findings on its own
// line; a standalone directive suppresses them on the next line. The
// reason is mandatory, and a stale directive (nothing to suppress) is
// itself reported, so suppressions cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker. The shape mirrors
// x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //amalgam:allow directives.
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
	// Src maps filename to source bytes, for suppression-directive and
	// golden-test line handling.
	Src map[string][]byte
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

// AllowName is the pseudo-analyzer that owns directive hygiene findings
// (malformed, unknown-analyzer, and stale //amalgam:allow directives).
const AllowName = "allow"

// Analyzers returns the full amalgam-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{PoolCheck, DetCheck, LockCheck, ErrTaxCheck}
}

// Run applies the analyzers to each package, applies //amalgam:allow
// suppression directives, and returns the surviving diagnostics sorted by
// position. Directive hygiene problems are reported under the "allow"
// pseudo-analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

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
	return applyDirectives(pkg, analyzers, diags), nil
}
