package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// errtaxcheck mechanizes the cloudsim error-taxonomy contract: every
// error that can cross the protocol boundary is either one of the typed
// sentinels or wraps one (directly or transitively via %w), so that
// classification — its code on the wire, transient or fatal in the retry
// loop — never silently defaults for an error someone forgot to file.
//
// Two rules, scoped to amalgam/internal/cloudsim:
//
//  1. Taxonomy completeness: every package-level `ErrX` sentinel must be
//     a row of the package's `taxonomy` table, from which the wire code,
//     its decoding and the retry class are all read. A sentinel missing
//     from it is exactly the "unclassified error silently becomes fatal"
//     bug class.
//
//  2. No unclassified construction: inside function bodies, fmt.Errorf
//     must wrap (%w) — preserving whatever classification the cause
//     carries — and errors.New is reserved for package-level sentinel
//     declarations. A bare message error born mid-protocol has no place
//     in the taxonomy and therefore no defined retry behavior.
var ErrTaxCheck = &Analyzer{
	Name: "errtaxcheck",
	Doc:  "errors crossing the cloudsim protocol boundary must be typed sentinels or wrap one; every sentinel must be a row of the taxonomy table",
	Run:  runErrTaxCheck,
}

// errTaxTable names the package-level table every sentinel must be a row of.
const errTaxTable = "taxonomy"

func runErrTaxCheck(pass *Pass) error {
	if pass.Pkg.Path() != cloudsimPkg {
		return nil
	}
	checkTaxonomyComplete(pass)
	checkNoUnclassifiedConstruction(pass)
	return nil
}

// checkTaxonomyComplete verifies every exported Err* sentinel is named in
// the taxonomy table's initialiser.
func checkTaxonomyComplete(pass *Pass) {
	scope := pass.Pkg.Scope()

	// The sentinel set: package-level exported `var ErrX ... error`.
	var sentinels []*types.Var
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok || !strings.HasPrefix(name, "Err") {
			continue
		}
		if named, ok := v.Type().(*types.Named); !ok || named.Obj().Name() != "error" {
			continue
		}
		sentinels = append(sentinels, v)
	}
	if len(sentinels) == 0 {
		return
	}

	// Which sentinels does the package-level table's initialiser name?
	var rows map[types.Object]bool
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return false
			case *ast.ValueSpec:
				if len(n.Names) == 1 && n.Names[0].Name == errTaxTable {
					rows = make(map[types.Object]bool)
					ast.Inspect(n, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							rows[pass.Info.Uses[id]] = true
						}
						return true
					})
				}
				return false
			}
			return true
		})
	}
	if rows == nil {
		pass.Reportf(pass.Files[0].Package, "error-taxonomy table %s is missing from the package", errTaxTable)
		return
	}
	for _, s := range sentinels {
		if !rows[s] {
			pass.Reportf(s.Pos(), "sentinel %s is not a row of the %s table: an error wrapping it would be misclassified on the wire and in the retry loop", s.Name(), errTaxTable)
		}
	}
}

// checkNoUnclassifiedConstruction flags error constructions inside
// function bodies that cannot carry a classification.
func checkNoUnclassifiedConstruction(pass *Pass) {
	for _, f := range pass.Files {
		// Fault-injection tests construct arbitrary errors on purpose —
		// that is the experiment, not a taxonomy violation.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				switch {
				case isPkgFunc(fn, "errors", "New"):
					pass.Reportf(call.Pos(), "errors.New inside a function creates an unclassified error; declare a package-level sentinel or wrap one with fmt.Errorf(...%%w...)")
				case isPkgFunc(fn, "fmt", "Errorf"):
					checkErrorfWraps(pass, call)
				}
				return true
			})
		}
	}
}

func checkErrorfWraps(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(call.Pos(), "fmt.Errorf with a non-constant format cannot be verified to wrap a classified error")
		return
	}
	// StringVal, not Value.String(): the latter abbreviates long constants
	// and would truncate away a trailing %w.
	format := constant.StringVal(tv.Value)
	if !strings.Contains(format, "%w") {
		pass.Reportf(call.Pos(), "fmt.Errorf without %%w creates an unclassified error on the protocol boundary; wrap a sentinel (or the causal error) so the taxonomy can classify it")
	}
}
