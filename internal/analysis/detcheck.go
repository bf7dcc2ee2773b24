package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// detcheck mechanizes the bit-exact determinism contract: within the
// determinism-contracted packages, training-path code may not read the
// wall clock, draw from the package-global math/rand state, or let map
// iteration order feed computation or wire output. Every result there
// must be a pure function of seeds and inputs — that is what makes
// local/remote bit-identity, worker-count invariance, and resume-equals-
// straight-run provable by test instead of hopeful.
//
// Flagged:
//   - calls to wall-clock time functions (time.Now, time.Since, …);
//   - any use of a package-level math/rand or math/rand/v2 function
//     (rand.IntN, rand.Shuffle, rand.Seed, …) — explicitly-seeded
//     generator construction (rand.New*, rand.NewPCG, …) stays legal;
//   - ranging over a map, whose order differs run to run.
//
// Scope: internal/tensor, internal/autodiff, internal/nn, internal/core,
// internal/serialize, internal/optim, internal/serve (whole packages,
// subpackages included), and the train path of internal/cloudsim
// (cloudsim.go, which owns TrainLoop).

var DetCheck = &Analyzer{
	Name: "detcheck",
	Doc:  "determinism-contracted packages must not read wall clocks, global RNG state, or map iteration order",
	Run:  runDetCheck,
}

// detPackages are the determinism-contracted package roots (subpackages
// inherit the contract).
var detPackages = []string{
	"amalgam/internal/tensor",
	"amalgam/internal/autodiff",
	"amalgam/internal/nn",
	"amalgam/internal/core",
	"amalgam/internal/serialize",
	"amalgam/internal/optim",
	// Batched predictions must be a pure function of the coalesced inputs
	// — that is what makes batched and sequential predictions
	// bit-identical — and the batcher coalesces by availability, not by a
	// timer.
	"amalgam/internal/serve",
}

// cloudsimPkg's determinism contract covers only its train path: the
// shared epoch loop in cloudsim.go. The surrounding transport legitimately
// uses deadlines and backoff timing.
const cloudsimPkg = "amalgam/internal/cloudsim"

// wallClockFuncs are the time package functions that leak the wall clock
// into computation.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func detContracted(pkgPath string) bool {
	for _, p := range detPackages {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func runDetCheck(pass *Pass) error {
	path := pass.Pkg.Path()
	trainPathOnly := path == cloudsimPkg || strings.HasPrefix(path, cloudsimPkg+"/")
	if !detContracted(path) && !trainPathOnly {
		return nil
	}
	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		// Tests verify the determinism contract from outside; their own
		// bookkeeping (ranging over maps of named subtests, timing guards)
		// does not feed shipped computation.
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		if trainPathOnly && base != "cloudsim.go" {
			continue
		}
		checkDetFile(pass, f)
	}
	return nil
}

func checkDetFile(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, n); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] &&
				fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(n.Pos(), "wall clock leaks into a determinism-contracted package: time.%s", fn.Name())
			}
		case *ast.SelectorExpr:
			reportGlobalRand(pass, n.Sel)
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(), "map iteration order is nondeterministic; sort the keys (or prove order-independence and annotate)")
				}
			}
		}
		return true
	})
}

// reportGlobalRand flags any reference to a package-level math/rand or
// math/rand/v2 function drawing from the shared global generator.
// Constructors (New, NewPCG, NewChaCha8, NewSource, …) take explicit
// seeds and are the sanctioned way to make randomness reproducible.
func reportGlobalRand(pass *Pass, sel *ast.Ident) {
	fn, ok := pass.Info.Uses[sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	pkg := fn.Pkg().Path()
	if pkg != "math/rand" && pkg != "math/rand/v2" {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return // methods on an explicitly-constructed *rand.Rand are fine
	}
	if strings.HasPrefix(fn.Name(), "New") {
		return
	}
	pass.Reportf(sel.Pos(), "package-global RNG state is unseedable per-job: %s.%s; construct an explicitly seeded generator instead", pkg, fn.Name())
}
