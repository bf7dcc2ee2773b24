package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// Vet-tool (unitchecker) mode: `go vet -vettool=/path/to/amalgam-vet`
// invokes the tool once per package with a JSON .cfg file describing the
// package's sources and the export data of its already-compiled
// dependencies. This file implements that protocol on the standard
// library: parse the listed sources, typecheck against the export data
// via go/importer's gc reader, run the suite, and report in the exit-code
// convention cmd/go expects (2 = findings). No analysis facts cross
// package boundaries — all four analyzers are intra-package — so the
// facts file (VetxOutput) is written empty.

// vetConfig mirrors the fields of cmd/go's internal vet config that the
// suite needs.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// RunVetTool executes the suite under the unitchecker protocol for one
// .cfg file, returning the surviving diagnostics.
func RunVetTool(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	cfg := &vetConfig{}
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	if cfg.Compiler == "" {
		return nil, fmt.Errorf("%s has no Compiler field", cfgPath)
	}

	// Facts output first: cmd/go expects the file to exist even when this
	// package contributes nothing.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		// Dependency pass, analyzed only for facts — of which we have none.
		return nil, nil
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	if gc == nil {
		return nil, fmt.Errorf("no importer for compiler %q", cfg.Compiler)
	}
	imported := make(map[string]*types.Package)
	var imp importerFunc = func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if p, ok := imported[path]; ok {
			return p, nil
		}
		p, err := gc.(types.ImporterFrom).ImportFrom(path, cfg.Dir, 0)
		if err != nil {
			return nil, err
		}
		imported[path] = p
		return p, nil
	}

	pkg, err := typecheck(fset, cfg.ImportPath, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// The compiler reports the error; vet has nothing to add.
			return nil, nil
		}
		return nil, err
	}
	return runPackage(pkg, analyzers)
}

// typecheck parses the named files and typechecks them, with bodies and
// full type information, as the package at path, resolving its imports
// through imp. Sizes are those of the architecture being vetted: cmd/go
// exports GOARCH to the tool, where go/build reads it, and the tool's own
// architecture may differ.
func typecheck(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tcfg := &types.Config{
		Importer:    imp,
		Sizes:       types.SizesFor("gc", build.Default.GOARCH),
		FakeImportC: true,
	}
	tpkg, err := tcfg.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Dep: func(path string) *types.Package {
			p, err := imp.Import(path)
			if err != nil {
				return nil
			}
			return p
		},
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
