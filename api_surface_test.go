package amalgam_test

import (
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden from the package source and testdata/trained.golden from a training run")

// TestPublicAPISurface pins package amalgam's exported surface — every
// exported constant, variable, function and type, with the types' method
// sets and the interfaces' methods — to testdata/api.golden, so growing
// (or shrinking) the public API is a reviewed diff of that file and not
// something a reviewer has to spot by hand. Regenerate with
// `go test -run TestPublicAPISurface -update .`.
func TestPublicAPISurface(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	pkg, err := doc.NewFromFiles(fset, files, "amalgam")
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				if ast.IsExported(name) {
					lines = append(lines, v.Decl.Tok.String()+" "+name)
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			if f.Recv == "" {
				lines = append(lines, "func "+f.Name)
			} else {
				lines = append(lines, "method ("+f.Recv+") "+f.Name)
			}
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		lines = append(lines, "type "+typ.Name)
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
		for _, spec := range typ.Decl.Specs {
			iface, ok := spec.(*ast.TypeSpec).Type.(*ast.InterfaceType)
			if !ok {
				continue
			}
			for _, m := range iface.Methods.List {
				for _, name := range m.Names {
					if name.IsExported() {
						lines = append(lines, "method ("+typ.Name+") "+name.Name)
					}
				}
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const golden = "testdata/api.golden"
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got != string(want) {
		have := map[string]bool{}
		for _, l := range strings.Split(string(want), "\n") {
			have[l] = true
		}
		for _, l := range lines {
			if !have[l] {
				t.Errorf("not in %s: %s", golden, l)
			}
			delete(have, l)
		}
		for l := range have {
			if l != "" {
				t.Errorf("gone from the package: %s", l)
			}
		}
		t.Errorf("package amalgam's exported surface moved; if intended, regenerate %s with -update", golden)
	}
}
