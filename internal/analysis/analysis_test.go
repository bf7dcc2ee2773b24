package analysis

import (
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden tests follow the x/tools analysistest convention: each
// testdata/<name>/src tree is loaded as an overlay (its directories become
// import paths, shadowing real packages), the analyzer under test runs,
// and its diagnostics must line up exactly with the `want "regex"`
// expectations in the sources. A regex is matched against the rendered
// "analyzer: message" string of a diagnostic on the same line.

func runGolden(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	pkgs := loadTree(t, filepath.Join("testdata", name, "src"))
	if len(pkgs) == 0 {
		t.Fatalf("testdata/%s/src holds no packages", name)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, err := runPackage(pkg, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, d...)
	}

	wants := collectWants(t, pkgs)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for i, w := range wants[key] {
			if w != nil && w.MatchString(d.Analyzer+": "+d.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("%s: no diagnostic matched want %q", key, w)
			}
		}
	}
}

// loadTree typechecks every package of the golden tree under root: each
// directory holding .go files is a package whose import path is its path
// below root, and it shadows any real package of that path. Every other
// import comes from the standard library's own source importer.
func loadTree(t *testing.T, root string) []*Package {
	t.Helper()
	// The source importer reads build.Default; without cgo, std packages
	// such as net come back in their pure-Go build configuration.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	goFiles := func(path string) []string {
		files, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(path), "*.go"))
		return files
	}
	loaded := make(map[string]*Package)
	var load func(path string) (*Package, error)
	var imp importerFunc = func(path string) (*types.Package, error) {
		if len(goFiles(path)) == 0 {
			return std.Import(path)
		}
		p, err := load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	load = func(path string) (*Package, error) {
		if p, ok := loaded[path]; ok {
			return p, nil
		}
		p, err := typecheck(fset, path, goFiles(path), imp)
		if err != nil {
			return nil, err
		}
		loaded[path] = p
		return p, nil
	}

	var pkgs []*Package
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil || len(goFiles(filepath.ToSlash(rel))) == 0 {
			return err
		}
		p, err := load(filepath.ToSlash(rel))
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// collectWants extracts the `want "regex"...` expectations from every
// comment in the loaded packages, keyed by "filename:line" of the comment.
func collectWants(t *testing.T, pkgs []*Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, `want "`)
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					rest := c.Text[idx+len("want "):]
					for {
						rest = strings.TrimLeft(rest, " \t")
						if !strings.HasPrefix(rest, `"`) {
							break
						}
						end := quotedEnd(rest)
						if end < 0 {
							t.Fatalf("%s: unterminated want expectation", key)
						}
						lit, err := strconv.Unquote(rest[:end])
						if err != nil {
							t.Fatalf("%s: bad want literal %s: %v", key, rest[:end], err)
						}
						wants[key] = append(wants[key], regexp.MustCompile(lit))
						rest = rest[end:]
					}
				}
			}
		}
	}
	return wants
}

// quotedEnd returns the index just past the closing quote of the string
// literal starting s, honoring escapes; -1 if unterminated.
func quotedEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

func TestPoolCheckGolden(t *testing.T) { runGolden(t, "poolcheck", PoolCheck) }
func TestDetCheckGolden(t *testing.T)  { runGolden(t, "detcheck", DetCheck) }
func TestLockCheckGolden(t *testing.T) { runGolden(t, "lockcheck", LockCheck) }
func TestErrTaxGolden(t *testing.T)    { runGolden(t, "errtax", ErrTaxCheck) }

// TestErrTaxMissingClassifiers exercises the taxonomy-completeness rule's
// other failure mode: sentinels in a package with nothing to classify them
// by — no taxonomy table.
func TestErrTaxMissingClassifiers(t *testing.T) { runGolden(t, "errtaxmissing", ErrTaxCheck) }

// TestSuiteCleanOnRepo is the enforcement test: the full suite over the
// whole module, test files included, must report nothing: there is no
// suppression directive, so every finding is fixed where it occurs. A
// regression here is a contract violation, not a style nit. It runs the
// tool exactly as CI does, through go vet.
func TestSuiteCleanOnRepo(t *testing.T) {
	root := filepath.Join("..", "..")
	// go test caches a pass against the files this process opens, and go
	// vet reads the sources in a child. Listing every directory ties the
	// cached result to the size and mtime of each file in it.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+buildTool(t), "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=amalgam-vet ./...: %v\n%s", err, out)
	}
}

// TestGoVetReportsFindings guards the go vet path itself: a tool run that
// vetted nothing would leave TestSuiteCleanOnRepo green with nothing
// checked. The lockcheck golden tree doubles as a GOPATH workspace.
func TestGoVetReportsFindings(t *testing.T) {
	bin := buildTool(t)
	gopath, err := filepath.Abs(filepath.Join("testdata", "lockcheck"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "lockex")
	cmd.Dir = gopath
	cmd.Env = append(os.Environ(), "GO111MODULE=off", "GOPATH="+gopath, "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet exited 0 over the lockcheck tree:\n%s", out)
	}
	if !strings.Contains(string(out), "lockcheck: channel send while holding a mutex") {
		t.Fatalf("go vet output lacks the golden's channel-send finding (%v):\n%s", err, out)
	}
}

// TestVetToolSizesAreTheTargets: cmd/go exports the GOARCH it vets for to
// the tool, and the typecheck must use that architecture's sizes, not the
// tool binary's. A constant that overflows a 32-bit int is a type error
// under GOARCH=386 however the tool itself was built.
func TestVetToolSizesAreTheTargets(t *testing.T) {
	bin := buildTool(t)
	cfg := writeCfg(t, "package x\n\nvar X int = 1 << 40\n", `"Compiler": "gc",`)
	t.Setenv("GOARCH", "386")
	out, err := exec.Command(bin, cfg).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "overflows") {
		t.Fatalf("amalgam-vet under GOARCH=386 = %v, want the overflow type error:\n%s", err, out)
	}
}

// TestVetToolRefusesCfgWithoutCompiler: cmd/go always names the compiler
// whose export data it hands over; a .cfg without one is refused by name
// rather than guessed at.
func TestVetToolRefusesCfgWithoutCompiler(t *testing.T) {
	cfg := writeCfg(t, "package x\n", "")
	_, err := RunVetTool(cfg, Analyzers())
	if err == nil || !strings.Contains(err.Error(), "Compiler") {
		t.Fatalf("RunVetTool = %v, want an error naming the missing Compiler field", err)
	}
}

// buildTool builds cmd/amalgam-vet into a temporary directory and returns
// the binary's path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "amalgam-vet")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/amalgam-vet")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building amalgam-vet: %v\n%s", err, out)
	}
	return bin
}

// writeCfg writes src as the one file of package x into a temporary
// directory, and next to it a vet .cfg for x that carries the extra JSON
// fields, and returns the .cfg's path.
func writeCfg(t *testing.T, src, extra string) string {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "x.go")
	if err := os.WriteFile(file, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := filepath.Join(dir, "vet.cfg")
	json := fmt.Sprintf(`{%s "Dir": %q, "ImportPath": "x", "GoFiles": [%q]}`, extra, dir, file)
	if err := os.WriteFile(cfg, []byte(json), 0o666); err != nil {
		t.Fatal(err)
	}
	return cfg
}
