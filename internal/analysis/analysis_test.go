package analysis

import (
	"fmt"
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
// "analyzer: message" string of a diagnostic on the same line; lines whose
// trailing comment position is already taken by an //amalgam:allow
// directive carry their expectation in a /* want "..." */ block comment
// instead.

// stdDeps are the standard-library roots the testdata trees import; the
// loader needs their go list metadata to typecheck the overlays.
var stdDeps = []string{"context", "errors", "fmt", "math/rand/v2", "net", "sync", "time"}

func runGolden(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	l, err := NewLoader(".", stdDeps...)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadOverlay("testdata/" + name + "/src")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("testdata/%s/src holds no packages", name)
	}
	diags, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
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

// TestSuppressGolden pins the //amalgam:allow contract itself: a directive
// silences exactly the named analyzer on exactly the annotated line, and
// malformed, unknown-analyzer, and stale directives are themselves
// reported.
func TestSuppressGolden(t *testing.T) { runGolden(t, "suppress", LockCheck) }

// TestSuiteCleanOnRepo is the enforcement test: the full suite over the
// whole module must report nothing — every real finding is either fixed or
// carries a reasoned //amalgam:allow. A regression here is a contract
// violation, not a style nit.
func TestSuiteCleanOnRepo(t *testing.T) {
	l, err := NewLoader("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadTargets()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}
}
