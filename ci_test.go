package amalgam_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunListsNameExistingTests keeps the workflow's `go test … -run`
// lists honest. A renamed or deleted test silently drops out of such a step:
// the pattern still compiles, it just selects less. So every `|`-separated
// alternative of every top-level -run pattern in .github/workflows/ci.yml
// must match at least one `func Test…` in the _test.go files of the
// packages that line names. The match-nothing `-run xxx` (for fuzz and
// bench steps) is skipped.
func TestCIRunListsNameExistingTests(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(src), "\n") {
		pattern, pkgs, ok := goTestRun(line)
		if !ok || pattern == "xxx" {
			continue
		}
		checked++
		var names []string
		for _, pkg := range pkgs {
			names = append(names, testFuncs(t, pkg)...)
		}
		// -run splits on '/' into one pattern per subtest level; the first
		// is the one that selects top-level tests.
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test in %v", i+1, alt, pkgs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run line in ci.yml; the parser no longer reads the workflow")
	}
}

// valueFlags are the go test flags on the workflow's lines that take the
// next word as their value.
var valueFlags = map[string]bool{
	"-run": true, "-bench": true, "-benchtime": true, "-cpu": true, "-count": true,
	"-fuzz": true, "-fuzztime": true, "-timeout": true, "-tags": true, "-overlay": true,
}

// goTestRun reads one workflow line. For a `go test` command carrying -run
// it returns the pattern and the package arguments (`.` when none is named).
func goTestRun(line string) (pattern string, pkgs []string, ok bool) {
	words := shellWords(line)
	start := -1
	for i := 0; i+1 < len(words); i++ {
		if words[i] == "go" && words[i+1] == "test" {
			start = i + 2
			break
		}
	}
	if start < 0 {
		return "", nil, false
	}
	for i := start; i < len(words); i++ {
		w := words[i]
		switch {
		case w == "&&" || w == ";" || w == "|" || w == "||":
			i = len(words)
		case valueFlags[w] && i+1 < len(words):
			if w == "-run" {
				pattern, ok = words[i+1], true
			}
			i++
		case strings.HasPrefix(w, "-"):
		default:
			pkgs = append(pkgs, w)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return pattern, pkgs, ok
}

// shellWords splits a command line on blanks, keeping single- and
// double-quoted words whole and dropping the quotes.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	quote, inWord := byte(0), false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteByte(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// testFuncs lists the top-level Test functions in the _test.go files of a
// package directory.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(filepath.FromSlash(dir), "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %s: no test files (%v)", dir, err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}
