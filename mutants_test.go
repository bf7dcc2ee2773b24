//go:build mutants

package amalgam_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mutant is one entry of testdata/mutants.txt.
type mutant struct {
	line                                      int
	file, find, replace, pkg, run, tags, from string
}

// TestMutantsAreKilled replays the committed mutation checks: each entry of
// testdata/mutants.txt swaps one snippet of one source file for one build
// through `go test -overlay` (no copy of the tree) and requires the tests
// it names to fail on that build. A snippet that no longer occurs exactly
// once, and a mutant that does not build, are failures too. It runs the
// child `go` as TestSuiteCleanOnRepo does, from the module root.
func TestMutantsAreKilled(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	mutants := readMutants(t, filepath.Join(root, "testdata", "mutants.txt"))
	dir := t.TempDir()
	for _, m := range mutants {
		t.Run(fmt.Sprintf("line%d", m.line), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.file)))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.find); n != 1 {
				t.Fatalf("%s: snippet occurs %d times, want exactly once (%s)", m.file, n, m.from)
			}
			mutated := filepath.Join(dir, fmt.Sprintf("line%d%s", m.line, filepath.Ext(m.file)))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.find, m.replace, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{
				"Replace": {filepath.Join(root, filepath.FromSlash(m.file)): mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := mutated + ".json"
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "test", "-count=1", "-timeout=5m", "-tags="+m.tags, "-overlay="+overlayPath, "-run="+m.run, m.pkg)
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			switch {
			case err == nil:
				t.Errorf("mutant survived %s -run %s (%s):\n%s", m.pkg, m.run, m.from, out)
			case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
				t.Errorf("mutant does not build (%s):\n%s", m.from, out)
			}
		})
	}
}

// readMutants parses the catalogue: blank-line-separated blocks of
// `key: value` lines, find and replace Go-quoted, # lines comments, tags
// optional.
func readMutants(t *testing.T, path string) []mutant {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []mutant
	var cur *mutant
	finish := func() {
		if cur == nil {
			return
		}
		if cur.file == "" || cur.find == "" || cur.pkg == "" || cur.run == "" || cur.from == "" {
			t.Fatalf("%s:%d: entry lacks one of file, find, pkg, run, from", path, cur.line)
		}
		out = append(out, *cur)
		cur = nil
	}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.TrimSpace(line) == "" {
			finish()
			continue
		}
		if cur == nil {
			cur = &mutant{line: n}
		}
		key, val, ok := strings.Cut(line, ":")
		val = strings.TrimSpace(val)
		if key == "find" || key == "replace" {
			if val, err = strconv.Unquote(val); err != nil {
				t.Fatalf("%s:%d: %s is not a Go-quoted string: %v", path, n, key, err)
			}
		}
		switch {
		case !ok:
			t.Fatalf("%s:%d: not a key: value line", path, n)
		case key == "file":
			cur.file = val
		case key == "find":
			cur.find = val
		case key == "replace":
			cur.replace = val
		case key == "pkg":
			cur.pkg = val
		case key == "run":
			cur.run = val
		case key == "tags":
			cur.tags = val
		case key == "from":
			cur.from = val
		default:
			t.Fatalf("%s:%d: unknown key %q", path, n, key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	finish()
	if len(out) == 0 {
		t.Fatalf("%s holds no mutants", path)
	}
	return out
}
