package repro

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/expt"
)

// TestDocsNameWhatExists keeps the documents a reader follows — README.md,
// DESIGN.md, EXPERIMENTS.md and the verify skill's SKILL.md — from going
// stale in the two ways they have. Every path under internal/, cmd/ or examples/ they
// mention — backticked, in a layout listing, anywhere — and every backticked
// .go file must exist (a file may be cited relative to internal/, as in
// `route/walk.go`). Every backticked `layer.rung` must be a metric
// BENCHMARK.json declares. Every TestX, BenchmarkX or FuzzX inside backticks
// must be declared in some _test.go (or be the prefix of one, as a -run
// pattern is), and every experiment id E<n> must be registered.
func TestDocsNameWhatExists(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	rungs, layers := map[string]bool{}, map[string]bool{}
	for _, m := range bench.PerLayer {
		rungs[m.Name] = true
		layers[strings.SplitN(m.Name, ".", 2)[0]] = true
	}

	exists := func(path string) bool {
		for _, p := range []string{path, "internal/" + path} {
			if _, err := os.Stat(p); err == nil {
				return true
			}
		}
		return false
	}
	// A tree path, not the tail of an import path or of a longer word.
	treePath := regexp.MustCompile(`(^|[^\w./-])((?:internal|cmd|examples)/[\w./-]*)`)
	backticked := regexp.MustCompile("`([^`\n]+)`")
	rung := regexp.MustCompile(`^([a-z]+)\.[a-z0-9_]+$`)
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	experimentID := regexp.MustCompile(`\bE[0-9]+\b`)
	declared := declaredTests(t)
	isDeclared := func(name string) bool {
		for _, d := range declared {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range treePath.FindAllStringSubmatch(string(text), -1) {
			if path := strings.TrimRight(m[2], "./"); !exists(path) {
				t.Errorf("%s names %s, which does not exist", doc, path)
			}
		}
		for _, m := range backticked.FindAllStringSubmatch(string(text), -1) {
			// `serve/server.go:561` cites the file; `_test.go` and
			// `BENCH_pr*.json` are patterns, not names.
			word, _, _ := strings.Cut(strings.Fields(m[1])[0], ":")
			if strings.HasSuffix(word, ".go") && !strings.ContainsAny(word, "*<{") && !strings.HasPrefix(word, "_") {
				if !exists(word) {
					t.Errorf("%s cites `%s`, which does not exist", doc, m[1])
				}
			} else if r := rung.FindStringSubmatch(word); r != nil && layers[r[1]] && !rungs[word] {
				t.Errorf("%s cites `%s`, which BENCHMARK.json does not declare", doc, m[1])
			}
			for _, name := range testName.FindAllString(m[1], -1) {
				if !isDeclared(name) {
					t.Errorf("%s cites %s, which no _test.go declares", doc, name)
				}
			}
		}
		for _, id := range experimentID.FindAllString(string(text), -1) {
			if _, ok := expt.ByID(id); !ok {
				t.Errorf("%s names experiment %s, which internal/expt does not register", doc, id)
			}
		}
	}
}

// declaredTests lists every Test, Benchmark and Fuzz function declared in a
// _test.go file of the repository, the ledger module's included.
func declaredTests(t *testing.T) []string {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's build cache
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
