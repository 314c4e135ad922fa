package repro

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists keeps README.md and DESIGN.md from going stale in the
// two ways they have. Every path under internal/, cmd/ or examples/ they
// mention — backticked, in a layout listing, anywhere — and every backticked
// .go file must exist (a file may be cited relative to internal/, as in
// `route/walk.go`). Every backticked `layer.rung` must be a metric
// BENCHMARK.json declares.
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
	for _, doc := range []string{"README.md", "DESIGN.md"} {
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
		}
	}
}
