package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/girg"
	"repro/internal/graphio"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	p := girg.DefaultParams(400)
	p.FixedN = true
	g, err := girg.Generate(p, 11, girg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.girg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOnFile(t *testing.T) {
	path := writeTestGraph(t)
	if err := run([]string{"-in", path, "-pairs", "3", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFreshGIRG(t *testing.T) {
	if err := run([]string{"-n", "400", "-pairs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTrace(t *testing.T) {
	path := writeTestGraph(t)
	if err := run([]string{"-in", path, "-pairs", "1", "-trace"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllProtocols(t *testing.T) {
	path := writeTestGraph(t)
	for _, proto := range []string{"greedy", "phi-dfs", "history", "gravity-pressure"} {
		if err := run([]string{"-in", path, "-pairs", "2", "-proto", proto}); err != nil {
			t.Errorf("protocol %s: %v", proto, err)
		}
	}
}

func TestRunExplicitPair(t *testing.T) {
	path := writeTestGraph(t)
	if err := run([]string{"-in", path, "-s", "0", "-t", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t)
	cases := [][]string{
		{"-in", "/nonexistent/file"},
		{"-in", path, "-proto", "bogus"},
		{"-in", path, "-s", "0", "-t", "999999"},
		{"-in", path, "-fault-model", "edge-drop", "-fault-rate", "1.5"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunEmptyGraph: a snapshot with no vertex is a usage error (exit 1)
// naming the empty giant component, not a panic.
func TestRunEmptyGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.girg")
	if err := os.WriteFile(path, []byte("girg 0 0 2 1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := runCtx(context.Background(), []string{"-in", path})
	if code != 1 || err == nil || !strings.Contains(err.Error(), "giant component too small") {
		t.Fatalf("empty graph: exit code %d, err %v; want 1 and \"giant component too small\"", code, err)
	}
}

func TestRunWithFaultModels(t *testing.T) {
	path := writeTestGraph(t)
	for _, model := range []string{"edge-drop", "crash-uniform", "crash-core", "msg-loss", "objective-noise"} {
		if err := run([]string{"-in", path, "-pairs", "3", "-fault-model", model, "-fault-rate", "0.3"}); err != nil {
			t.Errorf("fault model %s: %v", model, err)
		}
	}
	// Faults compose with any registered protocol and with tracing.
	if err := run([]string{"-in", path, "-pairs", "2", "-proto", "phi-dfs", "-fault-model", "edge-drop", "-trace"}); err != nil {
		t.Fatal(err)
	}
}

func TestExitCodeSuccess(t *testing.T) {
	path := writeTestGraph(t)
	code, err := runCtx(context.Background(), []string{"-in", path, "-s", "0", "-t", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("successful episode: exit code %d, want 0", code)
	}
}

func TestExitCodeDeadEnd(t *testing.T) {
	// edge-drop at rate 1 empties every adjacency query, so greedy dead-ends
	// at the source — the exit code must say so.
	path := writeTestGraph(t)
	code, err := runCtx(context.Background(),
		[]string{"-in", path, "-s", "0", "-t", "5", "-fault-model", "edge-drop", "-fault-rate", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("dead-end episode: exit code %d, want 2", code)
	}
}

func TestExitCodeCrashedTarget(t *testing.T) {
	// crash-uniform at rate 1 fails every vertex: the endpoints are gone
	// before routing starts.
	path := writeTestGraph(t)
	code, err := runCtx(context.Background(),
		[]string{"-in", path, "-s", "0", "-t", "5", "-fault-model", "crash-uniform", "-fault-rate", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if code != 5 {
		t.Fatalf("crashed-target episode: exit code %d, want 5", code)
	}
}

func TestExitCodeCancelled(t *testing.T) {
	// A pre-cancelled context stops before the first episode with the
	// partial-progress path and the "cancelled" exit code.
	path := writeTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, err := runCtx(ctx, []string{"-in", path, "-pairs", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if code != 6 {
		t.Fatalf("cancelled run: exit code %d, want 6", code)
	}
}

func TestUsageListsExitCodes(t *testing.T) {
	table := exitCodeTable()
	for _, want := range []string{"0  every episode delivered", "2  dead-end", "3  deadline", "5  crashed-target", "6  cancelled"} {
		if !strings.Contains(table, want) {
			t.Errorf("exit-code table missing %q:\n%s", want, table)
		}
	}
}

func TestServerModeNeedsExplicitPair(t *testing.T) {
	if err := run([]string{"-server", "localhost:0"}); err == nil {
		t.Fatal("-server without -s/-t accepted")
	}
}

func TestRunUnknownFaultModelListsRegistered(t *testing.T) {
	path := writeTestGraph(t)
	err := run([]string{"-in", path, "-fault-model", "bogus"})
	if err == nil {
		t.Fatal("unknown fault model accepted")
	}
	for _, name := range []string{"edge-drop", "crash-uniform", "crash-core", "msg-loss", "objective-noise"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered model %q", err, name)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() (int, error)) (string, int, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		io.Copy(&b, r)
		done <- b.String()
	}()
	code, runErr := fn()
	w.Close()
	os.Stdout = old
	return <-done, code, runErr
}

// TestRunOutputGolden pins what the CLI prints, byte for byte, for a traced
// greedy batch, a traced patching protocol under edge drops, a traced crash
// model (whose crashed endpoints are classified without routing, exit 5) and
// a patching protocol under message loss, all on one sampled n = 3000 graph.
// Each case is written as "$ route <args>", its stdout and "exit <code>".
func TestRunOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/run_output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, extra := range [][]string{
		{"-trace"},
		{"-proto", "phi-dfs", "-fault-model", "edge-drop", "-fault-rate", "0.3", "-trace"},
		{"-fault-model", "crash-uniform", "-fault-rate", "0.4", "-trace"},
		{"-proto", "history", "-fault-model", "msg-loss", "-fault-rate", "0.3"},
	} {
		args := append([]string{"-n", "3000", "-pairs", "8"}, extra...)
		out, code, err := captureStdout(t, func() (int, error) {
			return runCtx(context.Background(), args)
		})
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		fmt.Fprintf(&b, "$ route %s\n%sexit %d\n", strings.Join(args, " "), out, code)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("output differs from testdata/run_output.golden:\n%s", got)
	}
}
