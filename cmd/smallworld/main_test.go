package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoArgsListsExperiments(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-e", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunOneExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	if err := run([]string{"-e", "E5", "-scale", "0.02", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	for _, f := range []string{"csv", "json"} {
		if err := run([]string{"-e", "E5", "-scale", "0.02", "-format", f}); err != nil {
			t.Errorf("format %s: %v", f, err)
		}
	}
	if err := run([]string{"-e", "E5", "-scale", "0.02", "-format", "bogus"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunRejectsFormatBeforeRunning: an unknown -format fails before any
// experiment runs, so a bad flag on a long sweep costs nothing. The context
// is already cancelled: were the format checked only after a table, the
// error would be the experiment's cancellation instead.
func TestRunRejectsFormatBeforeRunning(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runCtx(ctx, []string{"-e", "E4", "-scale", "0.02", "-format", "xml"})
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("err = %v, want unknown format", err)
	}
}

func TestRunFaultModelsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep")
	}
	if err := run([]string{"-e", "E16", "-scale", "0.02", "-fault-models", "edge-drop, crash-uniform"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-e", "E16", "-scale", "0.02", "-fault-models", "bogus"}); err == nil {
		t.Fatal("unknown fault model accepted")
	}
}

func TestRunCaseInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	if err := run([]string{"-e", "e5", "-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) (string, error) {
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
	runErr := fn()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// TestSweepGolden is the bit-identity check every engine change used to run
// by hand against its parent: the whole sweep at scale 0.02, seed 1, as JSON
// (which carries no timing), hashed and compared with the committed digest
// at one worker and at eight. A change that means to alter an experiment
// table regenerates testdata/all_scale002_seed1.sha256 with
//
//	go run ./cmd/smallworld -e all -scale 0.02 -seed 1 -format json | sha256sum
//
// and says so.
func TestSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	raw, err := os.ReadFile("testdata/all_scale002_seed1.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		out, err := captureStdout(t, func() error {
			return run([]string{"-e", "all", "-scale", "0.02", "-seed", "1", "-format", "json"})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
			t.Errorf("GOMAXPROCS %d: sweep output hashes to %s, want %s", procs, got, want)
		}
	}
}
