package expt

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestE16Deterministic is the table-level golden determinism check: the
// chaos sweep must render bit-identically whether its batches route on one
// core or all of them, and across two same-seed runs, because every fault
// decision is a pure function of (seed, episode, query).
func TestE16Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep three times")
	}
	e, ok := ByID("E16")
	if !ok {
		t.Fatal("E16 not registered")
	}
	cfg := Config{Seed: 4, Scale: 0.02}
	prev := runtime.GOMAXPROCS(1)
	seq, err := e.Run(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	parl, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Format() != parl.Format() {
		t.Fatalf("E16 table differs across worker counts:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
			seq.Format(), runtime.GOMAXPROCS(0), parl.Format())
	}
	if !reflect.DeepEqual(seq.Metrics, parl.Metrics) {
		t.Fatalf("E16 metrics differ across worker counts: %v vs %v", seq.Metrics, parl.Metrics)
	}
	again, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parl.Format() != again.Format() {
		t.Fatalf("E16 table differs across same-seed runs:\n%s\nvs\n%s", parl.Format(), again.Format())
	}
}

func TestE16UnknownFaultModelListed(t *testing.T) {
	e, ok := ByID("E16")
	if !ok {
		t.Fatal("E16 not registered")
	}
	_, err := e.Run(Config{Seed: 1, Scale: 0.02, FaultModels: []string{"bogus"}})
	if err == nil {
		t.Fatal("unknown fault model accepted")
	}
	for _, name := range []string{"edge-drop", "crash-core", "objective-noise"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered model %q", err, name)
		}
	}
}

func TestE16RestrictedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	e, _ := ByID("E16")
	tb, err := e.Run(Config{Seed: 2, Scale: 0.02, FaultModels: []string{"edge-drop"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[0] != "none" && row[0] != "edge-drop" {
			t.Fatalf("restricted sweep ran model %q: %v", row[0], row)
		}
	}
}
