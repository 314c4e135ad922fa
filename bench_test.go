// Package repro's root benchmarks regenerate every table and figure of the
// reproduction (one benchmark per experiment of DESIGN.md Section 4) plus
// end-to-end generator benchmarks; routing and serving speed is measured by
// the ledger (ledger/README.md). By default the experiments run at
// a reduced scale so `go test -bench=.` finishes in minutes; set
// REPRO_BENCH_SCALE=1 to reproduce the full tables recorded in
// EXPERIMENTS.md (cmd/smallworld prints the same tables interactively).
//
// Benchmarks report experiment metrics (success rates, fitted slopes,
// stretch) through testing.B.ReportMetric, so the shapes the paper predicts
// are visible straight from the benchmark output.
package repro

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/hrg"
)

func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

// runExperiment executes one registered experiment per benchmark iteration
// and reports its headline metrics.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := expt.Config{Seed: 1, Scale: benchScale()}
	var last expt.Table
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		t, err := e.Run(cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = t
	}
	for name, v := range last.Metrics {
		b.ReportMetric(v, name)
	}
}

// One benchmark per table/figure (DESIGN.md Section 4).

func BenchmarkE1SuccessProbability(b *testing.B)      { runExperiment(b, "E1") }
func BenchmarkE2FailureVsWmin(b *testing.B)           { runExperiment(b, "E2") }
func BenchmarkE3SuccessVsEndpointWeight(b *testing.B) { runExperiment(b, "E3") }
func BenchmarkE4PathLengthScaling(b *testing.B)       { runExperiment(b, "E4") }
func BenchmarkE5Stretch(b *testing.B)                 { runExperiment(b, "E5") }
func BenchmarkE6Patching(b *testing.B)                { runExperiment(b, "E6") }
func BenchmarkE7Relaxations(b *testing.B)             { runExperiment(b, "E7") }
func BenchmarkE8Hyperbolic(b *testing.B)              { runExperiment(b, "E8") }
func BenchmarkE9KleinbergBaseline(b *testing.B)       { runExperiment(b, "E9") }
func BenchmarkE10GeometricVsGreedy(b *testing.B)      { runExperiment(b, "E10") }
func BenchmarkE11ModelValidation(b *testing.B)        { runExperiment(b, "E11") }
func BenchmarkE12EdgeFailures(b *testing.B)           { runExperiment(b, "E12") }
func BenchmarkE13RefinedBound(b *testing.B)           { runExperiment(b, "E13") }
func BenchmarkE14GeometryNecessity(b *testing.B)      { runExperiment(b, "E14") }
func BenchmarkE15LayerStructure(b *testing.B)         { runExperiment(b, "E15") }
func BenchmarkE16ChaosSweep(b *testing.B)             { runExperiment(b, "E16") }
func BenchmarkE17ChurnSweep(b *testing.B)             { runExperiment(b, "E17") }
func BenchmarkF1Trajectory(b *testing.B)              { runExperiment(b, "F1") }

// End-to-end pipeline benchmarks: how fast the library generates and routes.

func BenchmarkPipelineGIRGGenerate(b *testing.B) {
	n := 20000 * benchScale() * 10
	if n < 2000 {
		n = 2000
	}
	p := girg.DefaultParams(n)
	p.FixedN = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := girg.Generate(p, uint64(i+1), girg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.M()), "edges")
	}
}

// BenchmarkPipelineGreedyEpisodesOverlayEmpty routes 50-episode batches with
// an empty live overlay attached. It must cost what the ledger's
// core.milgram50_ms rung costs on the bare graph: an empty overlay routes
// through the unchanged CSR fast path.
func BenchmarkPipelineGreedyEpisodesOverlayEmpty(b *testing.B) {
	p := girg.DefaultParams(20000)
	p.FixedN = true
	nw, err := core.NewGIRG(p, 5, girg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := nw.SetOverlay(graph.NewOverlay(nw.Graph)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.RunMilgram(nw, core.MilgramConfig{Pairs: 50, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Success.P, "success")
	}
}

func BenchmarkPipelineHRGGenerate(b *testing.B) {
	p := hrg.DefaultParams(5000)
	for i := 0; i < b.N; i++ {
		if _, err := hrg.Generate(p, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchmarkExperimentIDs keeps the benchmark list in sync with the
// registry: every registered experiment must have a benchmark above.
func TestBenchmarkExperimentIDs(t *testing.T) {
	covered := map[string]bool{
		"E1": true, "E2": true, "E3": true, "E4": true, "E5": true,
		"E6": true, "E7": true, "E8": true, "E9": true, "E10": true,
		"E11": true, "E12": true, "E13": true, "E14": true, "E15": true,
		"E16": true, "E17": true, "F1": true,
	}
	for _, e := range expt.All() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no benchmark in bench_test.go", e.ID)
		}
	}
}
