package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/girg"
	"repro/internal/route"
)

func spansOfWeights(ws ...float64) []Span {
	spans := make([]Span, len(ws))
	for i, w := range ws {
		spans[i] = Span{Step: i, W: w, Score: float64(i)}
	}
	return spans
}

// TestAnalyzeShapes covers the analyzer's boundary cases: empty, single
// vertex, monotone climbs (no second phase) and the Figure-1 interior peak.
func TestAnalyzeShapes(t *testing.T) {
	cases := []struct {
		name string
		ws   []float64
		want Phases
	}{
		{"empty", nil, Phases{Boundary: -1}},
		{"single", []float64{3}, Phases{Hops: 0, Boundary: 0, PeakW: 3}},
		{"monotone up", []float64{1, 2, 4, 8},
			Phases{Hops: 3, Boundary: 3, PeakW: 8, WeightHops: 3, ObjectiveHops: 0}},
		{"monotone down", []float64{8, 4, 2, 1},
			Phases{Hops: 3, Boundary: 0, PeakW: 8, WeightHops: 0, ObjectiveHops: 3}},
		{"two phase", []float64{1, 4, 16, 4, 1},
			Phases{Hops: 4, Boundary: 2, PeakW: 16, WeightHops: 2, ObjectiveHops: 2, TwoPhase: true}},
		{"peak tie picks first", []float64{1, 9, 9, 1},
			Phases{Hops: 3, Boundary: 1, PeakW: 9, WeightHops: 1, ObjectiveHops: 2, TwoPhase: true}},
	}
	for _, c := range cases {
		if got := Analyze(spansOfWeights(c.ws...)); got != c.want {
			t.Errorf("%s: Analyze = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestAnalyzeSumsToHops checks the phase lengths always partition the path.
func TestAnalyzeSumsToHops(t *testing.T) {
	for _, ws := range [][]float64{{1}, {1, 2}, {2, 1}, {1, 5, 2}, {3, 1, 4, 1, 5, 9, 2, 6}} {
		p := Analyze(spansOfWeights(ws...))
		if p.WeightHops+p.ObjectiveHops != p.Hops {
			t.Errorf("weights %v: %d + %d != %d hops", ws, p.WeightHops, p.ObjectiveHops, p.Hops)
		}
	}
}

// TestGIRGTraceTwoPhase is the Figure-1 acceptance check: a greedy episode on
// a sparse GIRG between planted low-weight, far-apart endpoints, captured
// through a HopCollector, must decompose into a non-trivial weight phase
// followed by a non-trivial objective phase (the paper's two-phase trajectory
// shape).
func TestGIRGTraceTwoPhase(t *testing.T) {
	p := girg.DefaultParams(30000)
	p.FixedN = true
	// Sparse kernel so the path is long enough to expose both phases (same
	// setup as experiment F1, at test scale).
	p.Lambda = 0.02
	planted := []girg.Plant{
		{Pos: []float64{0.1, 0.1}, W: p.WMin},
		{Pos: []float64{0.6, 0.6}, W: p.WMin},
	}
	for seed := uint64(1); seed <= 30; seed++ {
		g, err := girg.Generate(p, 900+seed, girg.Options{Planted: planted})
		if err != nil {
			t.Fatal(err)
		}
		obj := route.NewStandard(g, 1)
		res := route.Greedy(g, obj, 0)
		if !res.Success || res.Moves < 4 {
			continue
		}
		var hc HopCollector
		route.Observe(g, obj, res, 0, &hc)
		if len(hc.Hops) != len(res.Path) {
			t.Fatalf("seed %d: collected %d hops for a %d-vertex path", seed, len(hc.Hops), len(res.Path))
		}
		ph := Analyze(hc.Hops)
		if !ph.TwoPhase {
			continue // short paths can peak at an endpoint; try another draw
		}
		if ph.WeightHops < 1 || ph.ObjectiveHops < 1 {
			t.Fatalf("seed %d: TwoPhase with empty phase: %+v", seed, ph)
		}
		if ph.PeakW <= hc.Hops[0].W {
			t.Fatalf("seed %d: peak weight %.2f does not rise above the planted start %.2f",
				seed, ph.PeakW, hc.Hops[0].W)
		}
		t.Logf("seed %d: %d hops = %d weight-phase + %d objective-phase, peak w %.1f",
			seed, ph.Hops, ph.WeightHops, ph.ObjectiveHops, ph.PeakW)
		return
	}
	t.Fatal("no two-phase greedy trajectory found in 30 graph draws")
}

// TestHopCollectorCap checks a walk longer than MaxHops keeps its first
// MaxHops hops and counts the rest instead of growing without bound.
func TestHopCollectorCap(t *testing.T) {
	var hc HopCollector
	for s := 0; s < MaxHops+2; s++ {
		hc.Move(route.MoveEvent{Step: s, V: s})
	}
	if len(hc.Hops) != MaxHops || hc.Cut != 2 || hc.Hops[MaxHops-1].Step != MaxHops-1 {
		t.Fatalf("collected %d hops (last step %d), cut %d; want %d, %d, 2",
			len(hc.Hops), hc.Hops[len(hc.Hops)-1].Step, hc.Cut, MaxHops, MaxHops-1)
	}
}

// TestSpanJSONNonFinite round-trips the +Inf score the standard objective
// assigns the target vertex — bare JSON numbers cannot carry it, so the wire
// form spells it as a string.
func TestSpanJSONNonFinite(t *testing.T) {
	in := Span{Step: 2, V: 7, W: 1.5, Score: math.Inf(1)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"score":"+Inf"`)) {
		t.Fatalf("wire form = %s", b)
	}
	var out Span
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}
