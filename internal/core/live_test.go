package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/xrand"
)

// liveNet attaches a deterministically churned overlay to a GIRG network
// and returns the network plus a second network over the overlay's
// materialization — the pair every equivalence check routes against.
func liveNet(t *testing.T, n float64, seed uint64, batches int) (*Network, *Network) {
	t.Helper()
	nw := girgNet(t, n, seed)
	o := graph.NewOverlay(nw.Graph)
	rng := xrand.New(seed + 100)
	dim := nw.Graph.Space().Dim()
	for b := 0; b < batches; b++ {
		e := o.Edit()
		pos := make([]float64, dim)
		for i := range pos {
			pos[i] = rng.Float64()
		}
		nv, err := e.AddVertex(pos, nw.Graph.WMin()*(1+rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			u := rng.IntN(nv)
			if !e.Tombstoned(u) && !e.HasEdge(nv, u) {
				if err := e.AddEdge(nv, u); err != nil {
					t.Fatal(err)
				}
			}
		}
		for tries := 0; tries < 20; tries++ {
			v := rng.IntN(nw.Graph.N())
			if !e.Tombstoned(v) {
				if err := e.RemoveVertex(v); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		o = e.Finish()
	}
	if err := nw.SetOverlay(o); err != nil {
		t.Fatal(err)
	}
	mg, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	frozen := &Network{Graph: mg, Label: nw.Label + "+materialized"}
	return nw, frozen
}

// TestRunMilgramLiveMatchesMaterialized is the engine-level acceptance: a
// batch over the live overlay reports bit-identically to the same batch
// over the compacted snapshot, for every built-in protocol, stretch
// included.
func TestRunMilgramLiveMatchesMaterialized(t *testing.T) {
	liveNW, frozen := liveNet(t, 800, 31, 12)
	for _, proto := range reportOrder {
		cfg := MilgramConfig{Pairs: 60, Seed: 7, Protocol: proto,
			WholeGraph: true, ComputeStretch: true}
		a, err := RunMilgram(liveNW, cfg)
		if err != nil {
			t.Fatalf("%s live: %v", proto, err)
		}
		b, err := RunMilgram(frozen, cfg)
		if err != nil {
			t.Fatalf("%s frozen: %v", proto, err)
		}
		if a.Attempts != b.Attempts || a.Success.P != b.Success.P ||
			a.MeanHops != b.MeanHops || a.Truncated != b.Truncated {
			t.Fatalf("%s: live %+v != frozen %+v", proto, a, b)
		}
		if len(a.Stretches) != len(b.Stretches) {
			t.Fatalf("%s: stretch count %d != %d", proto, len(a.Stretches), len(b.Stretches))
		}
		for i := range a.Stretches {
			if a.Stretches[i] != b.Stretches[i] {
				t.Fatalf("%s: stretch[%d] %v != %v", proto, i, a.Stretches[i], b.Stretches[i])
			}
		}
	}
}

func TestRouteEpisodeLiveMatchesMaterialized(t *testing.T) {
	liveNW, frozen := liveNet(t, 600, 33, 8)
	n := liveNW.LiveN()
	if n != frozen.Graph.N() {
		t.Fatalf("LiveN %d != materialized N %d", n, frozen.Graph.N())
	}
	rng := xrand.New(3)
	var sc route.Scratch
	var a, b route.Result
	for i := 0; i < 60; i++ {
		s, tgt := rng.IntN(n), rng.IntN(n)
		if s == tgt {
			continue
		}
		if err := liveNW.RouteEpisodeInto(EpisodeConfig{S: s, T: tgt}, &sc, &a); err != nil {
			t.Fatal(err)
		}
		if err := frozen.RouteEpisodeInto(EpisodeConfig{S: s, T: tgt}, &sc, &b); err != nil {
			t.Fatal(err)
		}
		if a.Success != b.Success || a.Moves != b.Moves || a.Failure != b.Failure {
			t.Fatalf("pair (%d,%d): live %+v != frozen %+v", s, tgt, a, b)
		}
	}
	// Added vertices are addressable: the highest live id is in range.
	if err := liveNW.RouteEpisodeInto(EpisodeConfig{S: n - 1, T: 0}, &sc, &a); err != nil {
		t.Fatalf("added vertex as source: %v", err)
	}
	// Beyond the live space is not.
	if err := liveNW.RouteEpisodeInto(EpisodeConfig{S: n, T: 0}, &sc, &a); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestLiveOverlayRejectsCustomObjectives(t *testing.T) {
	liveNW, _ := liveNet(t, 400, 35, 4)
	_, err := RunMilgram(liveNW, MilgramConfig{Pairs: 5, Seed: 1,
		Objective: func(tgt int) route.Objective { return route.NewGeometric(liveNW.Graph, tgt) }})
	if err == nil || !strings.Contains(err.Error(), "custom objective") {
		t.Fatalf("custom objective over live overlay: %v", err)
	}

	custom := girgNet(t, 400, 36)
	custom.NewObjective = func(tgt int) route.Objective { return route.NewGeometric(custom.Graph, tgt) }
	o := graph.NewOverlay(custom.Graph)
	e := o.Edit()
	if err := e.RemoveVertex(0); err != nil {
		t.Fatal(err)
	}
	if err := custom.SetOverlay(e.Finish()); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMilgram(custom, MilgramConfig{Pairs: 5, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "standard-objective") {
		t.Fatalf("custom-objective network with live overlay: %v", err)
	}
	if _, err := custom.Route("", 1, 2); err == nil {
		t.Fatal("Route over live overlay on a custom-objective network succeeded")
	}
}

func TestSetOverlayValidatesBase(t *testing.T) {
	a := girgNet(t, 300, 37)
	b := girgNet(t, 300, 38)
	o := graph.NewOverlay(b.Graph)
	if err := a.SetOverlay(o); err == nil {
		t.Fatal("overlay over a foreign base accepted")
	}
	if err := a.SetOverlay(nil); err != nil {
		t.Fatal(err)
	}
	// An empty overlay routes the unchanged base fast path.
	if err := a.SetOverlay(graph.NewOverlay(a.Graph)); err != nil {
		t.Fatal(err)
	}
	r1, err := RunMilgram(a, MilgramConfig{Pairs: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.SetOverlay(nil)
	r2, err := RunMilgram(a, MilgramConfig{Pairs: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Success.P != r2.Success.P || r1.MeanHops != r2.MeanHops {
		t.Fatal("empty overlay changed routing results")
	}
}
