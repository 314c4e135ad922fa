package core

import (
	"reflect"
	"testing"

	"repro/internal/girg"
	"repro/internal/route"
)

// TestObserverFigure1Trajectory attaches an Observer to a greedy episode on a
// 5k-vertex GIRG and checks the event stream reproduces the Figure 1
// trajectory: the objective rises strictly along the whole path (the greedy
// invariant), and the weight profile is an arc — it climbs from a low-weight
// source into the network core and descends again toward a low-weight target.
func TestObserverFigure1Trajectory(t *testing.T) {
	// A sparse 5000-vertex GIRG with minimal-weight source and target planted
	// far apart on the torus — the hardest typical case, and the one Figure 1
	// depicts. Sparseness (small lambda) keeps paths long enough to show the
	// two phases; the seed scan is deterministic.
	params := girg.DefaultParams(5000)
	params.FixedN = true
	params.Lambda = 0.05
	planted := []girg.Plant{
		{Pos: []float64{0.1, 0.1}, W: params.WMin},
		{Pos: []float64{0.6, 0.6}, W: params.WMin},
	}
	var (
		nw     *Network
		events []route.MoveEvent
		res    route.Result
	)
	found := false
	for seed := uint64(1); seed < 60 && !found; seed++ {
		g, err := girg.Generate(params, seed, girg.Options{Planted: planted})
		if err != nil {
			t.Fatal(err)
		}
		cand := &Network{Graph: g, Label: "figure1"}
		var evs []route.MoveEvent
		r, err := cand.Route("greedy", 0, 1, route.ObserverFunc(func(ev route.MoveEvent) {
			evs = append(evs, ev)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if r.Success && r.Moves >= 4 {
			nw, events, res, found = cand, evs, r, true
		}
	}
	if !found {
		t.Fatal("no greedy success with >= 4 moves between planted low-weight vertices; adjust the seed range")
	}

	// The stream mirrors the path: one event per position, in step order.
	if len(events) != len(res.Path) {
		t.Fatalf("%d events for a path of %d vertices", len(events), len(res.Path))
	}
	for i, ev := range events {
		if ev.Episode != 0 || ev.Step != i || ev.V != res.Path[i] {
			t.Fatalf("event %d = %+v, path vertex %d", i, ev, res.Path[i])
		}
		if ev.W != nw.Graph.Weight(ev.V) {
			t.Fatalf("event %d: W = %g, graph weight %g", i, ev.W, nw.Graph.Weight(ev.V))
		}
	}
	// And matches route.Moves, the library's own Figure 1 expansion.
	traj := route.Moves(nw.Graph, route.NewStandard(nw.Graph, res.Path[len(res.Path)-1]), res, 0)
	for i, h := range traj {
		if events[i] != h {
			t.Fatalf("event %d = %+v differs from trajectory move %+v", i, events[i], h)
		}
	}

	// Objective strictly increasing along the whole path (greedy only moves
	// to strictly better neighbors).
	for i := 1; i < len(events); i++ {
		if !(events[i].Score > events[i-1].Score) {
			t.Fatalf("objective not strictly increasing at step %d: %g -> %g",
				i, events[i-1].Score, events[i].Score)
		}
	}
	// Weight arc: the first phase climbs to an interior peak well above both
	// endpoints (the message detours through the core).
	peak, peakAt := events[0].W, 0
	for i, ev := range events {
		if ev.W > peak {
			peak, peakAt = ev.W, i
		}
	}
	if peakAt == 0 || peakAt == len(events)-1 {
		t.Fatalf("weight peak at position %d of %d — no core detour", peakAt, len(events))
	}
	if peak <= events[0].W || peak <= events[len(events)-1].W {
		t.Fatalf("peak weight %g does not exceed endpoint weights %g, %g",
			peak, events[0].W, events[len(events)-1].W)
	}
}

// TestRunMilgramObserverDeterministic checks that the batch runner replays
// events grouped by episode in episode order, and that the stream is
// bit-identical across runs despite concurrent routing.
func TestRunMilgramObserverDeterministic(t *testing.T) {
	nw := girgNet(t, 1200, 45)
	collect := func() []route.MoveEvent {
		var events []route.MoveEvent
		_, err := RunMilgram(nw, MilgramConfig{
			Pairs: 15,
			Seed:  46,
			Observer: route.ObserverFunc(func(ev route.MoveEvent) {
				events = append(events, ev)
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	a := collect()
	if len(a) == 0 {
		t.Fatal("observer received no events")
	}

	episodes := map[int]bool{}
	lastEpisode, lastStep := -1, 0
	for i, ev := range a {
		if ev.Episode < lastEpisode {
			t.Fatalf("event %d: episode %d after episode %d — stream not grouped", i, ev.Episode, lastEpisode)
		}
		if ev.Episode > lastEpisode {
			if ev.Step != 0 {
				t.Fatalf("episode %d starts at step %d", ev.Episode, ev.Step)
			}
		} else if ev.Step != lastStep+1 {
			t.Fatalf("episode %d: step %d after step %d", ev.Episode, ev.Step, lastStep)
		}
		lastEpisode, lastStep = ev.Episode, ev.Step
		episodes[ev.Episode] = true
	}
	if len(episodes) != 15 {
		t.Fatalf("events cover %d episodes, want 15 (every episode has at least its source placement)", len(episodes))
	}

	if b := collect(); !reflect.DeepEqual(a, b) {
		t.Fatal("two identical batches produced different event streams")
	}
}
