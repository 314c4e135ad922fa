package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/route"
)

// TestRouteEpisodeBasic runs a plain budgetless episode through the
// single-query entry point and checks it matches Route.
func TestRouteEpisodeBasic(t *testing.T) {
	nw := girgNet(t, 400, 11)
	res, err := nw.RouteEpisode(EpisodeConfig{S: 1, T: 200})
	if err != nil {
		t.Fatal(err)
	}
	want, err := nw.Route("", 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success != want.Success || res.Moves != want.Moves {
		t.Fatalf("RouteEpisode = %+v, Route = %+v", res, want)
	}
}

// TestRouteEpisodeBudget verifies a tiny hop budget classifies the episode
// as deadline instead of erroring.
func TestRouteEpisodeBudget(t *testing.T) {
	nw := girgNet(t, 2000, 7)
	res, err := nw.RouteEpisode(EpisodeConfig{S: 0, T: 1500, MaxHops: 1, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success || res.Failure != route.FailDeadline {
		t.Fatalf("budgeted episode = %+v, want deadline failure", res)
	}
}

// TestRouteEpisodeCrashedTarget verifies a full-crash plan classifies the
// episode without running the protocol.
func TestRouteEpisodeCrashedTarget(t *testing.T) {
	nw := girgNet(t, 400, 11)
	plan, err := faults.NewPlan(3, faults.Spec{Model: "crash-uniform", Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.RouteEpisode(EpisodeConfig{S: 1, T: 200, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != route.FailCrashedTarget {
		t.Fatalf("failure = %q, want crashed-target", res.Failure)
	}
}

// TestRouteEpisodeValidation covers the error surface: unknown protocol and
// out-of-range vertices.
func TestRouteEpisodeValidation(t *testing.T) {
	nw := girgNet(t, 400, 11)
	if _, err := nw.RouteEpisode(EpisodeConfig{Protocol: "nope", S: 0, T: 1}); err == nil {
		t.Fatal("unknown protocol did not error")
	}
	if _, err := nw.RouteEpisode(EpisodeConfig{S: -1, T: 1}); err == nil {
		t.Fatal("out-of-range source did not error")
	}
}

// TestRouteEpisodeObserver verifies the observer replay carries the
// episode's path in step order.
func TestRouteEpisodeObserver(t *testing.T) {
	nw := girgNet(t, 400, 11)
	var events []route.MoveEvent
	obs := route.ObserverFunc(func(ev route.MoveEvent) { events = append(events, ev) })
	res, err := nw.RouteEpisode(EpisodeConfig{S: 1, T: 200, Episode: 9, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(res.Path) {
		t.Fatalf("observer saw %d events for a %d-vertex path", len(events), len(res.Path))
	}
	for i, ev := range events {
		if ev.V != res.Path[i] || ev.Episode != 9 || ev.Step != i {
			t.Fatalf("event %d = %+v, want path vertex %d", i, ev, res.Path[i])
		}
	}
}

// TestRouteEpisodeIntoZeroAlloc holds the library episode path to zero
// allocations per episode: greedy under the standard phi with a nil fault
// plan, warm scratch and result, on the immutable network and on one with
// a live overlay attached.
func TestRouteEpisodeIntoZeroAlloc(t *testing.T) {
	live, frozen := liveNet(t, 600, 33, 8)
	for _, tc := range []struct {
		name string
		nw   *Network
	}{{"immutable", frozen}, {"overlay", live}} {
		n := tc.nw.LiveN()
		var sc route.Scratch
		var res route.Result
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			i++
			cfg := EpisodeConfig{S: i * 7919 % n, T: (i*104729 + 1) % n}
			if err := tc.nw.RouteEpisodeInto(cfg, &sc, &res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: RouteEpisodeInto made %v allocations per episode, want 0", tc.name, allocs)
		}
	}
}

// TestNetworkDefaultsToPhi builds a Network from its graph alone: every
// built-in protocol routes exactly as route.Route over route.NewStandard,
// and a greedy RouteEpisodeInto allocates nothing, so the engine picked the
// concrete walk from the nil objective without being told.
func TestNetworkDefaultsToPhi(t *testing.T) {
	g := girgNet(t, 600, 41).Graph
	nw := &Network{Graph: g}
	giant := nw.Giant()
	var sc route.Scratch
	var got route.Result
	for _, proto := range Protocols()[:len(reportOrder)] {
		p, err := resolve(proto)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			s, tgt := giant[i*37%len(giant)], giant[(i*101+5)%len(giant)]
			if err := nw.RouteEpisodeInto(EpisodeConfig{Protocol: proto, S: s, T: tgt}, &sc, &got); err != nil {
				t.Fatal(err)
			}
			want := route.Route(p, g, route.NewStandard(g, tgt), s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (%d -> %d): %+v, want %+v", proto, s, tgt, got, want)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		cfg := EpisodeConfig{S: giant[i*7919%len(giant)], T: giant[(i*104729+1)%len(giant)]}
		if err := nw.RouteEpisodeInto(cfg, &sc, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("greedy RouteEpisodeInto made %v allocations per episode, want 0", allocs)
	}
}
