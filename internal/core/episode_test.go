package core

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/girg"
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

// TestEpisodeBytesFlatInN: every built-in protocol keeps its episode state
// in the caller's Scratch, so once one Scratch has routed a set of pairs,
// routing them again allocates about the same bytes per episode on the
// sparse n = 20 000 fixture as on the n = 2 000 one — where four Phi-DFS
// n-arrays, a lookahead memo or history's maps would grow with n.
func TestEpisodeBytesFlatInN(t *testing.T) {
	perEpisode := func(proto Protocol, nw *Network) float64 {
		giant := nw.Giant()
		var sc route.Scratch
		var res route.Result
		routeAll := func() {
			for i := 0; i < 50; i++ {
				cfg := EpisodeConfig{Protocol: proto, S: giant[i*7919%len(giant)], T: giant[(i*104729+13)%len(giant)]}
				if err := nw.RouteEpisodeInto(cfg, &sc, &res); err != nil {
					t.Fatal(err)
				}
			}
		}
		routeAll() // grow the Scratch and the path buffer
		// TotalAlloc is process-wide: the least of three rounds is the one
		// other goroutines disturbed least.
		least := math.Inf(1)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			routeAll()
			runtime.ReadMemStats(&after)
			least = math.Min(least, float64(after.TotalAlloc-before.TotalAlloc)/50)
		}
		return least
	}
	fixture := func(n float64) *Network {
		p := girg.DefaultParams(n)
		p.FixedN = true
		p.Lambda = 0.005
		nw, err := NewGIRG(p, 5, girg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	small, large := fixture(2000), fixture(20000)
	for _, proto := range reportOrder {
		a, b := perEpisode(proto, small), perEpisode(proto, large)
		t.Logf("%s: %.0f B per episode at n=2000, %.0f B at n=20000", proto, a, b)
		if b > 1.2*a {
			t.Errorf("%s allocates %.0f B per episode at n=2000 and %.0f B at n=20000: its state grows with n", proto, a, b)
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

// TestRouteEpisodeMasked pins a shard's segment as a core episode: with
// Owned set, RouteEpisodeInto routes exactly route.GreedyCSRPartial's
// segment under the same budget, counts it and replays it to the observer,
// allocation-free; any episode off the greedy fast path is refused with
// ErrMaskUnsupported before it routes.
func TestRouteEpisodeMasked(t *testing.T) {
	live, frozen := liveNet(t, 600, 33, 8)
	g := frozen.Graph
	n := g.N()
	owned := make([]bool, n)
	for v := range owned {
		owned[v] = v%2 == 0
	}
	c := NewCounters()
	var sc route.Scratch
	var got, want route.Result
	exits := 0
	for i := 0; i < 200; i++ {
		s, tgt, budget := i*7919%n, (i*104729+1)%n, i%4
		var events int
		obs := route.ObserverFunc(func(route.MoveEvent) { events++ })
		cfg := EpisodeConfig{S: s, T: tgt, MaxHops: budget, Owned: owned, Counters: c, Observer: obs}
		if err := frozen.RouteEpisodeInto(cfg, &sc, &got); err != nil {
			t.Fatal(err)
		}
		if route.GreedyCSRPartial(g, tgt, s, owned, route.Budget{MaxScans: budget}, nil, &want) >= 0 {
			exits++
		}
		if !reflect.DeepEqual(got, want) || events != len(got.Path) {
			t.Fatalf("(%d -> %d, %d scans): %+v with %d events, want %+v", s, tgt, budget, got, events, want)
		}
	}
	if st := c.Stats(); st.Episodes != 200 || exits == 0 {
		t.Fatalf("%d episodes counted, %d exits, want 200 and some", st.Episodes, exits)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		cfg := EpisodeConfig{S: i * 7919 % n, T: (i*104729 + 1) % n, Owned: owned}
		if err := frozen.RouteEpisodeInto(cfg, &sc, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a masked RouteEpisodeInto made %v allocations per episode, want 0", allocs)
	}

	plan, err := faults.NewPlan(3, faults.Spec{Model: "edge-drop", Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	custom := &Network{Graph: g, NewObjective: func(t int) route.Objective { return route.NewStandard(g, t) }}
	for name, tc := range map[string]struct {
		nw  *Network
		cfg EpisodeConfig
	}{
		"another protocol":   {frozen, EpisodeConfig{Protocol: "phi-dfs", S: 0, T: 1, Owned: owned}},
		"a fault plan":       {frozen, EpisodeConfig{S: 0, T: 1, Owned: owned, Faults: plan}},
		"a live overlay":     {live, EpisodeConfig{S: 0, T: 1, Owned: make([]bool, live.LiveN())}},
		"a custom objective": {custom, EpisodeConfig{S: 0, T: 1, Owned: owned}},
		"a short mask":       {frozen, EpisodeConfig{S: 0, T: 1, Owned: owned[:n-1]}},
	} {
		tc.cfg.Counters = c
		if err := tc.nw.RouteEpisodeInto(tc.cfg, &sc, &got); !errors.Is(err, ErrMaskUnsupported) {
			t.Errorf("%s: %v, want ErrMaskUnsupported", name, err)
		}
	}
	if st := c.Stats(); st.Episodes != 200 {
		t.Errorf("refused episodes were counted: %d episodes", st.Episodes)
	}
}
