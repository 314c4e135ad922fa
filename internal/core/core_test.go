package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/girg"
	"repro/internal/hrg"
	"repro/internal/kleinberg"
	"repro/internal/route"
)

func girgNet(t testing.TB, n float64, seed uint64) *Network {
	t.Helper()
	p := girg.DefaultParams(n)
	p.FixedN = true
	nw, err := NewGIRG(p, seed, girg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewGIRGNetwork(t *testing.T) {
	nw := girgNet(t, 1000, 1)
	if nw.Graph.N() != 1000 {
		t.Fatalf("N = %d", nw.Graph.N())
	}
	if nw.Label == "" {
		t.Fatal("empty label")
	}
	if nw.NewObjective != nil {
		t.Fatal("GIRG network carries a custom objective; it routes by phi")
	}
	if len(nw.Giant()) < 100 {
		t.Fatalf("giant size %d", len(nw.Giant()))
	}
	// Giant is cached: same slice.
	if &nw.Giant()[0] != &nw.Giant()[0] {
		t.Fatal("giant not cached")
	}
}

// TestGiantConcurrentFirstCall: eight goroutines ask a fresh Network for
// its giant component at once. The memo lives on the graph behind a
// sync.Once, so -race sees no write to share, every caller gets the same
// slice, and a later call allocates nothing — one component pass per graph.
func TestGiantConcurrentFirstCall(t *testing.T) {
	nw := girgNet(t, 1000, 3)
	got := make([][]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = nw.Giant()
		}(i)
	}
	wg.Wait()
	for i, gc := range got {
		if len(gc) < 100 || &gc[0] != &got[0][0] {
			t.Fatalf("caller %d got a giant of %d vertices at %p, caller 0 one at %p", i, len(gc), gc, got[0])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { nw.Giant() }); allocs != 0 {
		t.Fatalf("a memoized Giant call allocates %.0f times, want 0", allocs)
	}
}

func TestNewHRGNetworkObjectives(t *testing.T) {
	p := hrg.DefaultParams(500)
	std, err := NewHRG(p, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	hyp, err := NewHRG(p, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same graph.
	if std.Graph.M() != hyp.Graph.M() {
		t.Fatal("same seed produced different graphs")
	}
	if std.Label == hyp.Label {
		t.Fatal("labels should distinguish objectives")
	}
}

func TestNewKleinbergNetworks(t *testing.T) {
	grid, err := NewKleinbergGrid(kleinberg.GridParams{L: 16, Q: 1, R: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Graph.N() != 256 {
		t.Fatalf("grid N = %d", grid.Graph.N())
	}
	cont, err := NewKleinbergContinuum(kleinberg.ContinuumParams{N: 200, Q: 1, AlphaDecay: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cont.Graph.N() != 200 {
		t.Fatalf("continuum N = %d", cont.Graph.N())
	}
}

func TestProtocolString(t *testing.T) {
	if p := Protocol("phi-dfs"); p.String() != "phi-dfs" {
		t.Errorf("%q.String() = %q", string(p), p.String())
	}
	if Protocol("").String() != "greedy" {
		t.Error("zero-value protocol must print as the greedy default")
	}
	// The report order starts with the five built-ins; externally
	// registered protocols (e.g. from other tests) follow.
	ps := Protocols()
	if len(ps) < 5 {
		t.Fatalf("Protocols() = %v, missing built-ins", ps)
	}
	for i, want := range []Protocol{"greedy", "greedy+lookahead", "phi-dfs", "history", "gravity-pressure"} {
		if ps[i] != want {
			t.Errorf("Protocols()[%d] = %q, want %q", i, ps[i], want)
		}
	}
}

func TestRouteDispatch(t *testing.T) {
	nw := girgNet(t, 800, 5)
	giant := nw.Giant()
	s, tgt := giant[0], giant[len(giant)-1]
	for _, proto := range reportOrder {
		res, err := nw.Route(proto, s, tgt)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if len(res.Path) == 0 || res.Path[0] != s {
			t.Fatalf("%v: bad path start", proto)
		}
	}
	if _, err := nw.Route(Protocol("no-such-protocol"), s, tgt); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := nw.Route("greedy", -1, s); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestRunMilgramGreedy(t *testing.T) {
	nw := girgNet(t, 2000, 6)
	rep, err := RunMilgram(nw, MilgramConfig{Pairs: 150, Seed: 7, ComputeStretch: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 150 {
		t.Fatalf("attempts %d", rep.Attempts)
	}
	if rep.Success.P < 0.3 {
		t.Fatalf("greedy success %v too low", rep.Success.P)
	}
	if len(rep.Hops) == 0 || math.IsNaN(rep.MeanHops) {
		t.Fatal("no hop statistics")
	}
	if len(rep.Stretches) == 0 {
		t.Fatal("stretch requested but absent")
	}
	for _, st := range rep.Stretches {
		if st < 1 {
			t.Fatalf("stretch %v below 1 (greedy cannot beat BFS)", st)
		}
	}
}

func TestRunMilgramPatchedAlwaysSucceeds(t *testing.T) {
	nw := girgNet(t, 1500, 8)
	for _, proto := range []Protocol{"phi-dfs", "history"} {
		rep, err := RunMilgram(nw, MilgramConfig{Pairs: 40, Protocol: proto, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Success.P != 1 {
			t.Fatalf("%v success %v within giant, want 1", proto, rep.Success.P)
		}
	}
}

func TestRunMilgramWholeGraphLowerSuccess(t *testing.T) {
	nw := girgNet(t, 2000, 10)
	inGiant, err := RunMilgram(nw, MilgramConfig{Pairs: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := RunMilgram(nw, MilgramConfig{Pairs: 200, Seed: 11, WholeGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if whole.Success.P > inGiant.Success.P {
		t.Fatalf("whole-graph success %v exceeds giant-only %v", whole.Success.P, inGiant.Success.P)
	}
}

func TestRunMilgramCustomObjective(t *testing.T) {
	nw := girgNet(t, 1000, 12)
	rep, err := RunMilgram(nw, MilgramConfig{
		Pairs: 50,
		Seed:  13,
		Objective: func(tgt int) route.Objective {
			return route.NewRelaxed(route.NewStandard(nw.Graph, tgt), nw.Graph, 0.1, 99)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success.P < 0.2 {
		t.Fatalf("relaxed success %v", rep.Success.P)
	}
}

func TestRunMilgramErrors(t *testing.T) {
	nw := girgNet(t, 500, 14)
	if _, err := RunMilgram(nw, MilgramConfig{Pairs: 0}); err == nil {
		t.Fatal("zero pairs accepted")
	}
	if _, err := RunMilgram(nw, MilgramConfig{Pairs: 10, Protocol: Protocol("bogus")}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunMilgramDeterministic(t *testing.T) {
	nw := girgNet(t, 1000, 15)
	a, err := RunMilgram(nw, MilgramConfig{Pairs: 60, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMilgram(nw, MilgramConfig{Pairs: 60, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if a.Success.P != b.Success.P || a.MeanHops != b.MeanHops {
		t.Fatal("same seed produced different reports")
	}
}

func TestRunMilgramParallelMatchesSequential(t *testing.T) {
	// The report must be bit-identical whether episodes run on one core or
	// many (pairs are drawn sequentially; episodes are pure).
	nw := girgNet(t, 1500, 17)
	cfg := MilgramConfig{Pairs: 80, Seed: 18, ComputeStretch: true, Protocol: "phi-dfs"}
	prev := runtime.GOMAXPROCS(1)
	seq, err := RunMilgram(nw, cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMilgram(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Success.P != par.Success.P || seq.MeanHops != par.MeanHops ||
		seq.MeanStretch != par.MeanStretch || seq.Truncated != par.Truncated {
		t.Fatalf("parallel run differs from sequential: %+v vs %+v", par, seq)
	}
	if len(seq.Hops) != len(par.Hops) {
		t.Fatal("hop counts differ")
	}
	for i := range seq.Hops {
		if seq.Hops[i] != par.Hops[i] {
			t.Fatalf("hop order differs at %d", i)
		}
	}
}
