package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/route"
)

// reportsEqual compares two reports field by field, treating NaN summary
// means as equal (reflect.DeepEqual would not).
func reportsEqual(a, b MilgramReport) bool {
	eq := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return a.Attempts == b.Attempts && a.Success == b.Success &&
		a.Truncated == b.Truncated &&
		eq(a.MeanHops, b.MeanHops) && eq(a.MeanStretch, b.MeanStretch) &&
		reflect.DeepEqual(a.Hops, b.Hops) && reflect.DeepEqual(a.Stretches, b.Stretches)
}

// TestGoldenShimEquivalence pins name dispatch to the pre-registry behavior:
// each built-in's registry name, resolved through Network.Route, must produce
// a Result bit-identical to the enum switch arm it replaced, inlined below.
func TestGoldenShimEquivalence(t *testing.T) {
	nw := girgNet(t, 1200, 31)
	giant := nw.Giant()
	golden := map[Protocol]func(obj route.Objective, s int) route.Result{
		"greedy": func(obj route.Objective, s int) route.Result {
			return route.Greedy(nw.Graph, obj, s)
		},
		"greedy+lookahead": func(obj route.Objective, s int) route.Result {
			return route.Greedy(nw.Graph, route.NewLookahead(nw.Graph, obj), s)
		},
		"phi-dfs": func(obj route.Objective, s int) route.Result {
			return route.Route(route.PhiDFS{}, nw.Graph, obj, s)
		},
		"history": func(obj route.Objective, s int) route.Result {
			return route.Route(route.HistoryPatch{}, nw.Graph, obj, s)
		},
		"gravity-pressure": func(obj route.Objective, s int) route.Result {
			return route.Route(route.GravityPressure{}, nw.Graph, obj, s)
		},
	}
	// Several pairs across the giant component, fixed by the graph seed.
	pairs := [][2]int{
		{giant[0], giant[len(giant)-1]},
		{giant[len(giant)/2], giant[1]},
		{giant[7], giant[len(giant)/3]},
	}
	for proto, old := range golden {
		for _, pr := range pairs {
			s, tgt := pr[0], pr[1]
			got, err := nw.Route(proto, s, tgt)
			if err != nil {
				t.Fatalf("%s: %v", proto, err)
			}
			want := old(nw.NewObjective(tgt), s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on (%d, %d): registry result %+v differs from pre-redesign dispatch %+v",
					proto, s, tgt, got, want)
			}
		}
	}
}

func TestLookupErrorListsProtocols(t *testing.T) {
	_, err := resolve("bogus")
	if err == nil {
		t.Fatal("resolve of unknown name succeeded")
	}
	for _, p := range []Protocol{"greedy", "phi-dfs", "gravity-pressure"} {
		if !strings.Contains(err.Error(), string(p)) {
			t.Fatalf("error %q does not list %q", err, p)
		}
	}
	p, err := resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "greedy" {
		t.Fatalf("resolve(\"\").Name() = %q", p.Name())
	}
}

func TestZeroValueProtocolIsGreedy(t *testing.T) {
	// A zero-valued MilgramConfig.Protocol must route greedily — identical
	// report to an explicit "greedy", not an error.
	nw := girgNet(t, 900, 32)
	def, err := RunMilgram(nw, MilgramConfig{Pairs: 40, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunMilgram(nw, MilgramConfig{Pairs: 40, Seed: 33, Protocol: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(def, explicit) {
		t.Fatalf("zero-value protocol report %+v differs from explicit greedy %+v", def, explicit)
	}
}

// constProtocol is an externally registered protocol: it never moves.
type constProtocol struct{}

func (constProtocol) Name() string { return "test-stay-put" }
func (constProtocol) RouteInto(_ route.Graph, _ route.Objective, s int, _ *route.Scratch, out *route.Result) {
	*out = route.Result{Path: []int{s}, Stuck: s, Unique: 1}
}

// panicProtocol panics on every episode, as a buggy plug-in would.
type panicProtocol struct{}

func (panicProtocol) Name() string { return "test-panic" }
func (panicProtocol) RouteInto(route.Graph, route.Objective, int, *route.Scratch, *route.Result) {
	panic("buggy plug-in protocol")
}

func TestExternalProtocolPlugsIn(t *testing.T) {
	route.Register(constProtocol{})
	nw := girgNet(t, 600, 34)

	// Addressable everywhere a protocol name is accepted.
	res, err := nw.Route("test-stay-put", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success || len(res.Path) != 1 || res.Path[0] != 3 {
		t.Fatalf("custom protocol result %+v", res)
	}
	rep, err := RunMilgram(nw, MilgramConfig{Pairs: 20, Seed: 35, Protocol: "test-stay-put"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success.P != 0 {
		t.Fatalf("stay-put protocol delivered %v of letters", rep.Success.P)
	}
	// And listed after the built-ins.
	ps := Protocols()
	found := false
	for _, p := range ps[5:] {
		if p == "test-stay-put" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Protocols() = %v does not list the external protocol after the built-ins", ps)
	}
}

func TestProtocolPanicBecomesError(t *testing.T) {
	route.Register(panicProtocol{})
	nw := girgNet(t, 600, 36)

	c := NewCounters()
	before := c.Stats()
	if _, err := nw.Route("test-panic", 0, 1); err == nil {
		t.Fatal("panicking protocol returned no error from Route")
	} else if !strings.Contains(err.Error(), "test-panic") {
		t.Fatalf("error %q does not name the protocol", err)
	}
	// Batch runs must surface the error too — episode errors are propagated,
	// not swallowed.
	if _, err := RunMilgram(nw, MilgramConfig{Pairs: 10, Seed: 37, Protocol: "test-panic", Counters: c}); err == nil {
		t.Fatal("panicking protocol returned no error from RunMilgram")
	}
	after := c.Stats()
	if after.Panics <= before.Panics {
		t.Fatalf("panic counter did not advance: %d -> %d", before.Panics, after.Panics)
	}
}

func TestRunMilgramCtxCancelled(t *testing.T) {
	nw := girgNet(t, 800, 38)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	c := NewCounters()
	before := c.Stats()
	rep, err := RunMilgramCtx(ctx, nw, MilgramConfig{Pairs: 500, Seed: 39, Counters: c})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Attempts != 0 || rep.Hops != nil {
		t.Fatalf("cancelled batch returned a partial report: %+v", rep)
	}
	after := c.Stats()
	if after.Episodes != before.Episodes {
		t.Fatalf("cancelled batch routed %d pairs", after.Episodes-before.Episodes)
	}
	if after.Batches != before.Batches {
		t.Fatal("cancelled batch counted as started")
	}
}

func TestRunMilgramCtxBackground(t *testing.T) {
	// A live context must not disturb the batch.
	nw := girgNet(t, 800, 40)
	a, err := RunMilgram(nw, MilgramConfig{Pairs: 30, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMilgramCtx(context.Background(), nw, MilgramConfig{Pairs: 30, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(a, b) {
		t.Fatalf("RunMilgramCtx report %+v differs from RunMilgram %+v", b, a)
	}
}

func TestEngineStatsCount(t *testing.T) {
	nw := girgNet(t, 700, 42)
	c := NewCounters()
	before := c.Stats()
	rep, err := RunMilgram(nw, MilgramConfig{Pairs: 25, Seed: 43, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if d := after.Episodes - before.Episodes; d != 25 {
		t.Fatalf("episode counter advanced by %d, want 25", d)
	}
	if d := after.Batches - before.Batches; d != 1 {
		t.Fatalf("batch counter advanced by %d, want 1", d)
	}
	if after.Moves <= before.Moves {
		t.Fatal("move counter did not advance")
	}
	failed := int64(rep.Attempts - len(rep.Hops))
	if d := after.Failures - before.Failures; d != failed {
		t.Fatalf("failure counter advanced by %d, report shows %d failures", d, failed)
	}
	var histTotal int64
	for _, n := range after.EpisodeWallTime {
		histTotal += n
	}
	if histTotal != after.Episodes-after.Panics {
		t.Fatalf("wall-time histogram holds %d episodes, counters say %d",
			histTotal, after.Episodes-after.Panics)
	}
}
