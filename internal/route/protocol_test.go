package route

import (
	"strings"
	"testing"
)

// stubProtocol is a registrable test protocol.
type stubProtocol struct{ name string }

func (p stubProtocol) Name() string { return p.name }
func (p stubProtocol) RouteInto(_ Graph, _ Objective, s int, _ *Scratch, out *Result) {
	*out = Result{Path: []int{s}}
}

func TestRegisterBuiltins(t *testing.T) {
	for _, name := range []string{"greedy", "greedy+lookahead", "phi-dfs", "history", "gravity-pressure"} {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestLookupUnknownListsRegistered(t *testing.T) {
	_, err := Lookup("no-such-protocol")
	if err == nil {
		t.Fatal("Lookup of unknown name succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-protocol"`) {
		t.Fatalf("error does not name the unknown protocol: %v", err)
	}
	for _, name := range []string{"greedy", "phi-dfs", "history"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("error does not list registered protocol %q: %v", name, err)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(stubProtocol{name: "test-dup"})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate Register did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "test-dup") {
			t.Fatalf("panic value %v does not name the duplicate", r)
		}
	}()
	Register(stubProtocol{name: "test-dup"})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register with empty name did not panic")
		}
	}()
	Register(stubProtocol{name: ""})
}

func TestRegisteredOrder(t *testing.T) {
	names := Registered()
	if len(names) < 5 {
		t.Fatalf("Registered() = %v, want at least the 5 built-ins", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("Registered() repeats %q: %v", n, names)
		}
		seen[n] = true
	}
	sorted := RegisteredSorted()
	if len(sorted) != len(names) {
		t.Fatalf("RegisteredSorted() has %d names, Registered() %d", len(sorted), len(names))
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatalf("RegisteredSorted() not sorted: %v", sorted)
		}
	}
}

func TestObserveReplaysPathInStepOrder(t *testing.T) {
	g := newTestGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	g.weights = []float64{1, 10, 100, 2}
	obj := scoreObjective([]float64{1, 2, 3, 0}, 3)
	res := Greedy(g, obj, 0)
	if !res.Success {
		t.Fatalf("greedy failed: %+v", res)
	}

	var events []MoveEvent
	Observe(g, obj, res, 7, ObserverFunc(func(ev MoveEvent) { events = append(events, ev) }))
	if len(events) != len(res.Path) {
		t.Fatalf("%d events for a %d-vertex path", len(events), len(res.Path))
	}
	for i, ev := range events {
		if ev.Episode != 7 {
			t.Fatalf("event %d: Episode = %d, want 7", i, ev.Episode)
		}
		if ev.Step != i {
			t.Fatalf("event %d: Step = %d", i, ev.Step)
		}
		if ev.V != res.Path[i] {
			t.Fatalf("event %d: V = %d, path vertex %d", i, ev.V, res.Path[i])
		}
		if ev.W != g.Weight(ev.V) {
			t.Fatalf("event %d: W = %g, weight %g", i, ev.W, g.Weight(ev.V))
		}
		if ev.Score != obj.Score(ev.V) {
			t.Fatalf("event %d: Score = %g, objective %g", i, ev.Score, obj.Score(ev.V))
		}
	}
}

func TestProtocolRouteMatchesFunctions(t *testing.T) {
	// The registered protocol values must dispatch to the same algorithms as
	// the direct function calls.
	g := newTestGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}})
	obj := scoreObjective([]float64{1, 2, 3, 4, 0}, 4)

	direct := Greedy(g, obj, 0)
	viaIface := Route(GreedyRouter{}, g, obj, 0)
	if !pathsEqual(direct.Path, viaIface.Path) || direct.Success != viaIface.Success {
		t.Fatalf("Route(GreedyRouter{}) = %+v, Greedy = %+v", viaIface, direct)
	}

	reg, err := Lookup("greedy")
	if err != nil {
		t.Fatal(err)
	}
	viaReg := Route(reg, g, obj, 0)
	if !pathsEqual(direct.Path, viaReg.Path) {
		t.Fatalf("registry greedy path %v, direct %v", viaReg.Path, direct.Path)
	}
}

func pathsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
