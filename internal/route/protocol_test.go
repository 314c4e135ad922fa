package route

import (
	"fmt"
	"strings"
	"sync"
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

// TestRegisterDuplicatePanics re-registers a built-in, which the registry
// holds in every run, so the test repeats under -count; the registry type's
// own panics are tested on local instances (internal/registry).
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate Register did not panic")
		}
		if msg, ok := r.(string); !ok || msg != "route: duplicate protocol registration greedy" {
			t.Fatalf("panic value %v does not name the duplicate", r)
		}
	}()
	Register(GreedyRouter{})
}

// TestRegisterWhileRouting pins the registry's lock-free readers: while
// Register publishes new protocols, concurrent Lookup and Registered calls
// (every episode makes one) always see the built-ins, and every
// registration lands. Run under -race it also checks that a
// published state is never written.
func TestRegisterWhileRouting(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := Lookup("greedy"); err != nil {
					t.Error(err)
					return
				}
				if names := Registered(); len(names) < 5 {
					t.Errorf("Registered() = %v mid-registration", names)
					return
				}
			}
		}()
	}
	base := len(Registered()) // names unique per run, so the test repeats under -count
	for i := 0; i < 20; i++ {
		Register(stubProtocol{name: fmt.Sprintf("test-concurrent-%d-%d", base, i)})
	}
	close(stop)
	wg.Wait()
	for i := 0; i < 20; i++ {
		if _, err := Lookup(fmt.Sprintf("test-concurrent-%d-%d", base, i)); err != nil {
			t.Fatal(err)
		}
	}
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
