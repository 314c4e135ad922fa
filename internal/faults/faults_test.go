package faults

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/route"
)

// testGraph is a minimal route.Graph for handcrafted topologies.
type testGraph struct {
	adj     [][]int32
	weights []float64
}

func newTestGraph(n int, edges [][2]int) *testGraph {
	g := &testGraph{adj: make([][]int32, n), weights: make([]float64, n)}
	for i := range g.weights {
		g.weights[i] = 1
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], int32(e[1]))
		g.adj[e[1]] = append(g.adj[e[1]], int32(e[0]))
	}
	return g
}

func (g *testGraph) N() int                  { return len(g.adj) }
func (g *testGraph) Neighbors(v int) []int32 { return g.adj[v] }
func (g *testGraph) Weight(v int) float64    { return g.weights[v] }

// star returns a hub-and-leaves graph with n-1 leaves.
func star(n int) *testGraph {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return newTestGraph(n, edges)
}

func constObjective(t int) route.Objective {
	return route.Objective{Target: t, Score: func(v int) float64 {
		if v == t {
			return math.Inf(1)
		}
		return float64(v)
	}}
}

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{"edge-drop", "crash-uniform", "crash-core", "msg-loss", "objective-noise"} {
		m, err := New(Spec{Model: name, Rate: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("built %q, asked for %q", m.Name(), name)
		}
	}
}

func TestNewUnknownModelListsRegistered(t *testing.T) {
	_, err := New(Spec{Model: "bogus", Rate: 0.1})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, name := range RegisteredSorted() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestNewValidatesSpec(t *testing.T) {
	if _, err := New(Spec{Model: "edge-drop", Rate: 1.5}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := New(Spec{Model: "edge-drop", Rate: -0.1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New(Spec{Model: "msg-loss", Rate: 0.5, Retries: -1}); err == nil {
		t.Fatal("negative retry budget accepted")
	}
	if _, err := New(Spec{Model: "msg-loss", Rate: 0.5, Retries: maxRetries + 1}); err == nil {
		t.Fatal("retry budget above the cap accepted")
	}
	if _, err := New(Spec{Model: "msg-loss", Rate: 0.5, Retries: maxRetries}); err != nil {
		t.Fatalf("retry budget at the cap rejected: %v", err)
	}
}

// collectQueries replays a fixed query sequence against a fresh episode view
// and records every returned adjacency list.
func collectQueries(b *BoundPlan, g route.Graph, episode int, queries []int) [][]int32 {
	fg, _ := b.View(g, constObjective(0), episode)
	out := make([][]int32, len(queries))
	for i, v := range queries {
		ns := fg.Neighbors(v)
		out[i] = append([]int32(nil), ns...)
	}
	return out
}

func TestEdgeDropDeterministicPerEpisode(t *testing.T) {
	g := star(200)
	plan, err := NewPlan(7, Spec{Model: "edge-drop", Rate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Bind(g)
	queries := []int{0, 0, 1, 0, 5}
	a := collectQueries(b, g, 3, queries)
	if !reflect.DeepEqual(a, collectQueries(b, g, 3, queries)) {
		t.Fatal("same (seed, episode, query sequence) produced different faults")
	}
	if reflect.DeepEqual(a, collectQueries(b, g, 4, queries)) {
		t.Fatal("different episodes produced identical fault streams")
	}
	// Transience: repeated queries of the same vertex within an episode see
	// different surviving sets (the query counter advances).
	if reflect.DeepEqual(a[0], a[1]) && reflect.DeepEqual(a[0], a[3]) {
		t.Fatal("edge failures not transient within an episode")
	}
}

func TestEdgeDropRate(t *testing.T) {
	g := star(1001)
	const rate = 0.3
	plan, err := NewPlan(11, Spec{Model: "edge-drop", Rate: rate})
	if err != nil {
		t.Fatal(err)
	}
	fg, _ := plan.Bind(g).View(g, constObjective(0), 0)
	total := 0
	const queries = 200
	for q := 0; q < queries; q++ {
		total += len(fg.Neighbors(0))
	}
	got := float64(total) / float64(queries*1000)
	if got < 1-rate-0.03 || got > 1-rate+0.03 {
		t.Fatalf("survival rate %v, want ~%v", got, 1-rate)
	}
}

func TestMsgLossRetriesRecoverLosses(t *testing.T) {
	g := star(1001)
	const rate = 0.4
	survival := func(retries int) float64 {
		plan, err := NewPlan(13, Spec{Model: "msg-loss", Rate: rate, Retries: retries})
		if err != nil {
			t.Fatal(err)
		}
		fg, _ := plan.Bind(g).View(g, constObjective(0), 0)
		total := 0
		const queries = 100
		for q := 0; q < queries; q++ {
			total += len(fg.Neighbors(0))
		}
		return float64(total) / float64(queries*1000)
	}
	// Effective unreachability is rate^(retries+1).
	oneRetry := survival(1)
	threeRetries := survival(3)
	if want := 1 - rate*rate; math.Abs(oneRetry-want) > 0.02 {
		t.Fatalf("1 retry: survival %v, want ~%v", oneRetry, want)
	}
	if want := 1 - math.Pow(rate, 4); math.Abs(threeRetries-want) > 0.02 {
		t.Fatalf("3 retries: survival %v, want ~%v", threeRetries, want)
	}
	if threeRetries <= oneRetry {
		t.Fatal("a larger retry budget must recover more losses")
	}
}

func TestCrashUniform(t *testing.T) {
	g := star(2000)
	const rate = 0.25
	plan, err := NewPlan(17, Spec{Model: "crash-uniform", Rate: rate})
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Bind(g)
	crashed := 0
	for v := 0; v < g.N(); v++ {
		if b.Crashed(v) {
			crashed++
			if b.Crashed(v) != b.Crashed(v) {
				t.Fatal("crash membership not stable")
			}
		}
	}
	frac := float64(crashed) / float64(g.N())
	if frac < rate-0.05 || frac > rate+0.05 {
		t.Fatalf("crashed fraction %v, want ~%v", frac, rate)
	}
	// The faulty view never shows a crashed neighbor, in any episode.
	for ep := 0; ep < 3; ep++ {
		fg, _ := b.View(g, constObjective(0), ep)
		for _, u := range fg.Neighbors(0) {
			if b.Crashed(int(u)) {
				t.Fatalf("episode %d: crashed vertex %d still adjacent", ep, u)
			}
		}
	}
}

func TestCrashCoreTargetsHighestWeights(t *testing.T) {
	g := star(100)
	for v := range g.weights {
		g.weights[v] = float64(v + 1) // vertex 99 is the heaviest
	}
	plan, err := NewPlan(19, Spec{Model: "crash-core", Rate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Bind(g)
	// Exactly the 10 heaviest vertices (90..99) are down.
	for v := 0; v < g.N(); v++ {
		want := v >= 90
		if b.Crashed(v) != want {
			t.Fatalf("vertex %d (weight %g): crashed = %v, want %v", v, g.Weight(v), b.Crashed(v), want)
		}
	}
}

func TestCrashCoreZeroFraction(t *testing.T) {
	g := star(50)
	plan, err := NewPlan(19, Spec{Model: "crash-core", Rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Bind(g)
	for v := 0; v < g.N(); v++ {
		if b.Crashed(v) {
			t.Fatalf("vertex %d crashed at rate 0", v)
		}
	}
	fg, _ := b.View(g, constObjective(0), 0)
	if len(fg.Neighbors(0)) != 49 {
		t.Fatal("rate-0 crash model dropped edges")
	}
}

func TestObjectiveNoise(t *testing.T) {
	g := star(100)
	for v := range g.weights {
		g.weights[v] = float64(v + 1)
	}
	plan, err := NewPlan(23, Spec{Model: "objective-noise", Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Bind(g)
	// Scores well below 1 so M_v = min{w_v, phi(v)^-1} exceeds 1 and the
	// noise exponent has something to act on.
	obj := route.Objective{Target: 7, Score: func(v int) float64 {
		if v == 7 {
			return math.Inf(1)
		}
		return 0.001 * float64(v+1)
	}}
	_, noisy := b.View(g, obj, 0)
	if !math.IsInf(noisy.Score(7), 1) {
		t.Fatal("noise must keep the target at +Inf")
	}
	changed := 0
	for v := 10; v < 100; v++ {
		s, ns := obj.Score(v), noisy.Score(v)
		if ns != s {
			changed++
		}
		if ns <= 0 || math.IsInf(ns, 0) || math.IsNaN(ns) {
			t.Fatalf("vertex %d: noisy score %v degenerate", v, ns)
		}
	}
	if changed == 0 {
		t.Fatal("noise changed no score")
	}
	// Per-plan noise: every episode sees the same miscalibration.
	_, again := b.View(g, obj, 5)
	for v := 10; v < 100; v++ {
		if noisy.Score(v) != again.Score(v) {
			t.Fatalf("vertex %d: noise differs across episodes", v)
		}
	}
}

func TestPlanLayersCompose(t *testing.T) {
	g := star(500)
	plan, err := NewPlan(29,
		Spec{Model: "crash-uniform", Rate: 0.2},
		Spec{Model: "edge-drop", Rate: 0.3},
		Spec{Model: "objective-noise", Rate: 0.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Bind(g)
	if b.Empty() {
		t.Fatal("three-layer plan reports empty")
	}
	fg, fobj := b.View(g, constObjective(0), 0)
	// Crash layer composes with the drop layer: no crashed neighbor appears,
	// and additional transient drops push survival below the crash layer's.
	for _, u := range fg.Neighbors(0) {
		if b.Crashed(int(u)) {
			t.Fatalf("crashed vertex %d visible through layered view", u)
		}
	}
	if !math.IsInf(fobj.Score(0), 1) {
		t.Fatal("layered objective lost the target maximum")
	}
	total, alive := 0, 0
	for v := 1; v < g.N(); v++ {
		if !b.Crashed(v) {
			alive++
		}
	}
	const queries = 100
	for q := 0; q < queries; q++ {
		total += len(fg.Neighbors(0))
	}
	avg := float64(total) / queries
	if avg >= float64(alive) {
		t.Fatalf("edge-drop layer inert: %v survivors vs %d alive", avg, alive)
	}
}

func TestNilAndEmptyPlans(t *testing.T) {
	g := star(10)
	var nilPlan *Plan
	b := nilPlan.Bind(g)
	if b != nil || !b.Empty() {
		t.Fatalf("nil plan bound to %+v, want nil", b)
	}
	if allocs := testing.AllocsPerRun(10, func() { nilPlan.Bind(g) }); allocs != 0 {
		t.Fatalf("binding a nil plan made %v allocations, want 0", allocs)
	}
	fg, _ := b.View(g, constObjective(0), 0)
	if fg != route.Graph(g) {
		t.Fatal("nil plan wrapped the graph")
	}
	if b.Crashed(3) {
		t.Fatal("nil plan crashed a vertex")
	}
	var nilBound *BoundPlan
	if fg, _ := nilBound.View(g, constObjective(0), 0); fg != route.Graph(g) {
		t.Fatal("nil bound plan wrapped the graph")
	}
}

// TestConcurrentEpisodesDeterministic is the heart of the determinism
// contract: many goroutines routing over per-episode views of one bound plan
// must observe exactly the fault stream a sequential replay observes. Run
// with -race.
func TestConcurrentEpisodesDeterministic(t *testing.T) {
	g := star(300)
	plan, err := NewPlan(31,
		Spec{Model: "crash-uniform", Rate: 0.1},
		Spec{Model: "edge-drop", Rate: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Bind(g)
	queries := []int{0, 0, 3, 0, 7, 0}

	const episodes = 64
	sequential := make([][][]int32, episodes)
	for ep := 0; ep < episodes; ep++ {
		sequential[ep] = collectQueries(b, g, ep, queries)
	}
	concurrent := make([][][]int32, episodes)
	var wg sync.WaitGroup
	for ep := 0; ep < episodes; ep++ {
		wg.Add(1)
		go func(ep int) {
			defer wg.Done()
			concurrent[ep] = collectQueries(b, g, ep, queries)
		}(ep)
	}
	wg.Wait()
	for ep := 0; ep < episodes; ep++ {
		if !reflect.DeepEqual(sequential[ep], concurrent[ep]) {
			t.Fatalf("episode %d: concurrent fault stream differs from sequential", ep)
		}
	}
}
