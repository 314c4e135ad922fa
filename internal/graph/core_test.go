package graph_test

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/girg"
	"repro/internal/graph"
)

// checkCore asserts Core's contract on g: the result is a clique, it is a
// prefix of the (weight descending, id ascending) order, the prefix is
// maximal, and a second call returns the same vertices.
func checkCore(t *testing.T, g *graph.Graph) []int32 {
	t.Helper()
	core := graph.Core(g)
	for i, u := range core {
		for _, v := range core[:i] {
			if !g.HasEdge(int(u), int(v)) {
				t.Fatalf("core members %d and %d are not adjacent", v, u)
			}
		}
	}
	// before reports whether u precedes v in the order.
	before := func(u, v int32) bool {
		if wu, wv := g.Weight(int(u)), g.Weight(int(v)); wu != wv {
			return wu > wv
		}
		return u < v
	}
	in := make([]bool, g.N())
	for i, v := range core {
		in[v] = true
		if i > 0 && !before(core[i-1], v) {
			t.Fatalf("core %v is not in (weight descending, id ascending) order at %d", core, i)
		}
	}
	next := int32(-1)
	for v := int32(0); int(v) < g.N(); v++ {
		if in[v] {
			continue
		}
		if len(core) > 0 && before(v, core[len(core)-1]) {
			t.Fatalf("vertex %d precedes core member %d but is not in the core", v, core[len(core)-1])
		}
		if next < 0 || before(v, next) {
			next = v
		}
	}
	if next >= 0 && len(core) > 0 {
		missed := false
		for _, u := range core {
			missed = missed || !g.HasEdge(int(u), int(next))
		}
		if !missed {
			t.Fatalf("next vertex %d is adjacent to all of the core %v: the prefix is not maximal", next, core)
		}
	}
	if again := graph.Core(g); !reflect.DeepEqual(again, core) {
		t.Fatalf("Core changed between calls: %v then %v", core, again)
	}
	return core
}

// weighted builds an n-vertex graph with the given weights and edges.
func weighted(t *testing.T, weights []float64, edges [][2]int) *graph.Graph {
	t.Helper()
	b, err := graph.NewBuilder(len(weights), nil, weights, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Finish()
}

// TestCoreSmall pins the rule on graphs small enough to read: ties break by
// id, the prefix stops at the first vertex that misses a member, and the
// degenerate graphs are handled.
func TestCoreSmall(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights []float64
		edges   [][2]int
		want    []int32
	}{
		// Order 1, 2, 3, 0: the two weight-5 vertices by id.
		{"ties by id", []float64{1, 5, 5, 3}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, []int32{1, 2, 3, 0}},
		// Vertex 3 misses 2, so 0 is not reached either.
		{"stops at a miss", []float64{1, 5, 5, 3}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}, []int32{1, 2}},
		// The heaviest vertex alone when its successor is not a neighbour.
		{"lone hub", []float64{2, 9, 4}, [][2]int{{0, 2}}, []int32{1}},
		{"one vertex", []float64{3}, nil, []int32{0}},
		{"no vertices", []float64{}, nil, []int32{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := checkCore(t, weighted(t, tc.weights, tc.edges))
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Core = %v, want %v", got, tc.want)
			}
		})
	}

	// No weights, no hubs: a path graph ordered by id would otherwise give
	// {0, 1}.
	b, err := graph.NewBuilder(3, nil, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	if got := graph.Core(b.Finish()); len(got) != 0 {
		t.Fatalf("Core of an unweighted graph = %v, want empty", got)
	}
}

// TestWeightOrder pins the order itself: weight descending with ties by id,
// the identity on an unweighted graph, and one sort per graph — a second
// call returns the memoized slice.
func TestWeightOrder(t *testing.T) {
	g := weighted(t, []float64{1, 5, 5, 3, 1}, nil)
	if got, want := g.WeightOrder(), []int32{1, 2, 3, 0, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("WeightOrder = %v, want %v", got, want)
	}
	if &g.WeightOrder()[0] != &g.WeightOrder()[0] {
		t.Fatal("WeightOrder sorted again on the second call")
	}
	b, err := graph.NewBuilder(3, nil, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Finish().WeightOrder(), []int32{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unweighted WeightOrder = %v, want the identity %v", got, want)
	}
}

// TestCoreFixtures pins the core on the benchmark's two GIRG fixtures: the
// cluster-hop graph (n = 2 000, seed 11) and the n = 20 000 one (seed 5).
func TestCoreFixtures(t *testing.T) {
	for _, f := range []struct {
		n    float64
		seed uint64
		fp   uint64
		size int
	}{
		{2000, 11, 0xb611b16907e3bf27, 18},
		{20000, 5, 0x23c930abf0935648, 43},
	} {
		p := girg.DefaultParams(f.n)
		p.FixedN = true
		g, err := girg.Generate(p, f.seed, girg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g.Fingerprint() != f.fp {
			t.Fatalf("GIRG(n=%g, seed=%d) is %016x, the benchmark pins %016x", f.n, f.seed, g.Fingerprint(), f.fp)
		}
		core := checkCore(t, g)
		if len(core) != f.size {
			t.Errorf("GIRG(n=%g, seed=%d): core of %d vertices, want %d", f.n, f.seed, len(core), f.size)
		}
		// crash-core crashes a prefix of the same order: at the rate that
		// crashes len(core) vertices, it crashes exactly the core.
		plan, err := faults.NewPlan(1, faults.Spec{Model: "crash-core", Rate: (float64(len(core)) + 0.5) / float64(g.N())})
		if err != nil {
			t.Fatal(err)
		}
		crashed := plan.Bind(g)
		in := make([]bool, g.N())
		for _, v := range core {
			in[v] = true
		}
		for v := range in {
			if crashed.Crashed(v) != in[v] {
				t.Fatalf("GIRG(n=%g, seed=%d): vertex %d in core = %v, crashed by crash-core = %v", f.n, f.seed, v, in[v], !in[v])
			}
		}
	}
}
