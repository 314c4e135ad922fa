package graph

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/torus"
	"repro/internal/xrand"
)

// buildGraph constructs a plain graph (no geometry) from an edge list.
func buildGraph(t testing.TB, n int, edges [][2]int) *Graph {
	t.Helper()
	b, err := NewBuilder(n, nil, nil, float64(max(n, 1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Finish()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBuilderValidation(t *testing.T) {
	s := torus.MustSpace(2)
	pos := torus.NewPositions(s, 3)
	if _, err := NewBuilder(4, pos, nil, 4, 1); err == nil {
		t.Error("mismatched positions accepted")
	}
	if _, err := NewBuilder(3, pos, make([]float64, 2), 3, 1); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := NewBuilder(3, nil, nil, 0, 1); err == nil {
		t.Error("zero intensity accepted")
	}
	if _, err := NewBuilder(3, nil, nil, 3, 0); err == nil {
		t.Error("zero wmin accepted")
	}
}

func TestAddEdgePanics(t *testing.T) {
	b, _ := NewBuilder(3, nil, nil, 3, 1)
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { b.AddEdge(1, 1) })
	mustPanic(func() { b.AddEdge(-1, 0) })
	mustPanic(func() { b.AddEdge(0, 3) })
}

// TestCheckEdgeCount pins the two boundary cases of the int32 offsets
// check AddEdge makes before it stores an edge.
func TestCheckEdgeCount(t *testing.T) {
	checkEdgeCount(math.MaxInt32 / 2) // the last count whose offsets fit
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "int32 offsets") {
			t.Errorf("panic %q does not name the int32 offsets", msg)
		}
	}()
	checkEdgeCount(math.MaxInt32/2 + 1)
}

// TestBuilderPackedStore checks the packed edge store at every id-width
// boundary: edges added in random order, with duplicates and reversed
// duplicates, finish into the CSR a sort-and-dedup reference builds, the
// ids at the top of each width survive, and an edge list long enough to
// fill several chunks does too. The chunk codec round-trips the smallest
// and largest id of every width, a second Finish panics, and two builders'
// graphs share no backing array.
func TestBuilderPackedStore(t *testing.T) {
	r := xrand.New(43)
	for _, tc := range []struct{ n, edges int }{
		{1, 0}, {2, 3}, {255, 12}, {256, 12}, {257, 12},
		{65535, 12}, {65536, 12}, {65537, 12}, {65537, 3*chunkEdges + 5},
	} {
		n := tc.n
		var edges [][2]int
		if n > 1 {
			edges = append(edges, [2]int{0, n - 1}, [2]int{n - 1, n - 2})
		}
		for len(edges) < tc.edges {
			if u, v := r.IntN(n), r.IntN(n); u != v {
				edges = append(edges, [2]int{u, v})
				switch r.IntN(4) {
				case 0:
					edges = append(edges, [2]int{u, v})
				case 1:
					edges = append(edges, [2]int{v, u})
				}
			}
		}
		for i := len(edges) - 1; i > 0; i-- {
			j := r.IntN(i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
		b, err := NewBuilder(n, nil, nil, float64(n), 1)
		if err != nil {
			t.Fatal(err)
		}
		lists := make([][]int32, n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
			lists[e[0]] = append(lists[e[0]], int32(e[1]))
			lists[e[1]] = append(lists[e[1]], int32(e[0]))
		}
		wantOff, wantAdj := []int32{0}, []int32{}
		for _, l := range lists {
			slices.Sort(l)
			wantAdj = append(wantAdj, slices.Compact(l)...)
			wantOff = append(wantOff, int32(len(wantAdj)))
		}
		off, adj := b.Finish().CSR()
		if !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) {
			t.Fatalf("n=%d, %d edges: CSR differs from the sort-and-dedup reference", n, len(edges))
		}
	}

	for w := 1; w <= 4; w++ {
		top := uint32(1<<(8*w) - 1)
		for _, x := range []uint32{0, top, top / 3} {
			p := putID(nil, x, w)
			if len(p) != w || getID(p, w) != x {
				t.Fatalf("width %d: %d packed to % x, read back %d", w, x, p, getID(p, w))
			}
		}
	}
	for n, w := range map[int]int{0: 1, 1: 1, 256: 1, 257: 2, 65536: 2, 65537: 3, 1 << 24: 3, 1<<24 + 1: 4, math.MaxInt32: 4} {
		if got := idWidth(n); got != w {
			t.Errorf("idWidth(%d) = %d, want %d", n, got, w)
		}
	}

	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	g1, g2 := buildGraph(t, 3, edges), buildGraph(t, 3, edges)
	off2, adj2 := g2.CSR()
	for i := range adj2 {
		adj2[i] = -1
	}
	for i := range off2 {
		off2[i] = -1
	}
	if off, adj := g1.CSR(); !slices.Equal(off, []int32{0, 2, 4, 6}) || !slices.Equal(adj, []int32{1, 2, 0, 2, 0, 1}) {
		t.Fatalf("overwriting one builder's graph changed the other's: %v %v", off, adj)
	}

	b, err := NewBuilder(3, nil, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.AddEdge(0, 1)
	b.Finish()
	defer func() {
		if recover() == nil {
			t.Error("second Finish did not panic")
		}
	}()
	b.Finish()
}

// TestFinishMatchesReferenceSort compares Finish, which sorts each list
// with slices.Sort, against the sort.Slice it replaced, on random
// multigraphs with repeated and reversed edges.
func TestFinishMatchesReferenceSort(t *testing.T) {
	r := xrand.New(31)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.IntN(60)
		b, err := NewBuilder(n, nil, nil, float64(n), 1)
		if err != nil {
			t.Fatal(err)
		}
		lists := make([][]int32, n)
		for e := r.IntN(6 * n); e > 0; e-- {
			u, v := r.IntN(n), r.IntN(n)
			if u == v {
				continue
			}
			for dup := 1 + r.IntN(3); dup > 0; dup-- {
				b.AddEdge(u, v)
				lists[u], lists[v] = append(lists[u], int32(v)), append(lists[v], int32(u))
				u, v = v, u
			}
		}
		g := b.Finish()
		for v, list := range lists {
			sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
			if want := slices.Compact(list); !slices.Equal(g.Neighbors(v), want) {
				t.Fatalf("trial %d vertex %d: adjacency %v, want %v", trial, v, g.Neighbors(v), want)
			}
		}
	}
}

func TestBasicAdjacency(t *testing.T) {
	g := buildGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {3, 1}})
	if g.N() != 5 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Degree(1) != 3 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
	if g.Degree(4) != 0 {
		t.Fatalf("Degree(4) = %d", g.Degree(4))
	}
	want := []int32{0, 2, 3}
	got := g.Neighbors(1)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(1) = %v, want %v", got, want)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) false")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) true")
	}
}

func TestDuplicateEdgesDeduped(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 0}, {0, 1}, {1, 2}})
	if g.M() != 2 {
		t.Fatalf("M = %d after dedup, want 2", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatalf("degrees %d %d", g.Degree(0), g.Degree(1))
	}
}

func TestWeightDefaults(t *testing.T) {
	g := buildGraph(t, 2, nil)
	if g.Weight(0) != 1 {
		t.Fatalf("default weight %v", g.Weight(0))
	}
	if g.Pos(0) != nil {
		t.Fatal("expected nil position")
	}
}

func TestBFSPath(t *testing.T) {
	// 0-1-2-3 path plus isolated 4.
	g := buildGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	dist := BFS(g, 0)
	want := []int32{0, 1, 2, 3, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("BFS dist = %v, want %v", dist, want)
		}
	}
}

func TestBFSDistance(t *testing.T) {
	g := buildGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 3}})
	if d := BFSDistance(g, 0, 3); d != 2 {
		t.Fatalf("BFSDistance(0,3) = %d, want 2", d)
	}
	if d := BFSDistance(g, 0, 0); d != 0 {
		t.Fatalf("BFSDistance(0,0) = %d", d)
	}
	if d := BFSDistance(g, 0, 5); d != -1 {
		t.Fatalf("BFSDistance disconnected = %d", d)
	}
}

func TestBFSAgainstFloydWarshall(t *testing.T) {
	// Property: BFS distances agree with Floyd–Warshall on random graphs.
	rng := xrand.New(101)
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.IntN(15)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(0.2) {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := buildGraph(t, n, edges)
		const inf = 1 << 20
		fw := make([][]int, n)
		for i := range fw {
			fw[i] = make([]int, n)
			for j := range fw[i] {
				if i != j {
					fw[i][j] = inf
				}
			}
		}
		for _, e := range edges {
			fw[e[0]][e[1]] = 1
			fw[e[1]][e[0]] = 1
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if fw[i][k]+fw[k][j] < fw[i][j] {
						fw[i][j] = fw[i][k] + fw[k][j]
					}
				}
			}
		}
		for s := 0; s < n; s++ {
			dist := BFS(g, s)
			for v := 0; v < n; v++ {
				want := fw[s][v]
				if want >= inf {
					want = -1
				}
				if int(dist[v]) != want {
					t.Fatalf("trial %d: BFS(%d)[%d] = %d, want %d", trial, s, v, dist[v], want)
				}
			}
		}
	}
}

func TestComponents(t *testing.T) {
	g := buildGraph(t, 7, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	labels, sizes, giant := Components(g)
	if len(sizes) != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("component count %d, want 4", len(sizes))
	}
	if sizes[giant] != 3 {
		t.Fatalf("giant size %d, want 3", sizes[giant])
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("vertices 0,1,2 not in one component")
	}
	if labels[0] == labels[3] {
		t.Error("vertices 0 and 3 share a component")
	}
	gc := GiantComponent(g)
	if len(gc) != 3 || gc[0] != 0 || gc[1] != 1 || gc[2] != 2 {
		t.Fatalf("GiantComponent = %v", gc)
	}
}

// TestGiantOfEmptyGraph: a graph with no vertex has an empty giant
// component, memoized like any other, instead of a panic.
func TestGiantOfEmptyGraph(t *testing.T) {
	g := buildGraph(t, 0, nil)
	if gc := GiantComponent(g); len(gc) != 0 {
		t.Fatalf("GiantComponent of the empty graph = %v", gc)
	}
	if gc := g.Giant(); len(gc) != 0 {
		t.Fatalf("Giant of the empty graph = %v", gc)
	}
}

// TestComponentsMatchReachability checks Components against BFS: two
// vertices share a label exactly when one reaches the other.
func TestComponentsMatchReachability(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.IntN(30)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(0.1) {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := buildGraph(t, n, edges)
		labels, sizes, _ := Components(g)
		for u := 0; u < n; u++ {
			dist := BFS(g, u)
			reached := 0
			for v := 0; v < n; v++ {
				if dist[v] >= 0 {
					reached++
				}
				if (labels[u] == labels[v]) != (dist[v] >= 0) {
					t.Fatalf("connectivity disagreement for %d,%d", u, v)
				}
			}
			if sizes[labels[u]] != reached {
				t.Fatalf("component of %d has size %d, BFS reaches %d", u, sizes[labels[u]], reached)
			}
		}
	}
}

func TestAverageDegree(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {2, 3}})
	if got := AverageDegree(g); got != 1 {
		t.Fatalf("AverageDegree = %v", got)
	}
}

func TestClusteringTriangle(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if c := LocalClustering(g, 0); c != 1 {
		t.Fatalf("triangle vertex clustering %v", c)
	}
	if c := LocalClustering(g, 2); math.Abs(c-1.0/3) > 1e-12 {
		t.Fatalf("clustering of vertex 2: %v", c)
	}
	if c := LocalClustering(g, 3); c != 0 {
		t.Fatalf("degree-1 vertex clustering %v", c)
	}
}

func TestMeanClusteringExactVsSampled(t *testing.T) {
	rng := xrand.New(9)
	n := 60
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bernoulli(0.15) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	g := buildGraph(t, n, edges)
	exact := MeanClustering(g, 0, nil)
	sampled := MeanClustering(g, 5000, xrand.New(11))
	if math.Abs(exact-sampled) > 0.05 {
		t.Fatalf("sampled clustering %v far from exact %v", sampled, exact)
	}
}

func TestSummarize(t *testing.T) {
	g := buildGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	s := Summarize(g, 0, nil)
	if s.N != 5 || s.M != 3 || s.MaxDegree != 2 || s.Isolated != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.Components != 3 || math.Abs(s.GiantFraction-0.6) > 1e-12 {
		t.Fatalf("summary %+v", s)
	}
}

func TestMeanGiantDistancePath(t *testing.T) {
	// Path of 5 vertices: distances from an endpoint average (1+2+3+4)/4.
	g := buildGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	rng := xrand.New(13)
	got := MeanGiantDistance(g, 50, rng)
	// All-pairs mean distance on P5 is 2.0.
	if math.Abs(got-2.0) > 0.3 {
		t.Fatalf("mean giant distance %v, want ~2", got)
	}
}

func TestSampleGiantDistancesEmpty(t *testing.T) {
	g := buildGraph(t, 3, nil) // all isolated
	if ds := SampleGiantDistances(g, 5, xrand.New(1)); ds != nil {
		t.Fatalf("expected nil distances, got %v", ds)
	}
}

func TestPowerLawExponentFit(t *testing.T) {
	// Build a synthetic degree sequence ~ k^-2.5 via a configuration-like
	// star construction: attach each vertex v to deg(v) fresh leaves.
	rng := xrand.New(17)
	const hubs = 20000
	degs := make([]int, hubs)
	total := 0
	for i := range degs {
		degs[i] = int(rng.PowerLaw(2, 2.5))
		total += degs[i]
	}
	n := hubs + total
	b, _ := NewBuilder(n, nil, nil, float64(n), 1)
	leaf := hubs
	for i, d := range degs {
		for k := 0; k < d; k++ {
			b.AddEdge(i, leaf)
			leaf++
		}
	}
	g := b.Finish()
	// Fit in the tail (kmin=8) where the discreteness of floor(w) no longer
	// biases the continuous MLE noticeably.
	beta := PowerLawExponentFit(g, 8)
	if math.IsNaN(beta) || math.Abs(beta-2.5) > 0.25 {
		t.Fatalf("fitted exponent %v, want ~2.5", beta)
	}
}

func TestPowerLawExponentFitDegenerate(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}})
	if !math.IsNaN(PowerLawExponentFit(g, 5)) {
		t.Fatal("expected NaN for insufficient data")
	}
}

func TestDegreeWeightCorrelation(t *testing.T) {
	// Two weight buckets; degree proportional to weight by construction.
	weights := []float64{1, 1, 4, 4, 1, 1, 1, 1}
	b, _ := NewBuilder(8, nil, weights, 8, 1)
	// weight-4 vertices get degree 4 each, weight-1 vertices degree 1-2.
	b.AddEdge(2, 4)
	b.AddEdge(2, 5)
	b.AddEdge(2, 6)
	b.AddEdge(2, 7)
	b.AddEdge(3, 4)
	b.AddEdge(3, 5)
	b.AddEdge(3, 6)
	b.AddEdge(3, 7)
	b.AddEdge(0, 1)
	g := b.Finish()
	mw, md := DegreeWeightCorrelation(g)
	if len(mw) != 3 { // buckets 2^0, 2^1(empty->skipped), 2^2: expect 2 non-empty
		// bucket for w=1 -> index 0; w=4 -> index 2; index 1 empty and skipped.
		if len(mw) != 2 {
			t.Fatalf("bucket count %d: %v %v", len(mw), mw, md)
		}
	}
	if md[len(md)-1] <= md[0] {
		t.Fatalf("degree should grow with weight: %v", md)
	}
}

func TestGraphGeometryAccessors(t *testing.T) {
	s := torus.MustSpace(2)
	pos := torus.NewPositions(s, 2)
	pos.Set(0, []float64{0.1, 0.1})
	pos.Set(1, []float64{0.3, 0.1})
	weights := []float64{1.5, 2.5}
	b, err := NewBuilder(2, pos, weights, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.AddEdge(0, 1)
	g := b.Finish()
	if g.Weight(1) != 2.5 {
		t.Fatalf("Weight(1) = %v", g.Weight(1))
	}
	if math.Abs(g.Dist(0, 1)-0.2) > 1e-12 {
		t.Fatalf("Dist = %v", g.Dist(0, 1))
	}
	if g.Space().Dim() != 2 {
		t.Fatal("wrong space")
	}
	if g.Intensity() != 2 || g.WMin() != 1 {
		t.Fatal("model params lost")
	}
}

func BenchmarkBFS(b *testing.B) {
	rng := xrand.New(1)
	n := 10000
	builder, _ := NewBuilder(n, nil, nil, float64(n), 1)
	for i := 0; i < 3*n; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			builder.AddEdge(u, v)
		}
	}
	g := builder.Finish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BFS(g, i%n)
	}
}
