package route

import (
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// componentOf returns the vertex set of s's connected component.
func componentOf(g Graph, s int) map[int]bool {
	seen := map[int]bool{s: true}
	stack := []int{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.Neighbors(v) {
			if !seen[int(u)] {
				seen[int(u)] = true
				stack = append(stack, int(u))
			}
		}
	}
	return seen
}

// TestPatchersExhaustComponentOnFailure: when the target is unreachable,
// a correct patcher must have visited every vertex of the source component
// before giving up — this is the operational content of (P2).
func TestPatchersExhaustComponentOnFailure(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 100; trial++ {
		// Random connected component of size k plus an isolated target.
		k := 3 + rng.IntN(25)
		n := k + 1
		var edges [][2]int
		for v := 1; v < k; v++ {
			edges = append(edges, [2]int{rng.IntN(v), v})
		}
		for i := 0; i < k; i++ {
			u, v := rng.IntN(k), rng.IntN(k)
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		g := newTestGraph(n, edges)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		obj := scoreObjective(scores, k) // target = the isolated vertex
		s := rng.IntN(k)
		comp := componentOf(g, s)

		for name, routeFn := range map[string]func() Result{
			"phidfs":  func() Result { return Route(PhiDFS{}, g, obj, s) },
			"history": func() Result { return Route(HistoryPatch{}, g, obj, s) },
		} {
			res := routeFn()
			if res.Success {
				t.Fatalf("trial %d %s: succeeded to unreachable target", trial, name)
			}
			if res.Truncated {
				t.Fatalf("trial %d %s: truncated instead of exhausting", trial, name)
			}
			visited := map[int]bool{}
			for _, v := range res.Path {
				visited[v] = true
			}
			for v := range comp {
				if !visited[v] {
					t.Fatalf("trial %d %s: component vertex %d never visited (component %d vertices, visited %d)",
						trial, name, v, len(comp), len(visited))
				}
			}
		}
	}
}

// TestPhiDFSAdversarialTopologies runs Algorithm 2 on structured graphs
// with adversarial objective orderings.
func TestPhiDFSAdversarialTopologies(t *testing.T) {
	rng := xrand.New(37)
	build := map[string]func(n int) [][2]int{
		"path": func(n int) [][2]int {
			var e [][2]int
			for v := 1; v < n; v++ {
				e = append(e, [2]int{v - 1, v})
			}
			return e
		},
		"cycle": func(n int) [][2]int {
			var e [][2]int
			for v := 1; v < n; v++ {
				e = append(e, [2]int{v - 1, v})
			}
			return append(e, [2]int{n - 1, 0})
		},
		"star": func(n int) [][2]int {
			var e [][2]int
			for v := 1; v < n; v++ {
				e = append(e, [2]int{0, v})
			}
			return e
		},
		"clique": func(n int) [][2]int {
			var e [][2]int
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					e = append(e, [2]int{u, v})
				}
			}
			return e
		},
	}
	for name, mk := range build {
		for trial := 0; trial < 25; trial++ {
			n := 4 + rng.IntN(12)
			g := newTestGraph(n, mk(n))
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = rng.Float64()
			}
			s, tgt := rng.IntN(n), rng.IntN(n)
			obj := scoreObjective(scores, tgt)
			res := Route(PhiDFS{}, g, obj, s)
			if !res.Success {
				t.Fatalf("%s trial %d: failed on connected graph (%+v)", name, trial, res)
			}
			checkPathValid(t, g, res)
		}
	}
}

// TestPhiDFSWorstCaseDescendingPath: scores strictly decreasing along a
// path away from the target forces maximal backtracking; the run must stay
// within the polynomial move budget and still succeed.
func TestPhiDFSWorstCaseDescendingPath(t *testing.T) {
	const n = 50
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	g := newTestGraph(n, edges)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(n - i) // descending toward the target end
	}
	obj := scoreObjective(scores, n-1)
	res := Route(PhiDFS{}, g, obj, 0)
	if !res.Success {
		t.Fatalf("failed: %+v", res)
	}
	if res.Moves > 10*n*n {
		t.Fatalf("quadratic blowup: %d moves on a path of %d", res.Moves, n)
	}
}

// TestHistoryPatchMoveAccounting: jumping to a frontier edge must pay for
// the walk through visited territory, so moves >= unique-1 always, and on a
// star the walk back through the hub is visible.
func TestHistoryPatchMoveAccounting(t *testing.T) {
	// Star with a tail: hub 0, leaves 1..4, target 5 hanging off leaf 4.
	// Greedy jumps to the best leaf and strands; the patcher must pop the
	// frontier in score order, walking back through the hub each time.
	g := newTestGraph(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}})
	obj := scoreObjective([]float64{1, 5, 4, 3, 2, 0}, 5)
	res := Route(HistoryPatch{}, g, obj, 0)
	if !res.Success {
		t.Fatalf("%+v", res)
	}
	if res.Moves < res.Unique-1 {
		t.Fatalf("moves %d below spanning-walk floor for %d vertices", res.Moves, res.Unique)
	}
	// 0->1 (greedy), 1->0->2, 2->0->3, 3->0->4 (frontier pops with hub
	// walks), then 4->5 (target is 4's best neighbor): 8 moves.
	if res.Moves != 8 {
		t.Fatalf("moves = %d, want 8 (path %v)", res.Moves, res.Path)
	}
}

// TestHistoryKeepsNoPerVertexState: history's memory travels in the message
// (TestHistoryProgramStateless of the deleted internal/dist). What an episode
// allocates must therefore not grow with the graph around it — and since the
// Scratch keeps every protocol's vertex slots, neither does Phi-DFS's node
// memory once the caller's Scratch has grown. The control routes Phi-DFS on
// a fresh Scratch per episode, which pays for every vertex.
func TestHistoryKeepsNoPerVertexState(t *testing.T) {
	const pad = 100000
	bytesPerEpisode := func(p Protocol, n int, fresh bool) uint64 {
		// The star with a tail of TestHistoryPatchMoveAccounting, among
		// n-6 isolated vertices.
		g := newTestGraph(n, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}})
		obj := scoreObjective(append([]float64{1, 5, 4, 3, 2, 0}, make([]float64, n-6)...), 5)
		sc := new(Scratch)
		var out Result
		p.RouteInto(g, obj, 0, sc, &out) // grow the caller's buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const episodes = 8
		for i := 0; i < episodes; i++ {
			if fresh {
				sc = new(Scratch)
			}
			if p.RouteInto(g, obj, 0, sc, &out); !out.Success || out.Unique != 6 {
				t.Fatalf("%s: %+v", p.Name(), out)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / episodes
	}
	// Under a bit per added vertex: the runtime's own allocations put a few
	// hundred bytes of noise on the reading.
	for _, p := range []Protocol{HistoryPatch{}, PhiDFS{}} {
		if small, big := bytesPerEpisode(p, 6, false), bytesPerEpisode(p, 6+pad, false); big > small+pad/8 {
			t.Fatalf("%s allocates %d bytes an episode on 6 vertices and %d among %d more: state per vertex", p.Name(), small, big, pad)
		}
	}
	if small, big := bytesPerEpisode(PhiDFS{}, 6, true), bytesPerEpisode(PhiDFS{}, 6+pad, true); big < small+8*pad {
		t.Fatalf("control: Phi-DFS on a fresh Scratch allocates %d and %d bytes an episode; the measure does not see node memory", small, big)
	}
}

// TestGravityPressureEscapesLocalOptimum on a dumbbell: two cliques joined
// by a low-score bridge. Greedy dies at the first clique's top; gravity-
// pressure must pump through the bridge.
func TestGravityPressureEscapesLocalOptimum(t *testing.T) {
	// Vertices 0-3: clique A (source side), 4: bridge, 5-8: clique B with
	// the target.
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{3, 4}, {4, 5},
		{5, 6}, {5, 7}, {5, 8}, {6, 7}, {6, 8}, {7, 8},
	}
	g := newTestGraph(9, edges)
	scores := []float64{5, 6, 7, 8, 1, 2, 3, 4, 0}
	obj := scoreObjective(scores, 8)
	gres := Greedy(g, obj, 0)
	if gres.Success {
		t.Fatal("greedy should die in clique A")
	}
	pres := Route(GravityPressure{}, g, obj, 0)
	if !pres.Success {
		t.Fatalf("gravity-pressure failed: %+v", pres)
	}
	checkPathValid(t, g, pres)
}
