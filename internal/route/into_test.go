package route

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/torus"
	"repro/internal/xrand"
)

// sameEpisode asserts two Results describe the identical episode.
func sameEpisode(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.Success != got.Success || want.Moves != got.Moves ||
		want.Unique != got.Unique || want.Stuck != got.Stuck ||
		want.Truncated != got.Truncated || want.Failure != got.Failure ||
		!reflect.DeepEqual(want.Path, got.Path) {
		t.Fatalf("%s: episodes differ:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// TestRouteIntoMatchesRouteAllProtocols drives every registered built-in
// through Route (fresh Result, no scratch) and through RouteInto on one
// reused Scratch and Result on random GIRG pairs and demands bit-identical
// episodes, to expose stale-state bugs.
func TestRouteIntoMatchesRouteAllProtocols(t *testing.T) {
	g := girgForRouting(t, 3000, 11)
	rng := xrand.New(99)
	for _, name := range Registered() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		var out Result
		for i := 0; i < 25; i++ {
			s := rng.IntN(g.N())
			tgt := rng.IntN(g.N())
			obj := NewStandard(g, tgt)
			want := Route(p, g, obj, s)
			// Fresh objective: memoizing objectives (lookahead) must not
			// leak one episode's cache into the next comparison.
			p.RouteInto(g, NewStandard(g, tgt), s, &sc, &out)
			sameEpisode(t, name, want, out)
		}
	}
}

// stitchWalk runs greedyWalk to termination. Without masks that is one
// call. With masks (shard i owns masks[i]; vertex v lives on shard
// v % len(masks)) it chains segments the way the serving layer's hop
// forwarding does, handing each segment what is left of the scan budget, so
// the stitched episode must equal the single-node one — budget cut included.
func stitchWalk(t *testing.T, g *graph.Graph, o *graph.Overlay, masks [][]bool, tgt, s int, b Budget) Result {
	t.Helper()
	var seg, merged Result
	if masks == nil {
		if exit := greedyWalk(g, o, tgt, s, nil, b, &merged); exit != -1 {
			t.Fatalf("unmasked walk exited at %d", exit)
		}
		return merged
	}
	merged.reset(s)
	for cur := s; ; {
		sb := b
		if b.MaxScans > 0 {
			// One scan per move so far; with none left the single-node walk
			// would cut on its next scan.
			if sb.MaxScans = b.MaxScans - merged.Moves; sb.MaxScans <= 0 {
				merged.cutDeadline(s)
				return merged
			}
		}
		exit := greedyWalk(g, o, tgt, cur, masks[cur%len(masks)], sb, &seg)
		if exit < 0 && seg.Failure == FailDeadline {
			merged.cutDeadline(s)
			return merged
		}
		for _, v := range seg.Path[1:] {
			merged.step(v)
		}
		merged.Unique = len(merged.Path)
		if exit < 0 {
			merged.Success, merged.Stuck, merged.Failure = seg.Success, seg.Stuck, seg.Failure
			return merged
		}
		if exit == tgt || masks[cur%len(masks)][exit] {
			t.Fatalf("segment from %d exited at %d (target %d)", cur, exit, tgt)
		}
		if merged.Moves > len(masks[0]) {
			t.Fatal("stitching did not terminate")
		}
		cur = exit
	}
}

// TestGreedyCSRMatchesInterfaceGreedy is the core equivalence of the fast
// path, over every configuration the one walk runs in: immutable graph or
// live overlay, whole or stitched across two shard masks. Each must produce
// episodes bit-identical to Greedy under NewStandard on the (materialized)
// graph — same paths, same dead-ends, same tie-breaks — and a scan budget or
// an expired deadline must cut to the engine's source-only FailDeadline
// shape on exactly the scan the interface path's accounting predicts.
//
// The graphs cover every scoring route of the scan: the default GIRG (the
// dim-2 kernel), dim 1 and dim 3 (the any-dimension kernel), the L2 norm
// (Space.DistPow), no weights, and a sparse GIRG on which delivered paths
// average at least four hops — the dense fixtures have a vertex adjacent to
// most of the graph, so theirs are two, and non-final scans and paths that
// climb the weight layers would otherwise go uncompared.
func TestGreedyCSRMatchesInterfaceGreedy(t *testing.T) {
	girgWith := func(n float64, seed uint64, edit func(*girg.Params)) *graph.Graph {
		p := girg.DefaultParams(n)
		p.FixedN = true
		edit(&p)
		g, err := girg.Generate(p, seed, girg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	weighted := girgForRouting(t, 2000, 17)
	ub, err := graph.NewBuilder(weighted.N(), weighted.Positions(), nil, weighted.Intensity(), weighted.WMin())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < weighted.N(); v++ {
		for _, u := range weighted.Neighbors(v) {
			if int(u) > v {
				ub.AddEdge(v, int(u))
			}
		}
	}
	for _, gc := range []struct {
		prefix  string // of the subtest names; the default GIRG keeps the bare ones
		base    *graph.Graph
		minHops float64 // lower bound on the mean delivered path, 0 = none
	}{
		{"", weighted, 0},
		{"dim1/", girgWith(1500, 3, func(p *girg.Params) { p.Dim = 1 }), 0},
		{"dim3/", girgWith(1500, 4, func(p *girg.Params) { p.Dim = 3 }), 0},
		{"l2/", girgWith(1500, 5, func(p *girg.Params) { p.Norm = torus.L2Norm }), 0},
		{"unweighted/", ub.Finish(), 0},
		{"sparse/", girgWith(6000, 6, func(p *girg.Params) { p.Lambda = 0.005 }), 4},
	} {
		base := gc.base
		live := churnOverlay(t, base, 40, 7)
		mat, err := live.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		masks := [][]bool{make([]bool, live.N()), make([]bool, live.N())}
		for v := 0; v < live.N(); v++ {
			masks[v%2][v] = true
		}
		for _, c := range []struct {
			name  string
			o     *graph.Overlay
			masks [][]bool
			ref   *graph.Graph
		}{
			{"immutable", nil, nil, base},
			{"immutable+mask", nil, masks, base},
			{"overlay", live, nil, mat},
			{"overlay+mask", live, masks, mat},
		} {
			t.Run(gc.prefix+c.name, func(t *testing.T) {
				rng := xrand.New(41)
				expired := Budget{Deadline: time.Now().Add(-time.Second)}
				delivered, hops := 0, 0
				for i := 0; i < 120; i++ {
					s, tgt := rng.IntN(c.ref.N()), rng.IntN(c.ref.N())
					want := Greedy(c.ref, NewStandard(c.ref, tgt), s)
					sameEpisode(t, "unbudgeted", want, stitchWalk(t, base, c.o, c.masks, tgt, s, Budget{}))
					scans := len(want.Path) // one per path vertex, the target excepted
					if want.Success {
						scans--
						delivered++
						hops += want.Moves
					}
					cut := Result{Path: []int{s}, Unique: 1, Stuck: -1, Failure: FailDeadline}
					for _, limit := range []int{1, 2} {
						exp := want
						if scans > limit {
							exp = cut
						}
						sameEpisode(t, "scan budget", exp, stitchWalk(t, base, c.o, c.masks, tgt, s, Budget{MaxScans: limit}))
					}
					if s != tgt {
						sameEpisode(t, "expired deadline", cut, stitchWalk(t, base, c.o, c.masks, tgt, s, expired))
					}
				}
				if mean := float64(hops) / float64(delivered); delivered < 20 || mean < gc.minHops {
					t.Fatalf("%d of 120 episodes delivered over %.2f hops on average, want at least 20 and %.0f hops",
						delivered, mean, gc.minHops)
				}
			})
		}
	}
}

// TestGreedyCSRBudgetMatchesEngineCut pins the budget semantics: exceeding
// MaxScans (or the deadline) must yield the engine's budget-cut shape — a
// source-only FailDeadline episode — and the scan count at which the cut
// fires must match the per-path-vertex accounting of the engine's
// budget-wrapped graph (one scan per Neighbors call, cut when count exceeds
// the cap).
func TestGreedyCSRBudgetMatchesEngineCut(t *testing.T) {
	g := girgForRouting(t, 2000, 23)
	rng := xrand.New(5)
	var sc Scratch
	var out Result
	cut := Result{Path: []int{0}, Unique: 1, Stuck: -1, Failure: FailDeadline}
	for i := 0; i < 200; i++ {
		s := rng.IntN(g.N())
		tgt := rng.IntN(g.N())
		full := Greedy(g, NewStandard(g, tgt), s)
		scans := len(full.Path) // greedy scans each path vertex except the target...
		if full.Success {
			scans--
		}
		// An exactly-sufficient budget completes the episode.
		GreedyCSR(g, tgt, s, Budget{MaxScans: scans}, &sc, &out)
		sameEpisode(t, "exact budget", full, out)
		if scans > 1 {
			// One scan short cuts it.
			GreedyCSR(g, tgt, s, Budget{MaxScans: scans - 1}, &sc, &out)
			cut.Path[0] = s
			sameEpisode(t, "short budget", cut, out)
		}
	}
	// An already-expired deadline cuts before the first move.
	s := 1
	GreedyCSR(g, 0, s, Budget{Deadline: time.Now().Add(-time.Second)}, &sc, &out)
	cut.Path[0] = s
	sameEpisode(t, "expired deadline", cut, out)
}

// TestGreedyCSRZeroAlloc is the enforced allocation gate of the v2 hot path:
// after warm-up, an episode through any of the three exported entry points
// performs zero heap allocations — on the immutable graph, on a half-owned
// shard mask, and on a pre-churned overlay whose dirty vertices take the
// merge scan.
func TestGreedyCSRZeroAlloc(t *testing.T) {
	g := girgForRouting(t, 2000, 9)
	o := churnOverlay(t, g, 20, 13)
	owned := make([]bool, g.N())
	for v := range owned {
		owned[v] = v%2 == 0
	}
	var sc Scratch
	var out Result
	for _, c := range []struct {
		name string
		n    int
		run  func(tgt, s int)
	}{
		{"GreedyCSR", g.N(), func(tgt, s int) { GreedyCSR(g, tgt, s, Budget{}, &sc, &out) }},
		{"GreedyCSRPartial", g.N(), func(tgt, s int) { GreedyCSRPartial(g, tgt, s, owned, Budget{}, &sc, &out) }},
		{"GreedyCSROverlay", o.N(), func(tgt, s int) { GreedyCSROverlay(o, tgt, s, Budget{}, &sc, &out) }},
	} {
		rng := xrand.New(77)
		pairs := make([][2]int, 64)
		for i := range pairs {
			pairs[i] = [2]int{rng.IntN(c.n), rng.IntN(c.n)}
		}
		// Warm up: grow the path buffer to steady state.
		for _, p := range pairs {
			c.run(p[1], p[0])
		}
		i := 0
		allocs := testing.AllocsPerRun(len(pairs), func() {
			c.run(pairs[i%len(pairs)][1], pairs[i%len(pairs)][0])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per episode, want 0", c.name, allocs)
		}
	}
}

// TestGreedyRouterRouteIntoZeroAllocOnCustomObjective verifies the interface
// path at least reuses the Result: with a closure objective that
// does not itself allocate, steady-state episodes are allocation-free.
func TestGreedyRouterRouteIntoZeroAllocOnCustomObjective(t *testing.T) {
	g := newTestGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	scores := []float64{0.1, 0.2, 0.3, 0.4, 0}
	obj := scoreObjective(scores, 4)
	var out Result
	var r GreedyRouter
	r.RouteInto(g, obj, 0, nil, &out) // warm up the path buffer
	allocs := testing.AllocsPerRun(32, func() {
		r.RouteInto(g, obj, 0, nil, &out)
	})
	if allocs != 0 {
		t.Fatalf("GreedyRouter.RouteInto allocates %.1f times per episode, want 0", allocs)
	}
}

// TestScratchEpochWraparound forces the uint32 visited-marks epoch to wrap
// and checks the marks stay sound (stale marks from epoch 2^32-1 must not
// leak into the fresh epoch).
func TestScratchEpochWraparound(t *testing.T) {
	var sc Scratch
	sc.beginSeen(4)
	sc.seen[2] = sc.seenEpoch // a valid mark in the current epoch
	sc.seenEpoch = math.MaxUint32
	sc.beginSeen(4)
	if sc.seenEpoch == 0 {
		t.Fatal("seen epoch 0 would validate zeroed marks")
	}
	for v, st := range sc.seen {
		if st == sc.seenEpoch {
			t.Fatalf("stale mark for vertex %d survived wraparound", v)
		}
	}
}

// TestResultCopyInto checks the deep copy reuses the destination's backing
// array and detaches from the source.
func TestResultCopyInto(t *testing.T) {
	src := Result{Success: true, Path: []int{3, 1, 2}, Moves: 2, Unique: 3, Stuck: -1}
	var dst Result
	dst.Path = make([]int, 0, 8)
	base := &dst.Path[:1][0]
	src.CopyInto(&dst)
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("copy differs: %+v vs %+v", src, dst)
	}
	if &dst.Path[0] != base {
		t.Fatal("CopyInto reallocated the destination path buffer")
	}
	dst.Path[0] = 99
	if src.Path[0] == 99 {
		t.Fatal("CopyInto aliases the source path")
	}
}

// TestMovesMatchesTrajectory pins the replay: Moves returns one event per
// path vertex, in step order under the given episode index, carrying the
// vertex's weight and objective value — the Figure 1 trajectory.
func TestMovesMatchesTrajectory(t *testing.T) {
	g := girgForRouting(t, 500, 31)
	obj := NewStandard(g, 7)
	res := Greedy(g, obj, 3)
	evs := Moves(g, obj, res, 4)
	if len(evs) != len(res.Path) {
		t.Fatalf("lengths: %d events, %d path", len(evs), len(res.Path))
	}
	for i, ev := range evs {
		if ev.Episode != 4 || ev.Step != i {
			t.Fatalf("event %d has coordinates (%d, %d)", i, ev.Episode, ev.Step)
		}
		v := res.Path[i]
		if ev.V != v || ev.W != g.Weight(v) || ev.Score != obj.Score(v) {
			t.Fatalf("event %d: %+v, want vertex %d weight %v score %v", i, ev, v, g.Weight(v), obj.Score(v))
		}
	}
}

// TestGreedyCSRUnweightedGraph covers the weights == nil branch of the
// inline phi (Graph.Weight treats missing weights as 1).
func TestGreedyCSRUnweightedGraph(t *testing.T) {
	space, err := torus.NewSpace(1)
	if err != nil {
		t.Fatal(err)
	}
	pos := torus.NewPositions(space, 16)
	for i := 0; i < 16; i++ {
		pos.Set(i, []float64{float64(i) / 16})
	}
	b, err := graph.NewBuilder(16, pos, nil, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Finish()
	var sc Scratch
	var out Result
	want := Greedy(g, NewStandard(g, 15), 0)
	GreedyCSR(g, 15, 0, Budget{}, &sc, &out)
	sameEpisode(t, "unweighted", want, out)
}
