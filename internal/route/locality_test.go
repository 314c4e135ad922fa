package route_test

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/xrand"
)

// The paper's premise (Section 2.2) is that a node knows its own address,
// the addresses of its direct neighbors and the target's — nothing else of
// the topology. localityGuard checks that premise on the protocols that run:
// it wraps the Graph and Objective one episode is handed and lets the episode
//
//   - list Neighbors(v) only for v already on its own Result.Path — where the
//     message is or has been, the latter being what a patching protocol
//     stores in the message or at the vertices it passed;
//   - read Score(u) or Weight(u) only for those vertices and for vertices one
//     of those lists named.
//
// hops widens both by whole hops: greedy+lookahead is by definition "know
// thy neighbor's neighbor", so it runs under hops = 2 — it may list the
// vertices a path vertex's list named, and score what those lists name.
// Knowledge comes only from the lists the episode itself was given, never
// from a second look at the graph, so the rule holds as it stands on views
// whose lists change from query to query (faults' edge-drop). For the same
// reason a transmission may only cross a link some list of one of its two
// ends named (a backtracking message returns over the link it came by).
type localityGuard struct {
	g    route.Graph
	out  *route.Result
	hops int
	// level[v] is how v's address became known: 0 on the path, k listed by a
	// level k-1 vertex, unknown otherwise.
	level []uint8
	// named holds (v, u) and (u, v) for every u a list Neighbors(v) named.
	named  map[[2]int]bool
	synced int // how much of out.Path is checked and marked
	broken []string
}

const unknown = ^uint8(0)

// known brings the path marks up to date, checking each new transmission,
// and returns v's level.
func (lg *localityGuard) known(v int) uint8 {
	for path := lg.out.Path; lg.synced < len(path); lg.synced++ {
		if i := lg.synced; i > 0 && !lg.named[[2]int{path[i-1], path[i]}] {
			lg.broken = append(lg.broken, fmt.Sprintf("transmission %d -> %d over no listed link", path[i-1], path[i]))
		}
		lg.level[path[lg.synced]] = 0
	}
	return lg.level[v]
}

func (lg *localityGuard) N() int { return lg.g.N() }

func (lg *localityGuard) Neighbors(v int) []int32 {
	nb := lg.g.Neighbors(v)
	l := lg.known(v)
	if int(l) > lg.hops-1 {
		lg.broken = append(lg.broken, fmt.Sprintf("Neighbors(%d) with path %v", v, lg.out.Path))
		return nb
	}
	for _, u := range nb {
		lg.named[[2]int{v, int(u)}], lg.named[[2]int{int(u), v}] = true, true
		if lg.level[u] > l+1 {
			lg.level[u] = l + 1
		}
	}
	return nb
}

func (lg *localityGuard) Weight(v int) float64 {
	lg.address("Weight", v)
	return lg.g.Weight(v)
}

func (lg *localityGuard) address(read string, v int) {
	if int(lg.known(v)) > lg.hops {
		lg.broken = append(lg.broken, fmt.Sprintf("%s(%d) with path %v", read, v, lg.out.Path))
	}
}

// routeGuarded runs one episode of p from s under the guard and returns it
// with every read that broke locality.
func routeGuarded(p route.Protocol, g route.Graph, obj route.Objective, s, hops int) (route.Result, []string) {
	var out route.Result
	lg := &localityGuard{g: g, out: &out, hops: hops, level: make([]uint8, g.N()), named: map[[2]int]bool{}}
	for i := range lg.level {
		lg.level[i] = unknown
	}
	guarded := route.Objective{Target: obj.Target, Score: func(v int) float64 {
		lg.address("Score", v)
		return obj.Score(v)
	}}
	p.RouteInto(lg, guarded, s, nil, &out)
	lg.known(s) // the last transmissions
	return out, lg.broken
}

// sparseGIRG is the lambda = 0.005 graph of TestGreedyCSRMatchesInterfaceGreedy:
// delivered greedy paths average over four hops there and greedy often
// strands, so Phi-DFS backtracks and history explores.
func sparseGIRG(t *testing.T) *graph.Graph {
	t.Helper()
	p := girg.DefaultParams(6000)
	p.FixedN = true
	p.Lambda = 0.005
	g, err := girg.Generate(p, 6, girg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestProtocolsAreLocal runs every built-in protocol under the guard on the
// three kinds of graph an episode is served from — the immutable snapshot, a
// churned live overlay, and a fault plan's per-episode view of graph and
// objective — and demands not one non-local read. Each protocol must also
// show the behaviour the guard is there to watch: deliveries, and for the
// patching protocols moves that return to visited vertices.
func TestProtocolsAreLocal(t *testing.T) {
	base := sparseGIRG(t)
	live := route.ChurnOverlay(t, base, 40, 7)
	plan, err := faults.NewPlan(3,
		faults.Spec{Model: "edge-drop", Rate: 0.1},
		faults.Spec{Model: "objective-noise", Rate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	bound := plan.Bind(base)
	giant := graph.GiantComponent(base)

	for _, kind := range []struct {
		name string
		g    route.GeoGraph
		view func(g route.Graph, obj route.Objective, episode int) (route.Graph, route.Objective)
	}{
		{"immutable", base, nil},
		{"overlay", live, nil},
		{"faults", base, bound.View},
	} {
		// The five built-ins by name: other tests leave stubs in the registry.
		for _, name := range []string{"greedy", "greedy+lookahead", "phi-dfs", "history", "gravity-pressure"} {
			p, err := route.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			hops := 1
			if name == "greedy+lookahead" {
				hops = 2
			}
			t.Run(kind.name+"/"+name, func(t *testing.T) {
				rng := xrand.New(41)
				delivered, revisits := 0, 0
				for i := 0; i < 40; i++ {
					s, tgt := giant[rng.IntN(len(giant))], giant[rng.IntN(len(giant))]
					var g route.Graph = kind.g
					obj := route.NewStandard(kind.g, tgt)
					if kind.view != nil {
						g, obj = kind.view(g, obj, i)
					}
					res, broken := routeGuarded(p, g, obj, s, hops)
					if len(broken) > 0 {
						t.Fatalf("%d -> %d: %d non-local reads, first: %s", s, tgt, len(broken), broken[0])
					}
					if at := res.Path[len(res.Path)-1]; res.Success != (at == tgt) {
						t.Fatalf("%d -> %d: Success %v with the message at %d", s, tgt, res.Success, at)
					}
					if res.Success {
						delivered++
					}
					revisits += len(res.Path) - res.Unique
				}
				patching := name != "greedy" && name != "greedy+lookahead"
				if delivered < 10 || (patching && revisits == 0) {
					t.Fatalf("%d of 40 delivered, %d moves onto visited vertices: the episodes do not exercise the protocol",
						delivered, revisits)
				}
			})
		}
	}
}

// peekAhead is greedy routing that cheats: it holds the whole graph, as no
// node does, and forwards to the neighbor whose own best neighbor scores
// highest — lookahead without asking for it.
type peekAhead struct{ whole route.Graph }

func (peekAhead) Name() string { return "test-peek-ahead" }

func (c peekAhead) RouteInto(g route.Graph, obj route.Objective, s int, sc *route.Scratch, out *route.Result) {
	peek := route.Objective{Target: obj.Target, Score: func(v int) float64 {
		best := obj.Score(v)
		for _, u := range c.whole.Neighbors(v) {
			best = max(best, obj.Score(int(u)))
		}
		return best
	}}
	route.GreedyRouter{}.RouteInto(g, peek, s, sc, out)
}

// TestLocalityGuardRejectsCheat is the guard's teeth (TestSimulatorEnforcesLocality
// of the deleted internal/dist): a protocol that scores a neighbor's neighbor
// is caught on the Score read, while honest greedy passes on the same pairs.
func TestLocalityGuardRejectsCheat(t *testing.T) {
	g := sparseGIRG(t)
	giant := graph.GiantComponent(g)
	rng := xrand.New(43)
	caught := 0
	for i := 0; i < 20; i++ {
		s, tgt := giant[rng.IntN(len(giant))], giant[rng.IntN(len(giant))]
		obj := route.NewStandard(g, tgt)
		if _, broken := routeGuarded(route.GreedyRouter{}, g, obj, s, 1); len(broken) > 0 {
			t.Fatalf("%d -> %d: honest greedy rejected: %s", s, tgt, broken[0])
		}
		if _, broken := routeGuarded(peekAhead{whole: g}, g, obj, s, 1); len(broken) > 0 {
			caught++
		}
	}
	if caught < 15 {
		t.Fatalf("the guard caught the two-hop scorer on %d of 20 pairs", caught)
	}
}
