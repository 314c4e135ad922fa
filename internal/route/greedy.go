package route

// GreedyRouter is the pure greedy protocol of Algorithm 1 as a registered
// Protocol: from the current vertex, move to the neighbor with the largest
// objective if it improves on the current vertex, otherwise drop the packet.
type GreedyRouter struct{}

// Name returns "greedy".
func (GreedyRouter) Name() string { return "greedy" }

// RouteInto runs Algorithm 1 from s toward obj.Target into out without
// allocating (sc is not needed — greedy keeps no aux state and never
// revisits a vertex, so Unique is the path length).
func (GreedyRouter) RouteInto(g Graph, obj Objective, s int, _ *Scratch, out *Result) {
	greedyInto(g, obj, s, out)
}

func init() { Register(GreedyRouter{}) }

// Graph is the read-only view routing protocols need. *graph.Graph
// satisfies it. A list Neighbors returned stays valid while others are
// asked for.
type Graph interface {
	N() int
	Neighbors(v int) []int32
	Weight(v int) float64
}

// Greedy runs Algorithm 1 from s toward obj.Target and returns the episode.
func Greedy(g Graph, obj Objective, s int) Result {
	return Route(GreedyRouter{}, g, obj, s)
}

// greedyInto is Algorithm 1 building into out. A greedy path visits every
// vertex at most once (scores strictly increase along it, ties broken by
// id), so Unique is simply the path length and no visited set is needed.
func greedyInto(g Graph, obj Objective, s int, out *Result) {
	out.reset(s)
	v := s
	for v != obj.Target {
		u := BestNeighbor(g, obj, v)
		if u < 0 || !better(obj.Score(u), obj.Score(v), u, v) {
			out.Stuck = v
			out.Unique = len(out.Path)
			out.classify()
			return
		}
		out.step(u)
		v = u
	}
	out.Success = true
	out.Unique = len(out.Path)
	out.classify()
}
