package faults

import (
	"cmp"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/xrand"
)

// The two permanent-failure models. A crashed vertex disappears from every
// adjacency list for the whole plan lifetime; an episode whose endpoint is
// crashed cannot succeed, which engines classify as "crashed-target" via
// Bound.Crashed without running the protocol.

func init() {
	Register("crash-uniform", func(s Spec) (Model, error) {
		return crashUniform{rate: s.Rate}, nil
	})
	Register("crash-core", func(s Spec) (Model, error) {
		return crashCore{fraction: s.Rate}, nil
	})
}

// crashUniform crashes each vertex independently with the configured
// probability — uniform churn, the failure mode of random node departures.
// Membership is a pure hash of (seed, vertex), so no per-graph state is
// needed and lookups are O(1).
type crashUniform struct{ rate float64 }

// Name returns "crash-uniform".
func (crashUniform) Name() string { return "crash-uniform" }

// Bind attaches the model to a graph.
func (m crashUniform) Bind(g route.Graph, seed uint64) Bound {
	return &boundCrash{seed: seed, rate: m.rate}
}

// SeededCrashes reports true: the crash set is a hash of the seed, so a
// re-seeded plan draws a new one.
func (crashUniform) SeededCrashes() bool { return true }

// crashCore crashes the top fraction of vertices by model weight — an
// adversarial attack on the network core. Figure 1's first phase routes
// every message through exactly those doubly-exponentially heavier hubs, so
// this is the attack the greedy trajectory is most exposed to; Theorem 3.4
// predicts the patching protocols degrade more gracefully because they
// still exhaust whatever component survives.
type crashCore struct{ fraction float64 }

// Name returns "crash-core".
func (crashCore) Name() string { return "crash-core" }

// Bind crashes the top fraction of the graph's weight order, whatever the
// seed, keeping only the last crashed vertex p: v is crashed when it does
// not come after p. O(1) on a *graph.Graph, which memoizes its order; any
// other graph (a live overlay) is sorted per bind.
func (m crashCore) Bind(g route.Graph, seed uint64) Bound {
	n := g.N()
	k := min(int(m.fraction*float64(n)), n)
	if k <= 0 {
		return &boundCrash{seed: seed}
	}
	var order []int32
	if gg, ok := g.(*graph.Graph); ok {
		order = gg.WeightOrder()
	} else {
		order = graph.WeightOrder(n, g.Weight)
	}
	p := int(order[k-1])
	return &boundCrash{seed: seed, g: g, pivot: p, pivotW: g.Weight(p)}
}

// boundCrash serves both crash models: with g nil membership is a hash of
// (seed, vertex) at rate, otherwise g's weight order up to pivot.
type boundCrash struct {
	seed   uint64
	rate   float64
	g      route.Graph
	pivot  int
	pivotW float64
}

// Crashed reports whether v is permanently failed.
func (b *boundCrash) Crashed(v int) bool {
	if b.g != nil {
		if v < 0 || v >= b.g.N() {
			return false
		}
		// The weight order's comparator, against the pivot.
		c := cmp.Compare(b.g.Weight(v), b.pivotW)
		return c > 0 || c == 0 && v <= b.pivot
	}
	if b.rate <= 0 {
		return false
	}
	return xrand.HashFloat(b.seed, uint64(v)) < b.rate
}

// View hides crashed vertices from the episode's adjacency lists. The
// objective passes through: protocols may still score a crashed vertex they
// can no longer reach, which is exactly what a live node routing around a
// dead neighbor experiences.
func (b *boundCrash) View(g route.Graph, obj route.Objective, episode int) (route.Graph, route.Objective) {
	if b.g == nil && b.rate <= 0 {
		return g, obj
	}
	return &crashGraph{inner: g, bound: b}, obj
}

// crashGraph filters crashed vertices out of adjacency lists.
type crashGraph struct {
	inner route.Graph
	bound *boundCrash
}

// N returns the number of vertices (crashed vertices keep their ids; they
// are unreachable, not renumbered).
func (c *crashGraph) N() int { return c.inner.N() }

// Weight returns the vertex weight of the wrapped graph.
func (c *crashGraph) Weight(v int) float64 { return c.inner.Weight(v) }

// Neighbors returns v's surviving neighbors in a slice of their own: a
// protocol may still be walking one list when it asks for the next
// (greedy+lookahead scores a neighbor by listing that neighbor's).
func (c *crashGraph) Neighbors(v int) []int32 {
	all := c.inner.Neighbors(v)
	alive := make([]int32, 0, len(all))
	for _, u := range all {
		if !c.bound.Crashed(int(u)) {
			alive = append(alive, u)
		}
	}
	return alive
}

var _ route.Graph = (*crashGraph)(nil)
