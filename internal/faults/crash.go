package faults

import (
	"sort"

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

// crashCore crashes the top fraction of vertices by model weight — an
// adversarial attack on the network core. Figure 1's first phase routes
// every message through exactly those doubly-exponentially heavier hubs, so
// this is the attack the greedy trajectory is most exposed to; Theorem 3.4
// predicts the patching protocols degrade more gracefully because they
// still exhaust whatever component survives.
type crashCore struct{ fraction float64 }

// Name returns "crash-core".
func (crashCore) Name() string { return "crash-core" }

// Bind ranks the graph's vertices by weight (ties broken by id, so the crash
// set is deterministic) and marks the top fraction crashed.
func (m crashCore) Bind(g route.Graph, seed uint64) Bound {
	n := g.N()
	k := int(m.fraction * float64(n))
	if k <= 0 {
		return &boundCrash{seed: seed}
	}
	if k > n {
		k = n
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		wi, wj := g.Weight(int(order[i])), g.Weight(int(order[j]))
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	crashed := make([]bool, n)
	for _, v := range order[:k] {
		crashed[v] = true
	}
	return &boundCrash{seed: seed, set: crashed}
}

// boundCrash serves both crash models: a nil set means hash-based uniform
// membership at the given rate, a non-nil set is an explicit crash list.
type boundCrash struct {
	seed uint64
	rate float64
	set  []bool
}

// Crashed reports whether v is permanently failed.
func (b *boundCrash) Crashed(v int) bool {
	if b.set != nil {
		return v >= 0 && v < len(b.set) && b.set[v]
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
	if b.set == nil && b.rate <= 0 {
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
