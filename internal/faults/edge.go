package faults

import (
	"repro/internal/route"
)

// The two link-level fault models. Both reuse dropGraph, an episode-scoped
// adjacency filter whose drop decisions are pure functions of
// (seed, episode, query index, edge) — no shared RNG, so concurrent episodes
// over one bound model stay bit-identical to sequential ones.

func init() {
	Register("edge-drop", func(s Spec) (Model, error) {
		return edgeDrop{rate: s.Rate}, nil
	})
	Register("msg-loss", func(s Spec) (Model, error) {
		retries := s.Retries
		if retries == 0 {
			retries = 1
		}
		return msgLoss{rate: s.Rate, retries: retries}, nil
	})
}

// edgeDrop is the transient link-failure model of the remark after Theorem
// 3.5: every adjacency query independently drops each incident edge with the
// configured probability. Failures are transient — the same edge may be
// present again on the very next query — which is exactly the regime in
// which the paper argues greedy routing keeps working ("the current vertex
// can send the message to any other good neighbor instead").
type edgeDrop struct{ rate float64 }

// Name returns "edge-drop".
func (edgeDrop) Name() string { return "edge-drop" }

// Bind attaches the model to a graph; edge-drop keeps no per-graph state.
func (m edgeDrop) Bind(g route.Graph, seed uint64) Bound {
	return boundDrop{seed: seed, dropProb: m.rate}
}

// msgLoss models lossy forwarding with a bounded retry budget: each message
// transmission is lost independently with probability rate, and the sender
// retries a failed forward up to retries times before giving that neighbor
// up for the current step. A neighbor is therefore unreachable for one
// query with probability rate^(retries+1) — retries recover most losses, but
// a bounded budget means sustained loss still reroutes or strands the
// message, unlike an idealized reliable link.
type msgLoss struct {
	rate    float64
	retries int
}

// Name returns "msg-loss".
func (msgLoss) Name() string { return "msg-loss" }

// Bind attaches the model to a graph; the effective per-query drop
// probability folds the retry budget in.
func (m msgLoss) Bind(g route.Graph, seed uint64) Bound {
	eff := 1.0
	for i := 0; i <= m.retries; i++ {
		eff *= m.rate
	}
	return boundDrop{seed: seed, dropProb: eff}
}

// boundDrop instantiates per-episode dropGraph views for both link models.
type boundDrop struct {
	noCrash
	seed     uint64
	dropProb float64
}

// View wraps the episode's graph with a fresh drop filter. The objective
// passes through untouched.
func (b boundDrop) View(g route.Graph, obj route.Objective, episode int) (route.Graph, route.Objective) {
	if b.dropProb <= 0 {
		return g, obj
	}
	return &dropGraph{inner: g, seed: b.seed, episode: uint64(episode), dropProb: b.dropProb}, obj
}

// dropGraph drops each incident edge independently per adjacency query. One
// instance serves one episode, so the query counter is goroutine-local by
// construction.
type dropGraph struct {
	inner    route.Graph
	seed     uint64
	episode  uint64
	dropProb float64
	queries  uint64
}

// N returns the number of vertices.
func (d *dropGraph) N() int { return d.inner.N() }

// Weight returns the vertex weight of the wrapped graph.
func (d *dropGraph) Weight(v int) float64 { return d.inner.Weight(v) }

// Neighbors returns the neighbors of v that survive this query's coin flips.
// Each call advances the episode's query counter, so repeated queries see
// independent (but fully deterministic) failure patterns. The slice is the
// caller's to keep, as crashGraph's is.
func (d *dropGraph) Neighbors(v int) []int32 {
	all := d.inner.Neighbors(v)
	q := d.queries
	d.queries++
	kept := make([]int32, 0, len(all))
	for _, u := range all {
		if hashFloat(d.seed, d.episode, q, uint64(v)<<32^uint64(uint32(u))) >= d.dropProb {
			kept = append(kept, u)
		}
	}
	return kept
}

var _ route.Graph = (*dropGraph)(nil)
