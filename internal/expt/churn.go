package expt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/xrand"
)

// E17 is the churn sweep: it layers deterministic join/leave churn over one
// sparse GIRG as a copy-on-write overlay (the live-graph machinery of
// internal/mutate, driven here without a journal) and measures how each
// routing protocol degrades. The paper's protocols are local and oblivious
// — a step reads only the current vertex's adjacency and the target's
// coordinates — so two predictions are testable: joins are free (a vertex
// wired to geometrically sensible contacts scores under the same phi as
// base vertices and is routable immediately, no global re-index), and
// leaves cost only the walks that would have crossed a tombstoned vertex,
// degrading smoothly in the leave rate rather than collapsing.
//
// Churn streams are pure-hash Poisson: every random choice is a function of
// (seed, tick, kind, index) through xrand.Hash64, so the stream — and with it
// the overlay fingerprint and the whole table — is bit-identical across
// runs, worker counts and GOMAXPROCS.

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Churn sweep: routing over live overlays under join/leave churn",
		Claim: "Section 1 + remark after Theorem 3.5: greedy-style protocols are local and oblivious, so joins are routable immediately and leaves degrade delivery smoothly (only walks crossing a tombstone fail).",
		Run:   runE17,
	})
}

// e17Ticks is the number of batches a churn stream is applied in: each tick
// draws Poisson(join/e17Ticks) joins and Poisson(leave/e17Ticks) leaves and
// applies them as one overlay edit, mirroring the batched mutation log.
const e17Ticks = 64

func runE17(cfg Config) (Table, error) {
	t := Table{
		ID:      "E17",
		Title:   "success, hops and stretch per join/leave rate × protocol (rates are expected events as a fraction of n)",
		Columns: []string{"join", "leave", "protocol", "success [95% CI]", "mean hops", "stretch", "dead-end", "live n", "overlay Δ"},
	}
	n := cfg.scaledN(20000)
	pairs := cfg.scaled(300, 40)
	p := girg.DefaultParams(float64(n))
	p.Lambda = sparseLambda
	p.FixedN = true
	g, err := girg.Generate(p, cfg.Seed+1700, girg.Options{})
	if err != nil {
		return t, err
	}
	protocols := []core.Protocol{"greedy", "phi-dfs"}
	maxHops := 8 * n

	cells := []struct{ join, leave float64 }{
		{0, 0}, // baseline: empty overlay, base fast paths
		{0.05, 0},
		{0, 0.05},
		{0.05, 0.05},
		{0.15, 0.15},
	}
	for _, cell := range cells {
		ov, err := churnOverlay(g, cfg.Seed+1701, cell.join, cell.leave)
		if err != nil {
			return t, err
		}
		st := ov.Stats()
		liveN := ov.N() - st.RemovedVertices
		nw := &core.Network{
			Graph: g,
			Label: fmt.Sprintf("churn(j=%s,l=%s)", fmtF2(cell.join), fmtF2(cell.leave)),
			NewObjective: func(t int) route.Objective {
				return route.NewStandard(g, t)
			},
			StandardPhi: true,
		}
		if err := nw.SetOverlay(ov); err != nil {
			return t, err
		}
		for _, proto := range protocols {
			rep, err := core.RunMilgramCtx(cfg.Context(), nw, core.MilgramConfig{
				Pairs: pairs, Seed: cfg.Seed + 1702, Protocol: proto,
				MaxHops: maxHops, ComputeStretch: true,
			})
			if err != nil {
				return t, err
			}
			t.AddRow(fmtF2(cell.join), fmtF2(cell.leave), string(proto),
				fmtProp(rep.Success.P, rep.Success.Lo, rep.Success.Hi),
				fmtF2(rep.MeanHops), fmtF2(rep.MeanStretch),
				fmtInt(rep.Failures[route.FailDeadEnd]),
				fmtInt(liveN), fmtInt(ov.DeltaSize()))
			t.SetMetric(fmt.Sprintf("success_j%s_l%s_%s", fmtF2(cell.join), fmtF2(cell.leave), proto), rep.Success.P)
		}
	}

	get := func(join, leave float64, proto core.Protocol) (float64, bool) {
		v, ok := t.Metrics[fmt.Sprintf("success_j%s_l%s_%s", fmtF2(join), fmtF2(leave), proto)]
		return v, ok
	}
	if base, ok := get(0, 0, "greedy"); ok && base > 0 {
		if j, ok := get(0.05, 0, "greedy"); ok {
			t.AddNote("joins are free: +5%% joined vertices leave greedy at %.1f%% of its churn-free delivery — new vertices route under the same phi the moment their batch commits", 100*j/base)
		}
		if l, ok := get(0, 0.05, "greedy"); ok {
			t.AddNote("leaves degrade smoothly: tombstoning 5%% of vertices keeps %.1f%% of churn-free deliveries (lost walks die as dead ends at tombstones or route to departed targets)", 100*l/base)
		}
	}
	if gd, ok1 := get(0.15, 0.15, "greedy"); ok1 {
		if pd, ok2 := get(0.15, 0.15, "phi-dfs"); ok2 {
			t.AddNote("under symmetric 15%% churn patching delivers %.1f%% vs greedy's %.1f%%: backtracking recovers walks that dead-end at tombstones, as it does for sampled dead ends", 100*pd, 100*gd)
		}
	}
	t.AddNote("churn streams are pure-hash Poisson over %d ticks: the overlay fingerprint and every row are bit-identical across runs and GOMAXPROCS", e17Ticks)
	return t, nil
}

// churnOverlay builds the live overlay a churn stream leaves behind:
// joinRate·n expected joins and leaveRate·n expected leaves, Poisson-split
// over e17Ticks batches. A join lands at a hash-uniform torus position with
// a Pareto(tau = 2.5) weight and wires to its 4 nearest live vertices plus
// one hub contact — the probed candidate maximizing the GIRG connection
// propensity w_u/dist^d — so new vertices get both the local links greedy
// descends and a long-range link into the weight core. A leave tombstones a
// hash-chosen live vertex. All randomness is xrand.Hash64 of (seed, tick,
// kind, index): the stream is a pure function of its arguments.
func churnOverlay(g *graph.Graph, seed uint64, joinRate, leaveRate float64) (*graph.Overlay, error) {
	const (
		kindJoinCount = iota
		kindLeaveCount
		kindPos
		kindWeight
		kindHubProbe
		kindLeavePick
	)
	space := g.Space()
	dim := space.Dim()
	n := float64(g.N())
	ov := graph.NewOverlay(g)
	for tick := uint64(0); tick < e17Ticks; tick++ {
		joins := poissonHash(joinRate*n/e17Ticks, seed, tick, kindJoinCount)
		leaves := poissonHash(leaveRate*n/e17Ticks, seed, tick, kindLeaveCount)
		if joins == 0 && leaves == 0 {
			continue
		}
		e := ov.Edit()
		for j := uint64(0); j < uint64(joins); j++ {
			pos := make([]float64, dim)
			for d := range pos {
				pos[d] = xrand.HashFloat(seed, tick, kindPos, j, uint64(d))
			}
			// Pareto(tau = 2.5) weight, capped at the natural GIRG cutoff
			// sqrt(n) so one hash draw cannot dominate the weight core.
			w := g.WMin() * math.Pow(1-xrand.HashFloat(seed, tick, kindWeight, j), -1/1.5)
			if wcap := g.WMin() * math.Sqrt(n); w > wcap {
				w = wcap
			}
			id, err := e.AddVertex(pos, w)
			if err != nil {
				return nil, err
			}
			for _, u := range joinContacts(ov, space, pos, seed, tick, j, kindHubProbe) {
				if u == id || e.Tombstoned(u) || e.HasEdge(id, u) {
					continue
				}
				if err := e.AddEdge(id, u); err != nil {
					return nil, err
				}
			}
		}
		for l, picked := uint64(0), 0; picked < leaves && l < uint64(leaves)*32; l++ {
			v := int(xrand.Hash64(seed, tick, kindLeavePick, l) % uint64(ov.N()))
			if e.Tombstoned(v) {
				continue
			}
			if err := e.RemoveVertex(v); err != nil {
				return nil, err
			}
			picked++
		}
		ov = e.Finish()
	}
	return ov, nil
}

// joinContacts picks the link targets for a joining vertex: its 4 nearest
// live vertices in the pre-tick overlay (an O(liveN) scan — the local links
// greedy routing descends) plus the best of 64 hash probes by the GIRG
// propensity w_u/dist^d (the long-range hub contact). Candidates come from
// the overlay as it stood before this tick, so same-tick joiners never
// reference each other — exactly the ids a real join batch could name.
func joinContacts(ov *graph.Overlay, space torusSpace, pos []float64, seed, tick, j uint64, kindProbe int) []int {
	const (
		nearK  = 4
		probes = 64
	)
	type cand struct {
		v int
		d float64
	}
	nearest := make([]cand, 0, nearK+1)
	for v := 0; v < ov.N(); v++ {
		if ov.Tombstoned(v) {
			continue
		}
		d := space.Dist(pos, ov.Pos(v))
		i := len(nearest)
		for i > 0 && nearest[i-1].d > d {
			i--
		}
		if i < nearK {
			nearest = append(nearest, cand{})
			copy(nearest[i+1:], nearest[i:])
			nearest[i] = cand{v, d}
			if len(nearest) > nearK {
				nearest = nearest[:nearK]
			}
		}
	}
	out := make([]int, 0, nearK+1)
	for _, c := range nearest {
		out = append(out, c.v)
	}
	hub, best := -1, math.Inf(-1)
	dim := float64(space.Dim())
	for p := uint64(0); p < probes; p++ {
		v := int(xrand.Hash64(seed, tick, uint64(kindProbe), j, p) % uint64(ov.N()))
		if ov.Tombstoned(v) {
			continue
		}
		d := space.Dist(pos, ov.Pos(v))
		if d == 0 {
			continue
		}
		if score := ov.Weight(v) / math.Pow(d, dim); score > best {
			hub, best = v, score
		}
	}
	if hub >= 0 {
		out = append(out, hub)
	}
	return out
}

// torusSpace is the slice of torus.Space joinContacts needs; the indirection
// keeps the helper trivially testable.
type torusSpace interface {
	Dim() int
	Dist(x, y []float64) float64
}

// poissonHash draws Poisson(lambda) by Knuth inversion over the pure-hash
// uniform stream keyed by (seed, tick, kind) — deterministic and
// allocation-free, adequate for the per-tick lambdas the sweep uses.
func poissonHash(lambda float64, seed, tick uint64, kind int) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= xrand.HashFloat(seed, tick, uint64(kind), uint64(k), 0xBD)
		if p <= limit {
			return k
		}
		k++
	}
}
