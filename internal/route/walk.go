package route

import (
	"math"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/torus"
)

// This file is the concrete fast path beside Protocol: Algorithm 1 under
// the standard objective, written once. greedyWalk is the only loop; the
// three exported entry points — GreedyCSR (immutable graph), GreedyCSRPartial
// (one shard of it) and GreedyCSROverlay (live overlay) — are one-line
// views of it, so a change to the walk or to its scan is made, and proved
// bit-identical to the interface-path Greedy, in exactly one place.

// inf is math.Inf(1) hoisted out of the hot loop.
var inf = math.Inf(1)

// Budget bounds one fast-path episode the way the engine's budgetGraph
// bounds interface-path episodes: MaxScans caps adjacency scans (greedy
// performs exactly one per path vertex, so the cap lands on the same scan at
// any worker count) and Deadline is the wall-clock backstop. Exceeding
// either resets the episode to a FailDeadline result whose path is just the
// source, bit-identical to the engine's interface-path classification.
type Budget struct {
	// MaxScans is the adjacency-scan budget (0 = unlimited).
	MaxScans int
	// Deadline is the wall-clock cutoff (zero = none).
	Deadline time.Time
}

// Spent is the budget rule of the walk and of core's budgetGraph: count one
// more scan into *scans, then report it cut past MaxScans or past Deadline.
func (b *Budget) Spent(scans *int) bool {
	*scans++
	return b.MaxScans > 0 && *scans > b.MaxScans || b.late()
}

// late reads the clock out of line, so that Spent inlines into the walk.
func (b *Budget) late() bool { return !b.Deadline.IsZero() && time.Now().After(b.Deadline) }

// scorer is the scan primitive of the fast path: phi toward one target read
// straight off the base graph's flat position and weight arrays, plus the
// argmax of phi over one adjacency list. It is a plain struct — no
// interface, no type parameter, no memo (greedy scans each path vertex once,
// so a cache could only save re-scoring neighbors two consecutive path
// vertices share, and paid two more memory streams per neighbor for it). The
// overlay is consulted only for vertices added after the snapshot
// (v >= baseN); base vertices of a live graph score from the same arrays as
// on the immutable one.
type scorer struct {
	t       int
	xt      []float64
	space   torus.Space
	raw     []float64 // base positions, stride len(xt)
	weights []float64 // nil = all 1, as Graph.Weight spells it
	norm    float64
	baseN   int
	o       *graph.Overlay // nil on an immutable graph
	// unit selects the unit-coordinate distance kernel (torus.UnitDistPow):
	// max norm on the torus over a graph certified by UnitCoords. Added
	// vertices are wrapped and finite by construction
	// (OverlayEdit.AddVertex), so the base graph's certificate covers the
	// overlay.
	unit bool
	// unit2 is unit on dim 2, the model's default and score's hot case.
	unit2 bool
}

func newScorer(g *graph.Graph, o *graph.Overlay, t int) scorer {
	space := g.Space()
	s := scorer{
		t:       t,
		space:   space,
		raw:     g.Positions().Raw(),
		weights: g.Weights(),
		norm:    1 / (g.WMin() * g.Intensity()),
		baseN:   g.N(),
		o:       o,
		unit:    space.Norm() == torus.MaxNorm && space.Geometry() == torus.Torus && g.UnitCoords(),
	}
	s.unit2 = s.unit && space.Dim() == 2
	if o != nil {
		s.xt = o.Pos(t)
	} else {
		s.xt = g.Pos(t)
	}
	return s
}

// score is phi(v): the target scores +Inf and every other vertex
// w_v * norm / dist^dim, exactly as NewStandard spells it, so the float
// sequence is bit-identical to the interface path. The body is the hot case
// alone — a base vertex on the certified default geometry — so that the call
// a dirty scan makes per neighbor stays a handful of register moves.
func (s *scorer) score(v int) float64 {
	if v == s.t {
		return inf
	}
	if !s.unit2 || v >= s.baseN {
		return s.scoreAny(v)
	}
	w := 1.0
	if s.weights != nil {
		w = s.weights[v]
	}
	return w * s.norm / torus.UnitDistPow2(s.raw[2*v], s.raw[2*v+1], s.xt[0], s.xt[1])
}

// scoreAny is score for every other case: a vertex added by the overlay,
// another dimension, an uncertified graph, the L2 norm, the cube.
func (s *scorer) scoreAny(v int) float64 {
	var x []float64
	w := 1.0
	if v >= s.baseN {
		x, w = s.o.Pos(v), s.o.Weight(v)
	} else {
		dim := len(s.xt)
		x = s.raw[v*dim : (v+1)*dim]
		if s.weights != nil {
			w = s.weights[v]
		}
	}
	if s.unit {
		return w * s.norm / torus.UnitDistPow(x, s.xt)
	}
	return w * s.norm / s.space.DistPow(x, s.xt)
}

// best returns the phi-maximal vertex of one adjacency list (ties broken by
// id, as everywhere) with its score, or -1 when the list is empty. The list
// is the sorted base slice bs minus the sorted del plus the sorted add (an
// overlay's per-vertex delta: add and bs are disjoint, del is a subset of
// bs). A dirty list is the runs of bs between consecutive del entries, each
// through the kernel a clean list — one run — goes through, the running
// argmax handed from run to run; the few add entries are folded last. They
// arrive out of id order, so they are compared with better, whose id arm is
// live there: a lower-id add at distance 0 from the target still beats it.
//
// The scan is cut short exactly (DESIGN 7.1): ids ascend within bs and the
// kernel replaces only on a strict >, so the first +Inf it meets — the
// target, or a lower-id vertex on the target's position — is final whatever
// follows. The kernel returns at t; a run that comes back +Inf ends bs.
func (s *scorer) best(bs, add, del []int32) (best int, bestScore float64) {
	best = -1
	for len(bs) > 0 && bestScore != inf {
		run := bs
		bs = nil
		if len(del) > 0 {
			// Gallop to del[0] from the previous cut, so the searches of
			// one list cost O(len(del) * log(gap)), never more than a scan.
			hi := 1
			for hi < len(run) && run[hi] < del[0] {
				hi *= 2
			}
			cut, _ := slices.BinarySearch(run[hi/2:min(hi+1, len(run))], del[0])
			cut += hi / 2
			run, bs, del = run[:cut], run[cut+1:], del[1:]
		}
		best, bestScore = s.bestRun(run, best, bestScore)
	}
	for _, a := range add {
		u := int(a)
		if su := s.score(u); best == -1 || better(su, bestScore, u, best) {
			best, bestScore = u, su
		}
	}
	return best, bestScore
}

// bestRun carries the argmax (best, bestScore) over one ascending run of live
// base neighbors. Ascending ids mean better's id arm could never fire (u >
// best always), so su > bestScore is the same comparison. It stops at t:
// after that comparison bestScore is +Inf (or was NaN, on an uncertified
// graph), and nothing compares greater than either.
func (s *scorer) bestRun(run []int32, best int, bestScore float64) (int, float64) {
	if s.unit2 {
		return s.bestUnit2(run, best, bestScore)
	}
	for _, u32 := range run {
		u := int(u32)
		su := s.score(u)
		if best == -1 || su > bestScore {
			best, bestScore = u, su
		}
		if u == s.t {
			break
		}
	}
	return best, bestScore
}

// bestUnit2 is bestRun on the certified default geometry with score's hot
// case written out in place: a run holds base vertices only, and the call
// per neighbor cost a fifth of the scan (one hub scan: 232 us through score,
// 185 in place).
func (s *scorer) bestUnit2(run []int32, best int, bestScore float64) (int, float64) {
	raw, ws, norm, t := s.raw, s.weights, s.norm, s.t
	t0, t1 := s.xt[0], s.xt[1]
	for _, u32 := range run {
		u := int(u32)
		if u == t {
			if best == -1 || inf > bestScore {
				best, bestScore = u, inf
			}
			break
		}
		w := 1.0
		if ws != nil {
			w = ws[u]
		}
		su := w * norm / torus.UnitDistPow2(raw[2*u], raw[2*u+1], t0, t1)
		if best == -1 || su > bestScore {
			best, bestScore = u, su
		}
	}
	return best, bestScore
}

// greedyWalk is Algorithm 1 from s toward t under the standard objective:
// forward to the neighbor that maximizes phi, drop the packet if none
// improves on the current vertex. g is the immutable graph (the base of o
// when o is non-nil); a non-nil o routes over the live overlay, where a
// tombstoned vertex reads an empty adjacency and an added one (v >= g.N())
// reads its delta alone; a non-nil owned stops the walk the moment it steps
// onto a vertex with owned[v] false. Overlay and ownership each cost one
// nil check per hop, nothing per neighbor. exit and out read as
// GreedyCSRPartial's return values say.
func greedyWalk(g *graph.Graph, o *graph.Overlay, t, s int, owned []bool, b Budget, out *Result) (exit int) {
	out.reset(s)
	offsets, adj := g.CSR()
	sco := newScorer(g, o, t)
	scans := 0
	v := s
	for v != t {
		if b.Spent(&scans) {
			out.FailAtSource(s, FailDeadline)
			return -1
		}
		var bs, add, del []int32
		if v < sco.baseN {
			bs = adj[offsets[v]:offsets[v+1]]
		}
		if o != nil {
			if o.Tombstoned(v) {
				bs = nil
			} else {
				add, del = o.Delta(v)
			}
		}
		u, su := sco.best(bs, add, del)
		if u < 0 || !better(su, sco.score(v), u, v) {
			out.Stuck = v
			out.Unique = len(out.Path) // greedy never revisits
			out.classify()
			return -1
		}
		out.step(u)
		v = u
		if owned != nil && v != t && !owned[v] {
			out.Unique = len(out.Path)
			return v
		}
	}
	out.Success = true
	out.Unique = len(out.Path)
	out.classify()
	return -1
}

// HandOver is the budget rule of a walk stitched from GreedyCSRPartial
// segments, applied at each exit: res is the walk so far, ending at the exit,
// under the episode's scan budget maxScans (0 = unlimited). Greedy spends one
// scan per move, so the continuation may make maxScans - res.Moves scans.
// With none left, the whole-graph walk is cut on its next scan, the exit's:
// HandOver cuts res at its source and reports false.
func HandOver(maxScans int, res *Result) (scans int, ok bool) {
	if maxScans <= 0 {
		return 0, true
	}
	if scans = maxScans - res.Moves; scans <= 0 {
		res.FailAtSource(res.Path[0], FailDeadline)
		return 0, false
	}
	return scans, true
}

// GreedyCSR is the concrete-type fast path: Algorithm 1 from s toward t on a
// *graph.Graph under the standard objective
//
//	phi(v) = w_v / (wmin * intensity * ||x_v - x_t||^dim),
//
// with neighbor scans running directly over the CSR, position and weight
// arrays (no interface dispatch, no Objective closure, no score cache: each
// path vertex's list is scanned once, up to the target's rank when the
// target is on it, by the scorer above). The episode it produces is
// bit-identical to Greedy(g, NewStandard(g, t), s): identical scores in a
// score-equivalent comparison order, including the id tie-break.
//
// The graph must carry geometry (positions); weights may be nil (treated as
// 1, as Graph.Weight does). The walk keeps no state between episodes, so the
// Scratch is not touched — the parameter stays because every caller threads
// one through all its routing calls, RouteInto-style. Calls perform zero
// heap allocations once out's path buffer has grown —
// TestGreedyCSRZeroAlloc gates this with testing.AllocsPerRun.
func GreedyCSR(g *graph.Graph, t, s int, b Budget, _ *Scratch, out *Result) {
	greedyWalk(g, nil, t, s, nil, b, out)
}

// GreedyCSRPartial is GreedyCSR restricted to one shard of a Morton-prefix
// partition: it routes greedily from s toward t over the full CSR arrays but
// stops the moment the walk steps onto a vertex the shard does not own,
// returning that vertex so the caller can forward the continuation to the
// owning peer (core.EpisodeConfig.Owned routes it; internal/serve's sharded
// path drives it).
//
// The scores, comparison order and tie-breaks are exactly GreedyCSR's, so
// stitching the per-shard segments back together reproduces the single-node
// episode bit for bit: greedy under the standard objective is strictly
// φ-increasing, hence the walk never revisits a vertex even across shard
// boundaries, and Unique == len(Path) holds for every segment and for the
// merged path.
//
// Return values:
//
//	exit >= 0: the walk stepped onto non-owned vertex exit (never t —
//	    arriving at the target is delivery wherever it lives). out holds the
//	    segment so far: Path ends at exit, Success false, Failure FailNone —
//	    deliberately unclassified, because the episode is not over.
//	exit == -1: the episode terminated on this shard. out is classified
//	    exactly as GreedyCSR would: delivered, dead-end, or a budget cut
//	    (FailDeadline with the path reset to s).
//
// owned must have length g.N(); owned[s] is not required — a hop request
// that raced a membership change still routes, it just forwards again on the
// next step.
func GreedyCSRPartial(g *graph.Graph, t, s int, owned []bool, b Budget, _ *Scratch, out *Result) (exit int) {
	return greedyWalk(g, nil, t, s, owned, b, out)
}

// GreedyCSROverlay is GreedyCSR over a live overlay: Algorithm 1 from s
// toward t under the standard objective, scanning merged adjacency (base
// CSR minus per-vertex del plus add) without allocating. The episode is
// bit-identical to GreedyCSR(o.Materialize(), t, s, ...): identical scores
// in a score-equivalent comparison order, identical budget accounting —
// the invariant that lets a compactor hot-swap the folded snapshot in
// without changing a single answer. Added vertices score like any other,
// from the overlay's own position and weight stores.
//
// A tombstoned current vertex reads an empty adjacency and classifies as
// the existing dead-end failure — a walk that reaches a departed vertex
// (or starts on one) degrades, it never panics or hangs.
func GreedyCSROverlay(o *graph.Overlay, t, s int, b Budget, _ *Scratch, out *Result) {
	greedyWalk(o.Base(), o, t, s, nil, b, out)
}
