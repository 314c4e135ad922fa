package route

import (
	"math"
)

// PhiDFS is a faithful translation of the paper's Algorithm 2 (Section 5):
// a distributed patching protocol satisfying (P1)-(P3) in which the message
// and every vertex store only a constant number of pointers and objective
// values. Whenever the message reaches a vertex whose objective beats
// everything seen so far, a greedy depth-first search restricted to vertices
// of at least that objective is started; if that Phi-DFS completes without
// finding the target it is discarded and the paused outer DFS resumes.
//
// Per-vertex state (the paper's v.Phi, v.parent, v.started_new_dfs,
// v.previous_Phi) lives in the Scratch, one dfsVertex per vertex the message
// reached; message state is the triple (best_seen_objective, Phi,
// last_visited_vertex). The recursion of the pseudocode is unrolled into an
// explicit action loop so the constant-memory claim stays visible: each loop
// iteration is one EXPLORE or BACKTRACK_TO call.
type PhiDFS struct {
	// MaxMoves caps the number of message transmissions; 0 means the
	// default of 64*n + 256. The cap only guards against pathological
	// graphs — Theorem 3.4 gives O(log log n) moves a.a.s.
	MaxMoves int
}

// Name returns "phi-dfs".
func (PhiDFS) Name() string { return "phi-dfs" }

func init() { Register(PhiDFS{}) }

type phiDFSKind uint8

const (
	actExplore phiDFSKind = iota + 1
	actBacktrack
)

// dfsVertex is one vertex's memory in Algorithm 2. phi starts NaN, which
// compares unequal to everything: "not visited in the current Phi-DFS".
type dfsVertex struct {
	phi, prevPhi float64
	parent       int32
	started      bool
}

// RouteInto runs Algorithm 2 from s toward obj.Target into res, keeping every
// vertex's memory in sc (a nil sc routes on a fresh one).
func (a PhiDFS) RouteInto(g Graph, obj Objective, s int, sc *Scratch, res *Result) {
	n := g.N()
	sc, maxMoves := startPatch(g, s, a.MaxMoves, sc, res)
	sc.dfs = grow(sc.dfs, n)
	unvisited := dfsVertex{phi: math.NaN()}

	// Message state (ROUTING lines 2-5).
	mBest := math.Inf(-1)
	mPhi := math.Inf(-1)
	mLast := s

	pos := s // current message position

	// moveTo performs one message transmission, maintaining
	// m.last_visited_vertex. A "transition" to the current position is not
	// a transmission (the RESET_TO_OLD_PHI re-entry).
	moveTo := func(v int) {
		if v == pos {
			return
		}
		mLast = pos
		pos = v
		res.step(v)
	}

	kind, cur := actExplore, s
	for res.Moves <= maxMoves {
		switch kind {
		case actExplore:
			moveTo(cur)
			v := cur
			if v == obj.Target {
				res.Success = true
				res.finalize(sc, n)
				return
			}
			// Line 8: already visited in the current Phi-DFS?
			vx := slot(sc, sc.dfs, v, unvisited)
			if vx.phi == mPhi {
				kind, cur = actBacktrack, mLast
				continue
			}
			best := BestNeighbor(g, obj, v)
			// Lines 11-12: potentially start a new DFS with Phi = phi(v).
			if phiV := obj.Score(v); phiV > mBest {
				mBest = phiV
				if best >= 0 && obj.Score(best) >= phiV {
					vx.started = true
					vx.prevPhi = mPhi
					mPhi = phiV
				}
			}
			// Line 13: INIT_VERTEX.
			vx.phi = mPhi
			vx.parent = int32(mLast)
			// Lines 14-17: go to the best neighbor if one clears Phi.
			if best >= 0 && obj.Score(best) >= mPhi {
				kind, cur = actExplore, best
				continue
			}
			kind, cur = actBacktrack, mLast

		case actBacktrack:
			moveTo(cur)
			v := cur
			// Line 19: the next unexplored child of v in the current
			// Phi-DFS — best objective strictly below the child we just
			// finished (the cursor phi(m.last_visited_vertex)), at least
			// Phi, excluding the parent.
			vx := slot(sc, sc.dfs, v, unvisited)
			cursor := obj.Score(mLast)
			if u := nextChild(g, obj, v, int(vx.parent), mPhi, cursor); u >= 0 {
				kind, cur = actExplore, u
				continue
			}
			if vx.started {
				// Lines 24-27: the Phi-DFS rooted at v failed; resume the
				// previous DFS in the state where we left it, coming from
				// v.parent. Deviation from the literal pseudocode: re-entering
				// EXPLORE(v) as written would hit the "already visited" branch
				// (v.Phi == m.Phi after the reset) and backtrack past v with
				// cursor phi(v), silently skipping v's still-unscanned
				// children in the resumed DFS — which can strand parts of the
				// component and violate (P2). We instead resume by rescanning
				// v's children from the top, which matches the paper's stated
				// intent that vertices of the failed inner DFS are treated as
				// unvisited by the resumed DFS.
				vx.started = false
				mPhi = vx.prevPhi
				vx.phi = vx.prevPhi
				mLast = int(vx.parent)
				if u := BestNeighbor(g, obj, v); u >= 0 && obj.Score(u) >= mPhi {
					kind, cur = actExplore, u
					continue
				}
				if int(vx.parent) == v {
					res.Stuck = v
					res.finalize(sc, n)
					return
				}
				kind, cur = actBacktrack, int(vx.parent)
				continue
			}
			if int(vx.parent) == v {
				// The bottom-level DFS exhausted the component of s
				// without finding the target.
				res.Stuck = v
				res.finalize(sc, n)
				return
			}
			kind, cur = actBacktrack, int(vx.parent)
		}
	}
	res.Truncated = true
	res.finalize(sc, n)
}

// nextChild returns v's neighbor with the largest objective that is
// strictly below cursor, at least phi, and not the parent; -1 if none.
func nextChild(g Graph, obj Objective, v, parent int, phi, cursor float64) int {
	best := -1
	var bestScore float64
	for _, u32 := range g.Neighbors(v) {
		u := int(u32)
		if u == parent {
			continue
		}
		s := obj.Score(u)
		if s < phi || s >= cursor {
			continue
		}
		if best == -1 || better(s, bestScore, u, best) {
			best, bestScore = u, s
		}
	}
	return best
}
