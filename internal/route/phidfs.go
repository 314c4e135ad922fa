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
// v.previous_Phi) lives in flat arrays indexed by vertex; message state is
// the triple (best_seen_objective, Phi, last_visited_vertex). The recursion
// of the pseudocode is unrolled into an explicit action loop so the
// constant-memory claim stays visible: each loop iteration is one EXPLORE or
// BACKTRACK_TO call.
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

// RouteInto runs Algorithm 2 from s toward obj.Target into out, reusing
// out's Path backing array and sc's unique-count marks. The per-vertex DFS state arrays are still allocated
// per episode — they are the protocol's distributed per-vertex memory, not
// scratch the caller owns.
func (a PhiDFS) RouteInto(g Graph, obj Objective, s int, sc *Scratch, out *Result) {
	n := g.N()
	maxMoves := a.MaxMoves
	if maxMoves == 0 {
		maxMoves = 64*n + 256
	}

	// Per-vertex state. vPhi is NaN while the vertex has never been
	// visited; NaN compares unequal to everything, which is exactly the
	// "not visited in the current Phi-DFS" semantics the pseudocode needs.
	vPhi := make([]float64, n)
	for i := range vPhi {
		vPhi[i] = math.NaN()
	}
	parent := make([]int32, n)
	started := make([]bool, n)
	prevPhi := make([]float64, n)

	// Message state (ROUTING lines 2-5).
	mBest := math.Inf(-1)
	mPhi := math.Inf(-1)
	mLast := s

	out.reset(s)
	res := out
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
			if vPhi[v] == mPhi {
				kind, cur = actBacktrack, mLast
				continue
			}
			best := BestNeighbor(g, obj, v)
			// Lines 11-12: potentially start a new DFS with Phi = phi(v).
			if phiV := obj.Score(v); phiV > mBest {
				mBest = phiV
				if best >= 0 && obj.Score(best) >= phiV {
					started[v] = true
					prevPhi[v] = mPhi
					mPhi = phiV
				}
			}
			// Line 13: INIT_VERTEX.
			vPhi[v] = mPhi
			parent[v] = int32(mLast)
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
			cursor := obj.Score(mLast)
			if u := nextChild(g, obj, v, int(parent[v]), mPhi, cursor); u >= 0 {
				kind, cur = actExplore, u
				continue
			}
			if started[v] {
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
				started[v] = false
				mPhi = prevPhi[v]
				vPhi[v] = prevPhi[v]
				mLast = int(parent[v])
				if u := BestNeighbor(g, obj, v); u >= 0 && obj.Score(u) >= mPhi {
					kind, cur = actExplore, u
					continue
				}
				if int(parent[v]) == v {
					res.Stuck = v
					res.finalize(sc, n)
					return
				}
				kind, cur = actBacktrack, int(parent[v])
				continue
			}
			if int(parent[v]) == v {
				// The bottom-level DFS exhausted the component of s
				// without finding the target.
				res.Stuck = v
				res.finalize(sc, n)
				return
			}
			kind, cur = actBacktrack, int(parent[v])
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
