package route

// Scratch is the reusable per-worker state of Protocol.RouteInto, where every
// built-in protocol keeps its episode's vertex state. One Scratch serves one
// goroutine at a time; engines keep one per worker (core.RunMilgram) or pool
// them per request (internal/serve), so their episodes allocate nothing for
// that state. GreedyCSR takes one for the same call shape and leaves it alone.
//
// Every per-vertex slot obeys one epoch-stamp rule (stamps): v's slot is
// valid only while its stamp equals the current epoch, so an episode resets
// them all with one increment instead of an O(n) refill. The zero value is
// ready to use; buffers grow to the largest graph routed and never shrink.
type Scratch struct {
	// vert stamps the slots of the episode's protocol — history's visited
	// set, dfs, memo or visits — and then the unique count's marks.
	vert   stamps
	dfs    []dfsVertex // Φ-DFS's per-vertex memory
	memo   []float64   // lookahead's psi, NaN until scored
	visits []int       // gravity-pressure's visit counts
	// history's unexplored-edge heap, and its BFS back to the frontier
	// (one walk epoch per BFS).
	frontier frontierHeap
	walk     stamps
	prev     []int32
	queue    []int32
}

// stamps is the epoch-stamp rule: slot v is set iff stamp[v] == epoch.
type stamps struct {
	stamp []uint32
	epoch uint32
}

// begin clears every slot for n vertices: one increment (a real clear once
// every 2^32 begins).
func (m *stamps) begin(n int) {
	if len(m.stamp) < n {
		m.stamp = make([]uint32, n)
		m.epoch = 0
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

func (m *stamps) has(v int) bool { return m.stamp[v] == m.epoch }
func (m *stamps) set(v int)      { m.stamp[v] = m.epoch }

// begin clears the vertex stamps of sc (a fresh Scratch when nil) for n.
func (sc *Scratch) begin(n int) *Scratch {
	if sc == nil {
		sc = new(Scratch)
	}
	sc.vert.begin(n)
	return sc
}

// startPatch starts a patching protocol's episode from s on g: res reset to
// s, sc begun, and the move cap, maxMoves or 64n + 256 when 0.
func startPatch(g Graph, s, maxMoves int, sc *Scratch, res *Result) (*Scratch, int) {
	res.reset(s)
	if maxMoves == 0 {
		maxMoves = 64*g.N() + 256
	}
	return sc.begin(g.N()), maxMoves
}

// slot returns v's slot of vals, set to init the first time the episode
// touches v.
func slot[T any](sc *Scratch, vals []T, v int, init T) *T {
	if !sc.vert.has(v) {
		sc.vert.set(v)
		vals[v] = init
	}
	return &vals[v]
}

// grow returns s with at least n elements; stamps mask stale contents.
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		return make([]T, n)
	}
	return s
}
