package route

// Scratch is the reusable per-worker state of Protocol.RouteInto: the
// buffers an interface-path episode needs that would otherwise be allocated
// fresh per call. One Scratch serves one goroutine at a time; engines keep
// one per worker (core.RunMilgram) or pool them per request (internal/serve)
// and thread the same value through every episode that worker runs. The CSR
// fast path takes one for the same call shape and leaves it alone: GreedyCSR
// keeps no state between episodes.
//
// The zero value is ready to use: buffers grow on first use and are retained
// across episodes. A Scratch never shrinks; sizing is bounded by the largest
// graph it has routed on.
type Scratch struct {
	// seen/seenEpoch marks visited vertices (unique-count): seen[v] is set
	// iff it equals seenEpoch, so clearing every mark between episodes is
	// one increment instead of an O(n) refill.
	seen      []uint32
	seenEpoch uint32
}

// beginSeen readies the visited-marks buffer for a graph on n vertices.
func (sc *Scratch) beginSeen(n int) {
	if len(sc.seen) < n {
		sc.seen = make([]uint32, n)
		sc.seenEpoch = 0
	}
	sc.seenEpoch++
	if sc.seenEpoch == 0 {
		clear(sc.seen)
		sc.seenEpoch = 1
	}
}

// uniqueCount returns the number of distinct vertices in path. With a
// Scratch it runs allocation-free over the epoch-stamped marks; without one
// it falls back to a throwaway map (the package-level Route).
func uniqueCount(path []int, sc *Scratch, n int) int {
	if sc == nil {
		seen := make(map[int]struct{}, len(path))
		for _, v := range path {
			seen[v] = struct{}{}
		}
		return len(seen)
	}
	sc.beginSeen(n)
	unique := 0
	for _, v := range path {
		if sc.seen[v] != sc.seenEpoch {
			sc.seen[v] = sc.seenEpoch
			unique++
		}
	}
	return unique
}
