package route

// Failure classifies why a routing episode did not deliver its message. The
// taxonomy is shared by protocols, the fault-injection subsystem and the
// engine's episode counters, so chaos experiments can report *how* routing
// degrades, not just that it does.
type Failure string

const (
	// FailNone marks a successful episode (the zero value).
	FailNone Failure = ""
	// FailDeadEnd marks a protocol that gave up on its own: pure greedy
	// stuck in a local optimum, or a patching protocol that exhausted the
	// source's component without finding the target.
	FailDeadEnd Failure = "dead-end"
	// FailTruncated marks an episode that hit the protocol's own move cap
	// before succeeding or provably failing.
	FailTruncated Failure = "truncated"
	// FailDeadline marks an episode the engine cut off at its per-episode
	// hop or wall-time budget (core.MilgramConfig) — the classification that
	// turns a hang into a counted failure.
	FailDeadline Failure = "deadline"
	// FailCrashedTarget marks an episode whose source or target vertex was
	// permanently crashed by a fault plan: delivery is impossible and the
	// engine classifies it without running the protocol.
	FailCrashedTarget Failure = "crashed-target"
	// FailCancelled marks episodes a cancelled batch context skipped; they
	// appear in counters, not in per-episode Results.
	FailCancelled Failure = "cancelled"
	// FailShardUnreachable marks a cluster episode whose greedy walk crossed
	// into a shard no reachable peer serves: the owning daemon is down (or
	// serving a mismatched snapshot) and the hop forward failed fast instead
	// of hanging. Single-process engines never produce it.
	FailShardUnreachable Failure = "shard-unreachable"
)

// Failures lists the taxonomy in reporting order.
func Failures() []Failure {
	return []Failure{FailDeadEnd, FailTruncated, FailDeadline, FailCrashedTarget, FailCancelled, FailShardUnreachable}
}

// Result describes one routing episode.
type Result struct {
	// Success reports whether the message reached the target.
	Success bool
	// Path is the sequence of message positions, starting at the source;
	// for pure greedy routing it is strictly objective-increasing, for
	// patched protocols it includes backtracking moves.
	Path []int
	// Moves is the number of message transmissions, len(Path)-1.
	Moves int
	// Unique is the number of distinct vertices the message visited.
	Unique int
	// Stuck is the local-optimum vertex where pure greedy routing gave up,
	// or -1 (always -1 on success and for patched protocols that exhaust
	// the component instead).
	Stuck int
	// Truncated reports that the protocol hit its move cap before either
	// succeeding or provably failing (only patched protocols can set it).
	Truncated bool
	// Failure classifies an unsuccessful episode (FailNone on success).
	// Protocols report FailDeadEnd or FailTruncated; the engine overrides
	// with FailDeadline or FailCrashedTarget for episodes it cut off itself.
	Failure Failure
}

// reset readies r for a fresh episode starting at s, reusing the Path
// backing array. Every protocol builds into a *Result through this
// convention; Route is the one adapter for callers that want a fresh Result.
func (r *Result) reset(s int) {
	r.Path = append(r.Path[:0], s)
	r.Moves = 0
	r.Unique = 0
	r.Stuck = -1
	r.Truncated = false
	r.Success = false
	r.Failure = FailNone
}

func (r *Result) step(v int) {
	r.Path = append(r.Path, v)
	r.Moves++
}

// finalize classifies the finished episode and counts its distinct vertices
// (allocation-free when a Scratch is supplied). n is the vertex count of the
// routed graph, sizing the scratch marks.
func (r *Result) finalize(sc *Scratch, n int) {
	r.Unique = uniqueCount(r.Path, sc, n)
	r.classify()
}

// classify derives the Failure class from the Success/Truncated flags.
func (r *Result) classify() {
	switch {
	case r.Success:
		r.Failure = FailNone
	case r.Truncated:
		r.Failure = FailTruncated
	default:
		r.Failure = FailDeadEnd
	}
}

// CopyInto deep-copies r into out, reusing out's Path backing array. Engines
// use it where a Result built on reusable scratch buffers must outlive the
// next episode.
func (r *Result) CopyInto(out *Result) {
	path := append(out.Path[:0], r.Path...)
	*out = *r
	out.Path = path
}
