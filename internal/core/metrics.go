package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/route"
)

// durBuckets is the number of log2 wall-time buckets: bucket b counts
// episodes with wall time in [2^(b-1), 2^b) microseconds (bucket 0 is
// < 1µs); the last bucket collects everything at or above 2^20 µs (~1 s).
const durBuckets = 22

// Counters are the engine's episode counters: atomic increments around every
// episode routed with them (EpisodeConfig.Counters, MilgramConfig.Counters),
// snapshotted by Stats. The caller owns them — a daemon keeps one set per
// server, so an in-process fleet counts each episode once — and a nil
// *Counters is off: every method is then a no-op and an episode does no
// atomic work.
type Counters struct {
	episodes    atomic.Int64
	moves       atomic.Int64
	truncations atomic.Int64
	failures    atomic.Int64
	panics      atomic.Int64
	batches     atomic.Int64
	durations   [durBuckets]atomic.Int64
	durTotalUs  atomic.Int64 // summed episode wall time, microseconds
	taxonomy    map[route.Failure]*atomic.Int64
}

// NewCounters returns a zeroed set of engine counters, one taxonomy counter
// per route.Failures class.
func NewCounters() *Counters {
	c := &Counters{taxonomy: map[route.Failure]*atomic.Int64{}}
	for _, f := range route.Failures() {
		c.taxonomy[f] = new(atomic.Int64)
	}
	return c
}

func durBucket(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us)
	if b >= durBuckets {
		b = durBuckets - 1
	}
	return b
}

// durBucketLabel names bucket b by its exclusive upper bound.
func durBucketLabel(b int) string {
	if b == durBuckets-1 {
		return fmt.Sprintf(">=%v", time.Duration(1<<(durBuckets-2))*time.Microsecond)
	}
	return fmt.Sprintf("<%v", time.Duration(1<<b)*time.Microsecond)
}

// Record folds one finished episode into the counters — the engine calls it
// for every episode it routes; a serving layer that stitches one walk from
// per-shard segments (EpisodeConfig.Owned, routed with nil Counters) calls it
// once with the stitched result. res must be a terminal, classified result.
func (c *Counters) Record(res route.Result, d time.Duration) {
	if c == nil {
		return
	}
	c.episodes.Add(1)
	c.moves.Add(int64(res.Moves))
	if res.Truncated {
		c.truncations.Add(1)
	}
	if !res.Success {
		c.failures.Add(1)
	}
	// Classify the failure for the taxonomy counters. Hand-rolled external
	// protocols may fail without setting Failure; count those as dead ends so
	// the taxonomy stays complete.
	f := res.Failure
	if !res.Success && f == route.FailNone {
		f = route.FailDeadEnd
	}
	if n := c.taxonomy[f]; n != nil {
		n.Add(1)
	}
	c.durations[durBucket(d)].Add(1)
	c.durTotalUs.Add(int64(d / time.Microsecond))
}

// recordCancelled counts episodes a cancelled batch never ran. They appear
// only under the "cancelled" taxonomy counter — not in Episodes, Failures or
// the wall-time histogram, which all count episodes that actually routed.
func (c *Counters) recordCancelled(n int) {
	if c != nil && n > 0 {
		c.taxonomy[route.FailCancelled].Add(int64(n))
	}
}

// recordPanic counts an episode whose protocol panicked (the engine converts
// the panic to an error; see routeView.routeOne).
func (c *Counters) recordPanic() {
	if c != nil {
		c.episodes.Add(1)
		c.failures.Add(1)
		c.panics.Add(1)
	}
}

// EngineStats is a snapshot of one set of engine Counters.
type EngineStats struct {
	// Episodes is the number of routing episodes finished by the engine.
	Episodes int64
	// Moves is the total number of message transmissions across episodes.
	Moves int64
	// Truncations counts episodes that hit a protocol's move cap.
	Truncations int64
	// Failures counts episodes that did not reach the target (including
	// panicked ones).
	Failures int64
	// Panics counts episodes whose protocol panicked (converted to errors).
	Panics int64
	// Batches is the number of RunMilgram/RunMilgramCtx invocations.
	Batches int64
	// FailureTaxonomy counts unsuccessful episodes by route.Failure
	// classification. Every taxonomy key is always present (zero-valued when
	// unseen) so dashboards can rely on the key set. "cancelled" counts
	// episodes skipped by cancelled batches, which the other counters omit
	// because those episodes never routed.
	FailureTaxonomy map[string]int64
	// EpisodeWallTime is a log2 histogram of per-episode wall time, keyed
	// by human-readable bucket labels. Every bucket is always present
	// (zero-valued when unseen), like FailureTaxonomy, so dashboards can
	// rely on a stable key set.
	EpisodeWallTime map[string]int64
	// WallTimeHist is the same histogram in exposition order with numeric
	// bounds — the form the Prometheus translation consumes (counts are
	// per-bucket, not cumulative). Excluded from the JSON (/debug/vars): the
	// overflow bound is +Inf, which encoding/json cannot represent (the
	// labelled map above is the JSON face of the histogram).
	WallTimeHist []DurationBucket `json:"-"`
	// WallTimeTotal is the summed wall time of all counted episodes
	// (microsecond resolution), the histogram's _sum.
	WallTimeTotal time.Duration
}

// DurationBucket is one bucket of the wall-time histogram.
type DurationBucket struct {
	// UpperSeconds is the bucket's exclusive upper bound in seconds
	// (math.Inf(1) for the overflow bucket).
	UpperSeconds float64
	// Count is the number of episodes that landed in this bucket.
	Count int64
}

// durBucketUpperSeconds is bucket b's exclusive upper bound in seconds:
// bucket b counts episodes with wall time in [2^(b-1), 2^b) microseconds.
func durBucketUpperSeconds(b int) float64 {
	if b == durBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<b) * 1e-6
}

// Stats snapshots the counters. They only ever grow; to meter one workload,
// diff two snapshots.
func (c *Counters) Stats() EngineStats {
	s := EngineStats{
		Episodes:        c.episodes.Load(),
		Moves:           c.moves.Load(),
		Truncations:     c.truncations.Load(),
		Failures:        c.failures.Load(),
		Panics:          c.panics.Load(),
		Batches:         c.batches.Load(),
		FailureTaxonomy: map[string]int64{},
		EpisodeWallTime: map[string]int64{},
	}
	for f, n := range c.taxonomy {
		s.FailureTaxonomy[string(f)] = n.Load()
	}
	s.WallTimeHist = make([]DurationBucket, durBuckets)
	for b := 0; b < durBuckets; b++ {
		n := c.durations[b].Load()
		s.EpisodeWallTime[durBucketLabel(b)] = n
		s.WallTimeHist[b] = DurationBucket{UpperSeconds: durBucketUpperSeconds(b), Count: n}
	}
	s.WallTimeTotal = time.Duration(c.durTotalUs.Load()) * time.Microsecond
	return s
}
