package core

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/route"
)

// TestFailureIndexMap checks the taxonomy counters: every failure class
// lands under its own key, and neither a delivered episode nor an unknown
// classification moves any.
func TestFailureIndexMap(t *testing.T) {
	c := NewCounters()
	c.Record(route.Result{Success: true}, 0)
	c.Record(route.Result{Success: true, Failure: route.Failure("no-such-class")}, 0)
	for _, f := range route.Failures() {
		c.Record(route.Result{Failure: f}, 0)
	}
	tax := c.Stats().FailureTaxonomy
	if len(tax) != len(route.Failures()) {
		t.Fatalf("taxonomy has %d keys, want %d: %v", len(tax), len(route.Failures()), tax)
	}
	for _, f := range route.Failures() {
		if tax[string(f)] != 1 {
			t.Errorf("class %s counted %d times, want 1", f, tax[string(f)])
		}
	}
}

// TestNilCountersAreOff: every method of a nil *Counters is a no-op, so
// library callers that pass none pay no atomic work.
func TestNilCountersAreOff(t *testing.T) {
	var c *Counters
	c.Record(route.Result{}, time.Millisecond)
	c.recordCancelled(3)
	c.recordPanic()
}

// TestStatsWallTimeBuckets checks the histogram's stable shape: every one of
// the 22 buckets present in both the labelled map and the exposition slice,
// matching counts, a +Inf overflow bound, and a sum that moves with recorded
// episodes.
func TestStatsWallTimeBuckets(t *testing.T) {
	c := NewCounters()
	before := c.Stats()
	if len(before.EpisodeWallTime) != durBuckets {
		t.Fatalf("EpisodeWallTime has %d keys, want %d", len(before.EpisodeWallTime), durBuckets)
	}
	if len(before.WallTimeHist) != durBuckets {
		t.Fatalf("WallTimeHist has %d buckets, want %d", len(before.WallTimeHist), durBuckets)
	}
	for b := 0; b < durBuckets; b++ {
		if got, ok := before.EpisodeWallTime[durBucketLabel(b)]; !ok {
			t.Errorf("bucket %q missing from EpisodeWallTime", durBucketLabel(b))
		} else if got != before.WallTimeHist[b].Count {
			t.Errorf("bucket %d: map %d != hist %d", b, got, before.WallTimeHist[b].Count)
		}
		if b > 0 && before.WallTimeHist[b].UpperSeconds <= before.WallTimeHist[b-1].UpperSeconds {
			t.Errorf("bucket bounds not increasing at %d", b)
		}
	}
	if !math.IsInf(before.WallTimeHist[durBuckets-1].UpperSeconds, 1) {
		t.Error("overflow bucket bound is not +Inf")
	}

	// 3ms lands in [2^11, 2^12) µs: bucket 12 (upper bound 2^12 µs).
	c.Record(route.Result{Success: true}, 3*time.Millisecond)
	after := c.Stats()
	if d := after.WallTimeHist[12].Count - before.WallTimeHist[12].Count; d != 1 {
		t.Errorf("3ms episode moved bucket 12 by %d, want 1", d)
	}
	if d := after.WallTimeTotal - before.WallTimeTotal; d != 3*time.Millisecond {
		t.Errorf("WallTimeTotal moved by %v, want 3ms", d)
	}
}

// TestStatsExpvarJSON guards the JSON face of the snapshot: a daemon
// renders the engine stats on /debug/vars via encoding/json, and the
// histogram's +Inf bound must never leak into it (encoding/json rejects
// infinities).
func TestStatsExpvarJSON(t *testing.T) {
	b, err := json.Marshal(NewCounters().Stats())
	if err != nil {
		t.Fatalf("Stats() is not JSON-marshalable: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, leaked := decoded["WallTimeHist"]; leaked {
		t.Error("WallTimeHist leaked into the JSON")
	}
	wt, ok := decoded["EpisodeWallTime"].(map[string]any)
	if !ok || len(wt) != durBuckets {
		t.Errorf("EpisodeWallTime in JSON has %d keys, want %d", len(wt), durBuckets)
	}
}
