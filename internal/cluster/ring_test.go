package cluster

import (
	"testing"
)

// TestRingStability checks keys remap only away from a removed endpoint:
// every key that stays on a surviving endpoint picks the same one.
func TestRingStability(t *testing.T) {
	full := NewRing([]string{"a:1", "b:1", "c:1"})
	reduced := NewRing([]string{"a:1", "c:1"})
	moved := 0
	for k := uint64(0); k < 2000; k++ {
		was, is := full.Pick(k), reduced.Pick(k)
		if was != "b:1" && was != is {
			t.Fatalf("key %d moved from surviving %s to %s", k, was, is)
		}
		if was == "b:1" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key ever landed on b:1")
	}
}

// TestRingBalance checks vnodes spread 3 endpoints within a loose factor.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"a:1", "b:1", "c:1"})
	counts := map[string]int{}
	const keys = 3000
	for k := uint64(0); k < keys; k++ {
		counts[r.Pick(k)]++
	}
	for addr, c := range counts {
		if c < keys/9 || c > keys*2/3 {
			t.Fatalf("endpoint %s got %d of %d keys — badly unbalanced: %v", addr, c, keys, counts)
		}
	}
}

// TestRingEdgeCases pins single-endpoint, duplicate and empty input.
func TestRingEdgeCases(t *testing.T) {
	if r := NewRing(nil); r != nil {
		t.Fatal("empty ring not nil")
	}
	if r := NewRing([]string{"", ""}); r != nil {
		t.Fatal("all-empty ring not nil")
	}
	r := NewRing([]string{"only:1", "only:1", ""})
	if got := r.Sequence(0); len(got) != 1 || got[0] != "only:1" {
		t.Fatalf("endpoints %v, want [only:1]", got)
	}
	for k := uint64(0); k < 10; k++ {
		if r.Pick(k) != "only:1" {
			t.Fatal("single-endpoint ring picked something else")
		}
	}
}

// TestRingDeterministic checks two rings over the same endpoints (any input
// order) pick identically.
func TestRingDeterministic(t *testing.T) {
	r1 := NewRing([]string{"a:1", "b:1", "c:1"})
	r2 := NewRing([]string{"c:1", "a:1", "b:1"})
	for k := uint64(0); k < 500; k++ {
		if r1.Pick(k) != r2.Pick(k) {
			t.Fatalf("input order changed pick for key %d", k)
		}
	}
}
