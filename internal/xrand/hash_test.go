package xrand

import "testing"

// TestHash64 pins the mixer's basic properties: deterministic, argument-order
// sensitive, and length sensitive (so (a, b) never collides with (a) by
// construction of the fold). The pinned values are the outputs every fault
// plan, retry jitter, gossip order and trace id was recorded with; a change
// to them changes those streams.
func TestHash64(t *testing.T) {
	if Hash64(1, 2) != Hash64(1, 2) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 ignores argument order")
	}
	if Hash64(1) == Hash64(1, 0) {
		t.Fatal("Hash64 ignores argument count")
	}
	if f := HashFloat(3, 4); f < 0 || f >= 1 {
		t.Fatalf("HashFloat out of [0,1): %v", f)
	}
	for _, c := range []struct {
		got, want uint64
	}{
		{Hash64(1, 2), 0xe17c22a90890214a},
		{Hash64(), 0x9e3779b97f4a7c15},
		{HashString("node-a:7946"), 0xcbe6afc27d9077d0},
	} {
		if c.got != c.want {
			t.Errorf("hash = %#x, want %#x", c.got, c.want)
		}
	}
}
