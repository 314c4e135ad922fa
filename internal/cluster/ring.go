package cluster

import (
	"sort"

	"repro/internal/xrand"
)

// Ring is a consistent-hash endpoint picker for multi-daemon clients
// (cmd/route -server a,b,c and cmd/loadgen): each key lands on a stable
// endpoint, and removing one endpoint only remaps its own keys. Vnodes
// smooth the load split. Immutable after construction, safe for concurrent
// Pick.
type Ring struct {
	addrs  []string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	addr int // index into addrs
}

// ringVnodes is the virtual-node count per endpoint — enough to keep the
// load split within a few percent of even for single-digit clusters.
const ringVnodes = 64

// NewRing builds a ring over the given endpoints (duplicates and empties
// dropped). A nil ring is returned for an empty list.
func NewRing(addrs []string) *Ring {
	seen := map[string]bool{}
	r := &Ring{}
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		r.addrs = append(r.addrs, a)
	}
	if len(r.addrs) == 0 {
		return nil
	}
	sort.Strings(r.addrs)
	r.points = make([]ringPoint, 0, len(r.addrs)*ringVnodes)
	for i, a := range r.addrs {
		h := xrand.HashString(a)
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: xrand.Hash64(h, uint64(v)), addr: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// Pick returns the endpoint owning key: the first ring point at or after
// the key's hash, wrapping around.
func (r *Ring) Pick(key uint64) string {
	h := xrand.Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.addrs[r.points[i].addr]
}

// Sequence returns every endpoint in the key's ring order: the Pick winner
// first, then each remaining distinct endpoint as the ring is walked
// onward. Clients use it as a deterministic failover order — when the
// primary endpoint answers shard-unreachable or is down, the episode
// retries against Sequence(key)[1].
func (r *Ring) Sequence(key uint64) []string {
	h := xrand.Hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, len(r.addrs))
	out := make([]string, 0, len(r.addrs))
	for i := 0; i < len(r.points) && len(out) < len(r.addrs); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, r.addrs[p.addr])
		}
	}
	return out
}
