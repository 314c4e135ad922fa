// Package cluster turns the single-process routing daemon into a
// Morton-sharded cluster: each daemon owns the vertices whose deep Morton
// (Z-order) code starts with its shard prefix, routes greedily while the
// walk stays local, and hands the walk to the owning peer for one segment
// when it crosses a shard boundary. Because greedy routing under the GIRG
// objective is geometrically local — the paper's whole point — most hops
// stay shard-local and a forward is rare.
//
// Three pieces:
//
//   - Membership: a Brahms-style gossip view. Every daemon keeps a bounded
//     partial view of its peers, pushes it to a deterministic pure-hash
//     sample of them each tick and pulls their view back (push/pull), so
//     the cluster converges without any coordinator. A suspicion-based
//     failure detector (injectable clock) demotes silent peers to suspect
//     and then down; forward failures reported by the serving layer strike
//     peers down faster than silence alone would. Down peers are only
//     revived by direct contact — a stale third-party view cannot resurrect
//     a dead shard.
//
//   - Node: the shard map — the deep Morton code of every vertex, the
//     ownership mask of the local prefix, and OwnersOf, which resolves the
//     peers responsible for a vertex among the currently routable members
//     (alive or merely suspect, serving the same snapshot fingerprint).
//
//   - Ring: a consistent-hash multi-endpoint picker for clients
//     (cmd/route -server a,b,c and cmd/loadgen), so query load spreads
//     deterministically across entry daemons.
//
// The package is transport-agnostic and imports no net/http: the serving
// layer (internal/serve) supplies the gossip Transport — the one peer call
// its journal ships, segment pulls and metrics scrapes share — and the
// hop-forwarding path with its per-peer circuit breakers; tests drive Membership with a fake clock and an
// in-memory transport, bit-identical at any GOMAXPROCS.
package cluster

// Peer identifies one shard daemon of the cluster. ID doubles as the
// transport address (host:port the daemon advertises); Shard is its Morton
// prefix in binary-digit form; Fingerprint is the %016x digest of the graph
// snapshot it serves, so peers can detect shard/graph mismatch before
// forwarding a hop into the wrong snapshot.
//
// A shard may be served by several daemons — a replica set: peers sharing
// the same Shard and Fingerprint. Replica distinguishes them (0 is the
// write primary of the shard's replicated mutation log, if any), and the
// live fields advertise the replicated log's position so anti-entropy can
// tell who is behind from gossip alone: Epoch counts applied batches of the
// current Generation, and LiveFP is the %016x digest of the live graph
// (base plus overlay). Daemons without a mutation log leave them zero.
type Peer struct {
	ID          string `json:"id"`
	Shard       string `json:"shard"`
	Fingerprint string `json:"fingerprint"`
	Replica     int    `json:"replica,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Generation  int    `json:"generation,omitempty"`
	LiveFP      string `json:"live_fp,omitempty"`
}

// SameShard reports whether two peers serve the same shard of the same
// snapshot — the replica-set relation.
func (p Peer) SameShard(q Peer) bool {
	return p.Shard == q.Shard && p.Fingerprint == q.Fingerprint
}

// GossipRequest is one push half of a gossip exchange: the sender
// introduces itself and shares its bounded view.
type GossipRequest struct {
	From Peer   `json:"from"`
	View []Peer `json:"view"`
}

// GossipResponse is the pull half: the receiver answers with itself and its
// own bounded view.
type GossipResponse struct {
	Self Peer   `json:"self"`
	View []Peer `json:"view"`
}
