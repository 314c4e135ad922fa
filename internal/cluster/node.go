package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/torus"
	"repro/internal/xrand"
)

// Node is one daemon's shard map: the graph it serves, the deep Morton code
// of every vertex, the mask of vertices it routes locally (the local
// prefix's Morton share ∪ the graph's core), and the membership view that
// resolves which peer owns a foreign vertex.
type Node struct {
	self    Peer
	prefix  torus.Prefix
	g       *graph.Graph
	codes   []uint64
	bits    int
	owned   []bool
	ownedN  int
	members *Membership
}

// NewNode builds the shard map of prefix over g and wraps the membership
// view around it. cfg.Self is overwritten with the node's own identity
// (id, shard spelling, snapshot fingerprint).
func NewNode(g *graph.Graph, prefix torus.Prefix, id string, cfg Config) (*Node, error) {
	codes, bits, err := graph.MortonCodes(g)
	if err != nil {
		return nil, err
	}
	owned, err := graph.OwnedMask(codes, bits, prefix)
	if err != nil {
		return nil, err
	}
	n := &Node{
		self: Peer{
			ID:          id,
			Shard:       prefix.String(),
			Fingerprint: fmt.Sprintf("%016x", g.Fingerprint()),
			Replica:     cfg.Replica,
		},
		prefix: prefix,
		g:      g,
		codes:  codes,
		bits:   bits,
		owned:  owned,
	}
	for _, o := range owned {
		if o {
			n.ownedN++
		}
	}
	if n.ownedN == 0 {
		return nil, fmt.Errorf("cluster: shard %q owns no vertices of this snapshot", prefix.String())
	}
	// Every shard holds the whole snapshot and walks it with the same
	// scores, so routing the core locally everywhere keeps stitched paths
	// bit-identical; a walk exits only at a vertex outside owned, so
	// OwnersOf is never asked about a core vertex.
	for _, v := range graph.Core(g) {
		owned[v] = true
	}
	cfg.Self = n.self
	n.members = NewMembership(cfg)
	return n, nil
}

// Self returns the local peer identity, including the live-log position
// last published with SetLive.
func (n *Node) Self() Peer { return n.members.Self() }

// Replica returns the local daemon's replica id within its shard.
func (n *Node) Replica() int { return n.self.Replica }

// SetLive publishes the local replicated-log position into the membership's
// self entry, so every subsequent gossip exchange advertises it.
func (n *Node) SetLive(epoch uint64, generation int, liveFP string) {
	n.members.SetSelfLive(epoch, generation, liveFP)
}

// Shard returns the local Morton prefix.
func (n *Node) Shard() torus.Prefix { return n.prefix }

// Graph returns the snapshot the shard map was built over. The serving
// layer compares its fingerprint with that of the graph a request resolved:
// after a hot swap to another graph the mask no longer applies and routing
// falls back to single-node mode.
func (n *Node) Graph() *graph.Graph { return n.g }

// Members returns the membership view.
func (n *Node) Members() *Membership { return n.members }

// Owned reports whether the local shard routes vertex v locally (Morton
// share ∪ core).
func (n *Node) Owned(v int) bool { return n.owned[v] }

// OwnedMask exposes the mask of vertices the local shard routes locally
// (Morton share ∪ core) for the partial router; callers must not modify it.
func (n *Node) OwnedMask() []bool { return n.owned }

// OwnedCount returns the number of vertices in the local shard's Morton
// share; over the shards of a partition the counts sum to n.
func (n *Node) OwnedCount() int { return n.ownedN }

// OwnersOf resolves every routable replica of the shard owning vertex v:
// each peer's shard prefix must match v's Morton code and it must serve the
// same snapshot (fingerprint equality), so a hop is never forwarded into a
// mismatched graph. Alive peers come before suspect ones (Routable orders
// them), and within a liveness class replicas are ordered by (replica id,
// peer id) — a deterministic failover sequence: the forward path tries them
// in order and hedges onto the next one.
func (n *Node) OwnersOf(v int) []Peer {
	code := n.codes[v]
	var owners []Peer
	for _, p := range n.members.Routable() {
		if p.Fingerprint != n.self.Fingerprint {
			continue
		}
		pp, err := torus.ParsePrefix(p.Shard)
		if err != nil || pp.Valid(n.bits) != nil {
			continue
		}
		if pp.Matches(code, n.bits) {
			owners = append(owners, p)
		}
	}
	// Routable returns alive peers before suspect ones; a stable sort by
	// (replica, id) within the slice would reorder across that boundary, so
	// order replicas only within each liveness class.
	sortReplicas(owners, n.members)
	return owners
}

// sortReplicas orders each liveness-contiguous run of peers by (replica id,
// peer id). Routable's alive-before-suspect partition is preserved because
// membership state is re-derived per peer and used as the primary key.
func sortReplicas(peers []Peer, m *Membership) {
	if len(peers) < 2 {
		return
	}
	state := m.States()
	sort.SliceStable(peers, func(i, j int) bool {
		si, sj := state[peers[i].ID], state[peers[j].ID]
		if si != sj {
			return si < sj
		}
		if peers[i].Replica != peers[j].Replica {
			return peers[i].Replica < peers[j].Replica
		}
		return peers[i].ID < peers[j].ID
	})
}

// ReplicaSet returns the routable peers serving the local shard — the
// targets of journal shipping and the candidates anti-entropy pulls from.
// Self is not tracked by membership and therefore not included.
func (n *Node) ReplicaSet() []Peer {
	var out []Peer
	for _, p := range n.members.Routable() {
		if p.SameShard(n.self) {
			out = append(out, p)
		}
	}
	sortReplicas(out, n.members)
	return out
}

// ReplicaLag is one same-shard replica's replication divergence as seen from
// the local daemon: the peer's gossip-advertised live position against the
// local one. Gossip-learned positions lag direct contact by up to a gossip
// round, so BatchesBehind is a floor on convergence, not an exact debt — but
// a value that keeps growing across rounds is a replica falling behind.
type ReplicaLag struct {
	// Peer is the replica's advertised id, State its failure-detector state.
	Peer  string `json:"peer"`
	State string `json:"state"`
	// Epoch and Generation are the peer's advertised live position (zero
	// until its first gossip exchange carries one).
	Epoch      uint64 `json:"epoch"`
	Generation int    `json:"generation"`
	// BatchesBehind is local epoch minus peer epoch when both are on the
	// same generation: positive means the peer is behind this daemon,
	// negative that it is ahead (anti-entropy will pull from it). Zero when
	// generations differ — epochs on different generations don't compare.
	BatchesBehind int64 `json:"batches_behind"`
	// GenerationSkew is peer generation minus local generation; nonzero
	// flags a misconfigured shard (compaction is disabled under replication).
	GenerationSkew int `json:"generation_skew"`
}

// ReplicaLags reports the divergence of every same-shard replica against the
// local live position (epoch, generation), ordered like ReplicaSet. Peers
// that have not advertised a live position yet report their zero values.
func (n *Node) ReplicaLags(epoch uint64, generation int) []ReplicaLag {
	replicas := n.ReplicaSet()
	if len(replicas) == 0 {
		return nil
	}
	states := n.members.States()
	out := make([]ReplicaLag, 0, len(replicas))
	for _, p := range replicas {
		lag := ReplicaLag{
			Peer:           p.ID,
			State:          states[p.ID].String(),
			Epoch:          p.Epoch,
			Generation:     p.Generation,
			GenerationSkew: p.Generation - generation,
		}
		if p.Generation == generation {
			lag.BatchesBehind = int64(epoch) - int64(p.Epoch)
		}
		out = append(out, lag)
	}
	return out
}

// Transport carries one gossip exchange to a peer and returns its answer.
// The serving layer's *serve.Server is the production transport: it posts
// the exchange to the peer's /cluster/gossip on the cluster client every
// other peer call uses.
type Transport interface {
	Exchange(ctx context.Context, peer Peer, req GossipRequest) (GossipResponse, error)
}

// GossipPhase is the deterministic jitter offset a daemon waits before its
// first gossip round: a pure hash of the peer id spread uniformly over
// [0, interval). Daemons started together therefore de-synchronize
// immediately instead of gossiping in lockstep rounds forever — same idea
// as the retry backoff's pure-hash jitter, and like it bit-identical at any
// GOMAXPROCS (no shared RNG, no wall clock).
func GossipPhase(id string, interval time.Duration) time.Duration {
	if interval <= 0 {
		return 0
	}
	return time.Duration(xrand.Hash64(xrand.HashString(id), uint64(interval)) % uint64(interval))
}

// Every runs fn every interval until ctx is done, the first time one
// interval after id's GossipPhase offset. It is the cadence of every
// background loop a daemon runs against its peers — gossip here, the serving
// layer's anti-entropy — so a co-started fleet spreads each loop's traffic
// instead of firing in lockstep.
func Every(ctx context.Context, id string, interval time.Duration, fn func()) {
	if phase := GossipPhase(id, interval); phase > 0 {
		timer := time.NewTimer(phase)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			fn()
		}
	}
}

// RunGossip drives the push/pull loop until ctx is done: on the Every
// cadence it ticks the membership round, pushes the bounded view to that
// round's deterministic peer sample, and merges each answer. Each exchange
// is bounded by the interval, so a peer that never answers costs one round,
// not the loop. Exchange failures strike the peer; the failure detector
// does the rest.
func (n *Node) RunGossip(ctx context.Context, interval time.Duration, t Transport, logger *slog.Logger) {
	if logger == nil {
		logger = slog.Default()
	}
	Every(ctx, n.self.ID, interval, func() {
		targets := n.members.Tick()
		view := n.members.View()
		for _, target := range targets {
			ectx, cancel := context.WithTimeout(ctx, interval)
			resp, err := t.Exchange(ectx, target, GossipRequest{From: n.Self(), View: view})
			cancel()
			if err != nil {
				n.members.ReportFailure(target.ID)
				logger.Debug("gossip exchange failed", "peer", target.ID, "err", err)
				continue
			}
			n.members.Receive(resp.Self, resp.View)
		}
	})
}
