package serve

import (
	"net/http"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/route"
)

// This file is the wire contract of the routing service, shared by the
// daemon (cmd/smallworldd), its HTTP handlers, and CLI clients
// (cmd/route -server). Keeping the types here means a client and the daemon
// can never disagree about field names or the failure-class mappings.

// RouteRequest is the body of POST /route: one s→t routing query against a
// named graph snapshot under a named protocol, optionally degraded by a
// per-request fault plan.
type RouteRequest struct {
	// Graph names the graph snapshot to route on; "" selects "default".
	Graph string `json:"graph,omitempty"`
	// Protocol is the registered protocol name; "" selects greedy.
	Protocol string `json:"protocol,omitempty"`
	// S and T are the source and target vertices.
	S int `json:"s"`
	T int `json:"t"`
	// Faults optionally layers a per-request fault plan (chaos queries,
	// fault-tolerance probes). Each spec resolves through the faults
	// registry; unknown models fail the request with 400.
	Faults []faults.Spec `json:"faults,omitempty"`
	// FaultSeed seeds the per-request fault plan (0 = derive from the
	// request). Retried attempts salt this seed so transient fault draws are
	// independent across attempts.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// IncludePath asks for the full vertex path in the response (off by
	// default: paths on poly-log graphs are short, but dashboards polling
	// success rates don't want them).
	IncludePath bool `json:"include_path,omitempty"`
}

// RouteResponse is the body of a completed /route query (HTTP 200 or a
// mapped failure status; see StatusFor).
type RouteResponse struct {
	// Graph and Protocol echo the resolved names ("" defaults filled in).
	Graph    string `json:"graph"`
	Protocol string `json:"protocol"`
	S        int    `json:"s"`
	T        int    `json:"t"`
	// Success reports delivery; Failure carries the taxonomy class of an
	// unsuccessful episode ("" on success).
	Success bool   `json:"success"`
	Failure string `json:"failure,omitempty"`
	// Moves and Unique describe the final attempt's episode.
	Moves  int `json:"moves"`
	Unique int `json:"unique"`
	// Path is the vertex path of the final attempt (only with IncludePath).
	Path []int `json:"path,omitempty"`
	// Attempts counts routing attempts, >1 when transient failures were
	// retried with backoff.
	Attempts int `json:"attempts"`
	// Forwards counts cluster hop forwards of the final attempt (0 on a
	// single-node daemon and for walks that stayed shard-local).
	Forwards int `json:"forwards,omitempty"`
	// Hedges counts hedged second attempts fired while forwarding the final
	// attempt's hops; Failovers counts forwards that succeeded at a replica
	// other than the first choice. Both cover the whole hop chain, so
	// loadgen's accounting sums honestly across entry daemons.
	Hedges    int `json:"hedges,omitempty"`
	Failovers int `json:"failovers,omitempty"`
	// ElapsedMs is the server-side wall time of the whole request, retries
	// and backoff included.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Timings attributes the request's server-side time to phases.
	Timings *Timings `json:"timings,omitempty"`
}

// Timings is the per-request time attribution: where the server-side wall
// time of one routed query went, in microseconds. The buckets overlap by
// design — HedgeUs is the armed hedge delay inside a forward, and ForwardUs
// covers whole forward passes — so the invariant is Queue+Route+Forward+
// Backoff ≲ Total, not equality; tracestitch computes the exact exclusive
// attribution from the spans. Batch items share their batch's queue wait
// (the batch holds one admission slot), so their QueueUs repeats it.
type Timings struct {
	// QueueUs is the admission-pool wait before a worker slot was acquired.
	QueueUs int64 `json:"queue_us"`
	// RouteUs is time spent in local engine episodes (full-graph or the
	// shard-local CSR segments), summed across attempts.
	RouteUs int64 `json:"route_us"`
	// ForwardUs is wall time spent forwarding the walk to owning peers —
	// whole /cluster/hop passes including failover and hedging, summed.
	ForwardUs int64 `json:"forward_us,omitempty"`
	// HedgeUs is the armed hedge delay: launch of the first replica attempt
	// until a hedged second attempt fired (contained in ForwardUs).
	HedgeUs int64 `json:"hedge_us,omitempty"`
	// BackoffUs is time slept between transient-failure retries.
	BackoffUs int64 `json:"backoff_us,omitempty"`
	// TotalUs is queue wait plus everything routeOne did — the request's
	// server-side wall time at microsecond granularity.
	TotalUs int64 `json:"total_us"`
}

// BatchRouteRequest is the body of POST /route/batch: many routing queries
// against one graph snapshot, admitted as a unit — the whole batch occupies
// one admission slot and runs its items sequentially on that worker, sharing
// one request deadline. Items succeed and fail individually (see
// BatchItemResult.Status); the batch envelope is 200 whenever the batch
// itself was served.
type BatchRouteRequest struct {
	// Graph names the snapshot every item routes on; "" selects "default".
	Graph string `json:"graph,omitempty"`
	// Items are the queries, answered in order. An empty batch is 400; a
	// batch larger than Config.MaxBatch is 413.
	Items []BatchItem `json:"items"`
}

// BatchItem is one query of a batch: RouteRequest minus the graph name,
// which the batch fixes for all items.
type BatchItem struct {
	// Protocol is the registered protocol name; "" selects greedy.
	Protocol string `json:"protocol,omitempty"`
	// S and T are the source and target vertices.
	S int `json:"s"`
	T int `json:"t"`
	// Faults optionally layers a per-item fault plan.
	Faults []faults.Spec `json:"faults,omitempty"`
	// FaultSeed seeds the per-item fault plan (0 = derive from the item).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// IncludePath asks for the item's full vertex path.
	IncludePath bool `json:"include_path,omitempty"`
}

// BatchRouteResponse is the body of a served POST /route/batch.
type BatchRouteResponse struct {
	// Graph echoes the resolved snapshot name.
	Graph string `json:"graph"`
	// Items holds one result per request item, in request order.
	Items []BatchItemResult `json:"items"`
	// ElapsedMs is the server-side wall time of the whole batch.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// BatchItemResult is one item's outcome. Status carries the HTTP status the
// same query would have received from POST /route — 200 for definitive
// answers (delivered, dead-end, truncated), 4xx for item-level validation
// errors, 5xx for degraded service (breaker open, deadline, crashed
// endpoint) — so batch clients branch exactly like single-query clients.
type BatchItemResult struct {
	// Status is the per-item HTTP-equivalent status (see StatusFor).
	Status int `json:"status"`
	// Error carries the item-level rejection message (unknown protocol,
	// vertex out of range, breaker open); empty when the item routed.
	Error string `json:"error,omitempty"`
	// RetryAfterMs hints when a breaker-rejected item is worth retrying.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Protocol echoes the resolved protocol name of a routed item.
	Protocol string `json:"protocol,omitempty"`
	S        int    `json:"s"`
	T        int    `json:"t"`
	// Success, Failure, Moves, Unique and Path describe the final attempt,
	// exactly as in RouteResponse.
	Success bool   `json:"success"`
	Failure string `json:"failure,omitempty"`
	Moves   int    `json:"moves"`
	Unique  int    `json:"unique"`
	Path    []int  `json:"path,omitempty"`
	// Attempts counts routing attempts of this item (>1 after retries).
	Attempts int `json:"attempts"`
	// Forwards counts cluster hop forwards of the item's final attempt;
	// Hedges and Failovers mirror RouteResponse.
	Forwards  int `json:"forwards,omitempty"`
	Hedges    int `json:"hedges,omitempty"`
	Failovers int `json:"failovers,omitempty"`
	// ElapsedMs is the item's share of the batch wall time.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Timings attributes the item's time to phases, exactly as in
	// RouteResponse (QueueUs repeats the batch's shared admission wait).
	Timings *Timings `json:"timings,omitempty"`
}

// HopRequest is one hop — the body of a JSON POST /cluster/hop, and what a
// request frame on a hop stream carries (hopwire.go): a shard daemon hands the
// continuation of a greedy walk to the peer owning the vertex the walk
// stepped onto. The receiver routes its own segment and forwards again if
// the walk crosses out of its shard, so the response always describes the
// rest of the episode, not just one segment.
type HopRequest struct {
	// Graph names the snapshot; it must be the receiver's clustered snapshot
	// (fingerprints are pre-checked by membership, a mismatch is 409).
	Graph string `json:"graph,omitempty"`
	// S is the vertex the walk entered the receiver's shard on; T is the
	// episode target.
	S int `json:"s"`
	T int `json:"t"`
	// DeadlineMs is the sender's remaining request budget; the receiver
	// routes under min(DeadlineMs, its own RequestTimeout). 0 is "none": a
	// frame carries the budget in µs instead, so a remainder under 1 ms
	// cannot read as none.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Depth counts hop forwards so far; past the cap the chain is cut off as
	// a truncated episode instead of looping forever.
	Depth int `json:"depth"`
}

// HopResponse is a classified continuation: the rest of the episode from
// HopRequest.S on, with downstream failure classes (including
// shard-unreachable) bubbled up. Any classified outcome is HTTP 200 — an
// answer — so the sender only treats transport errors and 5xx as forward
// failures.
type HopResponse struct {
	// Success, Failure and Stuck classify the episode's remainder exactly
	// like RouteResponse.
	Success bool   `json:"success"`
	Failure string `json:"failure,omitempty"`
	Stuck   int    `json:"stuck"`
	// Path is the continuation's vertex path, starting at HopRequest.S (the
	// sender drops the duplicated first vertex when stitching).
	Path []int `json:"path"`
	// Moves is len(Path)-1.
	Moves int `json:"moves"`
	// Forwards counts the hop forwards downstream of the receiver, itself
	// included once per boundary crossing.
	Forwards int `json:"forwards"`
	// Hedges and Failovers count the hedged second attempts and non-first-
	// choice successes of the downstream chain, bubbled up so the entry
	// daemon reports totals for the whole episode.
	Hedges    int `json:"hedges,omitempty"`
	Failovers int `json:"failovers,omitempty"`
}

// ReplicateRequest is the body of POST /cluster/replicate: the shard
// primary ships a journal segment — a contiguous range of canonically
// encoded mutation batches, bound to the base fingerprint and generation —
// to a replica, which imports it through the same validate→journal→publish
// pipeline its own /admin/mutate would use. Replicas answer with their
// position, so a pusher that raced ahead learns where to re-ship from.
type ReplicateRequest struct {
	// Graph names the mutable slot; "" selects the receiver's mutable slot.
	Graph string `json:"graph,omitempty"`
	// Segment carries the batches with their (base fingerprint, generation,
	// from-seq) coordinates.
	Segment mutate.Segment `json:"segment"`
}

// ReplicateResponse reports the receiver's replication coordinate after the
// import (200) or the one it refused the segment at (409).
type ReplicateResponse struct {
	Graph string `json:"graph"`
	// Applied counts the batches this request newly journaled and published
	// (already-held batches are verified and skipped).
	Applied int `json:"applied"`
	// Position is the receiver's post-import journal coordinate, without the
	// live fingerprint (mutate.Log.Head); Position.Seq is where the next
	// shipped segment must start.
	Position mutate.Position `json:"position"`
	// Self is the receiver's peer identity as it last advertised it; its live
	// fields trail an import by one digest (mutate.Log.Advertise).
	Self cluster.Peer `json:"self"`
}

// SegmentRequest is the body of POST /cluster/segment — the pull half of
// anti-entropy: a replica that learned from gossip that a peer is ahead
// asks it for the journal range it is missing.
type SegmentRequest struct {
	// Graph names the mutable slot; "" selects the receiver's mutable slot.
	Graph string `json:"graph,omitempty"`
	// BaseFP and Generation pin the history the puller is on; a mismatch is
	// 409 (the puller must not apply batches from a different history).
	BaseFP     string `json:"base_fingerprint"`
	Generation int    `json:"generation"`
	// From is the seq to start at — the puller's own Position.Seq.
	From int `json:"from"`
	// Max bounds the batches returned (0 = server cap).
	Max int `json:"max,omitempty"`
}

// SegmentResponse carries the pulled journal range and the responder's
// journal coordinate, so the puller knows whether another round is needed.
type SegmentResponse struct {
	Graph    string          `json:"graph"`
	Segment  mutate.Segment  `json:"segment"`
	Position mutate.Position `json:"position"`
	Self     cluster.Peer    `json:"self"`
}

// ReadyGraph describes one installed snapshot on GET /readyz.
type ReadyGraph struct {
	// Fingerprint is the structural hash of the snapshot (hex), the same
	// value girgen logs and /admin/swap returns — operators can verify what
	// a daemon is actually serving without touching admin endpoints.
	Fingerprint string `json:"fingerprint"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	Label       string `json:"label"`
	// Live describes the mutation overlay when this slot is driven by a
	// mutation log (-mutate-dir); nil on immutable snapshots.
	Live *ReadyLive `json:"live,omitempty"`
}

// ReadyLive is the live-overlay section of a ReadyGraph: what the graph
// looks like after the journaled mutations, against the base snapshot the
// Fingerprint field above describes.
type ReadyLive struct {
	// Fingerprint is the structural hash of the live graph — base plus
	// overlay — the value a crash-replayed daemon must reproduce bit for
	// bit (the churn-crash CI job asserts exactly this field).
	Fingerprint string `json:"fingerprint"`
	// Vertices and Edges count the live graph (tombstoned ids stay in the
	// vertex count; their adjacency reads empty).
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Generation is the journal generation (1 until the first compaction).
	Generation int `json:"generation"`
	// OverlayStats carries epoch and delta counts, flattened.
	graph.OverlayStats
}

// ReadyCluster describes the daemon's shard and membership view on
// GET /readyz when cluster mode is on.
type ReadyCluster struct {
	// Self is the advertised peer id; Shard its Morton prefix ("" = whole
	// space); Replica the daemon's replica id within the shard (0 = the
	// shard's write primary).
	Self    string `json:"self"`
	Shard   string `json:"shard"`
	Replica int    `json:"replica"`
	// OwnedVertices is the local shard's share of the snapshot.
	OwnedVertices int `json:"owned_vertices"`
	// Peers is the membership table with failure-detector states.
	Peers []cluster.PeerStatus `json:"peers"`
	// Live is the local replicated-log position (nil without a replicated
	// mutation log), and ReplicaLag the per-replica divergence computed from
	// the live positions peers advertised through gossip — epoch deltas,
	// generation skew — so operators can see who is behind without
	// Prometheus.
	Live       *mutate.Position     `json:"live,omitempty"`
	ReplicaLag []cluster.ReplicaLag `json:"replica_lag,omitempty"`
}

// ReadyResponse is the 200 body of GET /readyz (draining and graphless
// daemons answer plain-text 503s, which probes treat by status alone).
type ReadyResponse struct {
	Status  string                `json:"status"`
	Graphs  map[string]ReadyGraph `json:"graphs"`
	Cluster *ReadyCluster         `json:"cluster,omitempty"`
}

// ErrorResponse is the body of every non-2xx response the daemon writes.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMs mirrors the Retry-After header on 429/503 responses so
	// JSON-only clients don't need to parse headers.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// SwapRequest is the body of POST /admin/swap: build a snapshot — generate
// a fresh GIRG, or load a girgen file from disk — and atomically install it
// under a graph name without dropping in-flight requests (they keep routing
// on the snapshot they resolved).
type SwapRequest struct {
	// Graph names the slot to install into; "" selects "default".
	Graph string `json:"graph,omitempty"`
	// Path, when set, loads the snapshot from a girgen file (text or
	// binary; auto-detected) instead of generating one. The file's
	// checksums are verified before the swap: a corrupt snapshot is
	// quarantined with 422 and the installed graph is untouched. N, Seed,
	// Beta and Alpha are ignored when Path is set.
	Path string `json:"path,omitempty"`
	// N is the vertex count of the new GIRG snapshot.
	N float64 `json:"n"`
	// Seed drives generation (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Beta and Alpha override the GIRG defaults when non-zero.
	Beta  float64 `json:"beta,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
}

// SwapResponse reports the installed snapshot.
type SwapResponse struct {
	Graph    string `json:"graph"`
	Label    string `json:"label"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Fingerprint is the structural hash of the installed graph (hex),
	// the same value girgen logs: operators can check what a swap
	// installed without re-reading the file.
	Fingerprint string `json:"fingerprint"`
	// NoOp reports that the loaded snapshot's fingerprint matched the graph
	// already installed under this name, so nothing was swapped — retried
	// swap scripts are idempotent instead of churning the graph map.
	NoOp bool `json:"noop,omitempty"`
}

// MutateRequest is the body of POST /admin/mutate: one batch of graph
// mutations applied atomically to the daemon's mutable graph slot. The
// batch is validated against the live overlay, journaled (fsynced) and only
// then acknowledged and published — all-or-nothing: the first invalid op
// rejects the whole batch with 422 and the live graph is untouched.
type MutateRequest struct {
	// Graph names the slot to mutate; "" selects "default". Only the slot
	// the mutation log was enabled on is mutable.
	Graph string `json:"graph,omitempty"`
	// Ops is the batch, applied in order. Add-vertex ops are assigned the
	// next live vertex ids; later ops in the same batch may reference them.
	Ops []mutate.Op `json:"ops"`
}

// MutateResponse reports a committed mutation batch. By the time a client
// reads it, the batch is in the fsynced journal: a daemon SIGKILLed
// afterwards replays it on restart.
type MutateResponse struct {
	Graph string `json:"graph"`
	// Generation and Seq locate the batch's journal record.
	Generation int `json:"generation"`
	Seq        int `json:"seq"`
	// Epoch is the overlay epoch this batch published; /readyz reports the
	// same value once the batch is visible to routing.
	Epoch uint64 `json:"epoch"`
	// Assigned lists the vertex ids the batch's add-vertex ops created, in
	// op order — clients address the new vertices with these.
	Assigned []int `json:"assigned,omitempty"`
	// ElapsedMs is the server-side wall time (validation + journal fsync +
	// publish).
	ElapsedMs float64 `json:"elapsed_ms"`
}

// StatusFor maps a routing outcome to its HTTP status. Definitive protocol
// outcomes — delivery, a proven dead end, a protocol-truncated walk — are
// 200s: the service answered the question, and the body carries the class.
// Engine-inflicted failures map to 5xx because the *service* (not the
// query) degraded: deadline means the per-request budget ran out (504),
// crashed-target means the fault plan took the endpoint down (502), and
// cancelled means the daemon was draining (503). The same table appears in
// DESIGN.md §7.
func StatusFor(f route.Failure) int {
	switch f {
	case route.FailNone, route.FailDeadEnd, route.FailTruncated:
		return http.StatusOK
	case route.FailDeadline:
		return http.StatusGatewayTimeout
	case route.FailCrashedTarget, route.FailShardUnreachable:
		return http.StatusBadGateway
	case route.FailCancelled:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// ExitCodeFor maps a routing outcome to a process exit code — the CLI
// analogue of StatusFor, used by cmd/route so scripts can branch on *why*
// routing failed: success=0, dead-end=2, deadline=3, truncated=4,
// crashed-target=5, cancelled=6, shard-unreachable=7 (1 stays the generic
// error exit).
func ExitCodeFor(f route.Failure) int {
	switch f {
	case route.FailNone:
		return 0
	case route.FailDeadEnd:
		return 2
	case route.FailDeadline:
		return 3
	case route.FailTruncated:
		return 4
	case route.FailCrashedTarget:
		return 5
	case route.FailCancelled:
		return 6
	case route.FailShardUnreachable:
		return 7
	}
	return 1
}
