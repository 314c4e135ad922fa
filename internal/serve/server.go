// Package serve is the resilient serving layer of the repository: it turns
// the batch-oriented routing engine (package core) into a long-running
// daemon component that answers s→t routing queries over HTTP and degrades
// gracefully instead of falling over.
//
// Every request flows through three guards before it reaches the engine:
//
//	request → admission pool → circuit breaker → budgeted engine episode
//	               │                 │                    │
//	            429 when          503 while          retry transient
//	          queue is full     (graph,proto)       failures with
//	                             is failing         capped backoff
//
// The admission Pool bounds concurrency and queue depth, shedding overload
// as fast 429s. A per-(graph, protocol) Breaker watches the engine's
// failure classes and fails fast while a pair is unhealthy, with half-open
// probes to recover. Each admitted request routes under a server-side
// deadline mapped onto the engine's episode budgets, and transient failure
// classes (deadline, and crashed-target under a seeded crash set) are
// retried with capped exponential backoff and deterministic jitter. Graph snapshots hot-swap atomically
// (POST /admin/swap) without dropping in-flight requests, and Drain lets
// SIGTERM wait for in-flight episodes before exit. Each Server owns its
// engine counters, and /metrics and /debug/vars render that server's state
// only, so an in-process fleet counts every episode once.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/graphio"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers bounds concurrently routing requests (default 4).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond Workers;
	// everything past Workers+QueueDepth is shed with 429 (default 16).
	QueueDepth int
	// RequestTimeout is the server-side deadline of one /route request,
	// retries and backoff included; each attempt's remaining share is mapped
	// onto the engine's episode wall-time budget (default 2s).
	RequestTimeout time.Duration
	// MaxHops is the per-attempt adjacency-query budget of a query that
	// enters at this daemon (default 1 << 20; 0 keeps the default, -1
	// disables). A sharded walk carries what is left of it on every hop, so
	// the entry daemon's MaxHops bounds the whole walk and a hop receiver's
	// own plays no part.
	MaxHops int
	// Retry is the transient-failure retry policy.
	Retry RetryPolicy
	// Breaker tunes every circuit breaker: per (graph, protocol) and per
	// forward (peer, graph).
	Breaker BreakerConfig
	// Logger is the server's structured logger (nil uses slog.Default). New
	// wraps its handler once: a record logged with a request's context
	// carries that request's X-Request-ID as request_id. A request logs at
	// Info only what is worth keeping (a rejection, a retry, an answer that
	// is not a 200); its routine records — admitted, a delivered first
	// attempt, a hop served — are Debug, and are not built below it.
	Logger *slog.Logger
	// Spans, when non-nil, samples requests into distributed phase spans
	// (queue wait, local route, forward RPCs, hedge waits, ...), propagated
	// over cluster RPCs via the Traceparent header and exported on GET
	// /debug/trace; a sampled request's local_route spans carry the hops its
	// walk took. The span log's own SampleRate and Seed decide which requests
	// trace and with what ids.
	Spans *obs.SpanLog
	// RequestIDSalt salts the generated request ids; 0 derives a salt from
	// the process start time (tests pin it for reproducible ids).
	RequestIDSalt uint64
	// HedgeAfter enables hedged hop forwards in cluster mode: when the
	// first replica has not answered after a deterministic delay derived
	// from this base (see hedgeDelay), a second attempt fires at
	// the next surviving replica and the first response wins. 0 disables
	// hedging — forwards fail over sequentially only.
	HedgeAfter time.Duration
	// AntiEntropyInterval paces the background replication repair loop
	// started by RunAntiEntropy (default 2s).
	AntiEntropyInterval time.Duration
}

// withDefaults fills unset fields with serviceable defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	switch {
	case c.MaxHops == 0:
		c.MaxHops = 1 << 20
	case c.MaxHops < 0:
		c.MaxHops = 0
	}
	c.Retry = c.Retry.withDefaults()
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 2 * time.Second
	}
	return c
}

// Server is the resilient routing service: a set of named graph snapshots,
// an admission pool, per-(graph, protocol) circuit breakers, and the HTTP
// handlers that tie them to the engine.
type Server struct {
	cfg  Config
	pool *Pool
	// counters count every engine episode this server routes as entry.
	counters *core.Counters

	// graphs is a copy-on-write name→network map: readers load the pointer
	// once and keep routing on that snapshot even while a swap installs a
	// successor, which is what makes hot-swap drop-free.
	graphs atomic.Pointer[map[string]*core.Network]

	// routeBreakers guard (graph, protocol) pairs, peerBreakers the forwards
	// to a (peer, graph).
	routeBreakers breakers
	peerBreakers  breakers

	// Cluster mode (nil clusterNode = single-node daemon).
	clusterNode   *cluster.Node
	clusterClient *http.Client

	forwards         atomic.Int64
	forwardFails     atomic.Int64
	hopsServed       atomic.Int64
	shardUnreachable atomic.Int64
	hedges           atomic.Int64
	hedgeWins        atomic.Int64
	failovers        atomic.Int64

	// hedgeTimer is the injectable clock behind hedged forwards: it returns
	// a channel that fires after d plus a stop function. Tests replace it to
	// fire the hedge deterministically; production wraps time.NewTimer.
	hedgeTimer func(d time.Duration) (<-chan time.Time, func())

	// Hop streams (hopwire.go). hopMu guards the per-peer stacks of idle
	// dialled streams, the accepted connections and hopClosed; hopServers is
	// the *http.Servers Close is registered with; hopStreamsOut counts
	// dialled streams, idle or checked out.
	hopMu         sync.Mutex
	hopIdle       map[string][]*hopStream
	hopIn         map[net.Conn]struct{}
	hopClosed     bool
	hopServers    sync.Map
	hopStreamsOut atomic.Int64
	hopRedials    atomic.Int64

	// Replication counters (journal shipping + anti-entropy; only move when
	// a mutation log and cluster mode are both enabled).
	shippedBatches  atomic.Int64
	shipFails       atomic.Int64
	importedBatches atomic.Int64
	aeRounds        atomic.Int64
	aePulled        atomic.Int64
	genLag          atomic.Int64

	logger *slog.Logger
	rids   *obs.RequestIDs

	// Distributed tracing (nil spans = phase tracing off). traceSeq numbers
	// entry requests for the deterministic sampling decision; localSeq
	// numbers internally-initiated traces (anti-entropy, journal ships) on a
	// separate id lane.
	spans    *obs.SpanLog
	traceSeq atomic.Uint64
	localSeq atomic.Uint64

	// Per-phase latency histograms behind smallworld_request_phase_seconds,
	// indexed by the phase constants in trace.go; recorded whether or not the
	// request is traced (atomic bumps, no allocation). hedgeWinLat times
	// hedged attempts that won their race, failoverLat the full failover pass
	// up to the non-first-choice success.
	phaseLat    [phaseCount]obs.LatencyHist
	hedgeWinLat obs.LatencyHist
	failoverLat obs.LatencyHist

	// Metrics federation counters (GET /cluster/metrics).
	fedScrapes     atomic.Int64
	fedScrapeFails atomic.Int64

	// drainMu orders request registration against Drain: handlers register
	// under RLock, Drain flips the flag under Lock, so no handler can slip
	// past the draining check and Add to a WaitGroup that is already being
	// waited on.
	drainMu  sync.RWMutex
	inflight sync.WaitGroup
	draining atomic.Bool
	retries  atomic.Int64
	swaps    atomic.Int64
	// quarantined counts swap snapshots rejected by checksum/format
	// verification — a nonzero value means something is corrupting files on
	// the path into the daemon.
	quarantined atomic.Int64
	// swapNoops counts /admin/swap path loads whose fingerprint matched the
	// installed graph — answered 200 without touching the graph map.
	swapNoops atomic.Int64

	// Mutation mode (nil mutLog = immutable snapshots only). The log owns
	// durability and publishes every commit on the slot mutGraph names (the
	// one mutable slot; EnableMutation subscribes to it). mutations counts
	// committed batches, compactSwaps the compacted snapshots hot-swapped in.
	mutMu        sync.Mutex
	mutLog       *mutate.Log
	mutGraph     string
	mutations    atomic.Int64
	compactSwaps atomic.Int64
}

// DefaultGraph is the graph name "" resolves to.
const DefaultGraph = "default"

// graphOrDefault resolves a graph name: "" is DefaultGraph.
func graphOrDefault(name string) string {
	if name == "" {
		return DefaultGraph
	}
	return name
}

// New builds a Server with cfg. Install at least one snapshot with
// AddNetwork before serving, or /readyz stays 503.
func New(cfg Config) *Server {
	c := cfg.withDefaults()
	salt := c.RequestIDSalt
	if salt == 0 {
		salt = uint64(time.Now().UnixNano())
	}
	logger := c.Logger
	if logger == nil {
		logger = slog.Default()
	}
	logger = obs.RequestLogger(logger)
	s := &Server{
		cfg:           c,
		pool:          NewPool(c.Workers, c.QueueDepth),
		counters:      core.NewCounters(),
		routeBreakers: breakers{cfg: c.Breaker},
		peerBreakers:  breakers{cfg: c.Breaker},
		hopIdle:       map[string][]*hopStream{},
		hopIn:         map[net.Conn]struct{}{},
		logger:        logger,
		spans:         c.Spans,
		rids:          obs.NewRequestIDs(salt),
	}
	s.hedgeTimer = func(d time.Duration) (<-chan time.Time, func()) {
		t := time.NewTimer(d)
		return t.C, func() { t.Stop() }
	}
	empty := map[string]*core.Network{}
	s.graphs.Store(&empty)
	return s
}

// AddNetwork atomically installs (or replaces) the named graph snapshot.
// In-flight requests keep the snapshot they resolved; only new requests see
// the replacement — hot-swap without a drop.
func (s *Server) AddNetwork(name string, nw *core.Network) {
	name = graphOrDefault(name)
	for {
		old := s.graphs.Load()
		next := make(map[string]*core.Network, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
		next[name] = nw
		if s.graphs.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Network resolves a named snapshot ("" = default).
func (s *Server) Network(name string) (*core.Network, bool) {
	name = graphOrDefault(name)
	nw, ok := (*s.graphs.Load())[name]
	return nw, ok
}

// GraphNames lists the installed snapshot names, sorted.
func (s *Server) GraphNames() []string {
	m := *s.graphs.Load()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// beginRequest registers one in-flight request unless the server is
// draining. Registration happens under drainMu so it cannot race Drain's
// flag flip and WaitGroup wait.
func (s *Server) beginRequest() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Drain flips the server into draining mode — /readyz turns 503 so load
// balancers stop sending traffic, new /route requests are rejected — and
// waits for every in-flight request to finish or ctx to expire. It is the
// SIGTERM half of graceful shutdown; pair it with http.Server.Shutdown,
// which closes listeners and waits for handlers at the connection level.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with requests in flight: %w", ctx.Err())
	}
}

// Handler returns the daemon's HTTP handler:
//
//	POST /route        one routing query (RouteRequest → RouteResponse)
//	POST /route/batch  many queries, one admission slot (BatchRouteRequest)
//	GET  /healthz      liveness (200 while the process runs)
//	GET  /readyz       readiness (503 while draining or graphless)
//	GET  /metrics      Prometheus text exposition (engine, pool, breakers,
//	                   retries, swaps, spans, Go runtime)
//	GET  /debug/vars   this server's engine and serving stats, expvar-shaped
//	GET  /debug/trace  sampled phase spans as JSONL (404 untraced)
//	GET  /debug/pprof  net/http/pprof profiles (heap, goroutine, cpu, ...)
//	POST /admin/swap   generate + atomically install a graph snapshot
//	POST /admin/mutate apply a journaled mutation batch to the live graph
//
// and the peer endpoints, which answer 404 until EnableCluster has run (and,
// for replicate and segment, until a mutation log is attached too):
//
//	POST /cluster/hop        continue a peer's greedy walk (HopRequest, or
//	                         a hop stream after Upgrade: smallworld-hop/1)
//	POST /cluster/gossip     one push/pull membership exchange
//	POST /cluster/replicate  import a shipped journal segment (replicas)
//	POST /cluster/segment    export a journal range to a lagging replica
//	GET  /cluster/metrics    every routable peer's /metrics, one exposition
//
// Every response carries an X-Request-ID header; the same id labels every
// slog line of the request (admission, retries, breaker trips, episodes).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", s.handleRoute)
	mux.HandleFunc("/route/batch", s.handleRouteBatch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/admin/swap", s.handleSwap)
	mux.HandleFunc("/admin/mutate", s.handleMutate)
	mux.HandleFunc("/cluster/hop", s.handleClusterHop)
	mux.HandleFunc("/cluster/gossip", s.handleClusterGossip)
	mux.HandleFunc("/cluster/replicate", s.handleClusterReplicate)
	mux.HandleFunc("/cluster/segment", s.handleClusterSegment)
	mux.HandleFunc("/cluster/metrics", s.handleClusterMetrics)
	return s.withRequestID(mux)
}

// withRequestID is the edge middleware: it adopts the caller's X-Request-ID
// when one is presented (and sane), minting one otherwise, returns it in
// the X-Request-ID response header, and puts the id in the request context,
// so every layer below — admission, retries, breaker trips, swaps, engine
// episodes — logs under one correlatable id through s.logger. Adoption is
// what stitches a cluster episode together: the entry daemon's id rides
// every forwarded hop, so at Debug one grep over all shards' logs
// reconstructs the whole walk.
func (s *Server) withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, id := s.requestScope(r.Context(), r.Header.Get("X-Request-ID"))
		w.Header().Set("X-Request-ID", id)
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// requestScope labels ctx with the request id: the presented one when it is
// sane, a minted one otherwise.
func (s *Server) requestScope(ctx context.Context, id string) (context.Context, string) {
	if id = sanitizeRequestID(id); id == "" {
		id = s.rids.Next()
	}
	return obs.WithRequestID(ctx, id), id
}

// sanitizeRequestID vets an incoming X-Request-ID for adoption: at most 64
// bytes of [0-9A-Za-z_.-], or "" (mint our own). The bound keeps hostile
// headers out of logs and response headers.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '_', c == '.', c == '-':
		default:
			return ""
		}
	}
	return id
}

// handleReady is the readiness probe: ready means not draining and at least
// one snapshot installed. The 200 body reports each installed snapshot's
// fingerprint (so operators and peers can verify what a daemon actually
// serves) and, in cluster mode, the shard and membership view; the 503
// cases stay plain text, probes branch on status alone.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	graphs := *s.graphs.Load()
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case len(graphs) == 0:
		http.Error(w, "no graph loaded", http.StatusServiceUnavailable)
	default:
		resp := ReadyResponse{Status: "ok", Graphs: make(map[string]ReadyGraph, len(graphs))}
		for name, nw := range graphs {
			resp.Graphs[name] = ReadyGraph{
				Fingerprint: fmt.Sprintf("%016x", nw.Graph.Fingerprint()),
				Vertices:    nw.Graph.N(),
				Edges:       nw.Graph.M(),
				Label:       nw.Label,
				Live:        s.readyLive(name, nw),
			}
		}
		if node := s.clusterNode; node != nil {
			resp.Cluster = &ReadyCluster{
				Self:          node.Self().ID,
				Shard:         node.Self().Shard,
				Replica:       node.Replica(),
				OwnedVertices: node.OwnedCount(),
				Peers:         node.Members().Snapshot(),
			}
			// Replication visibility without Prometheus: the local log
			// position plus each same-shard replica's gossip-learned position
			// delta, so operators can see divergence straight off /readyz.
			if log, _, _ := s.replicationLog(); log != nil {
				pos := log.Position()
				resp.Cluster.Live = &pos
				resp.Cluster.ReplicaLag = node.ReplicaLags(pos.Epoch, pos.Generation)
			}
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes an ErrorResponse, attaching Retry-After (seconds,
// rounded up) when retryAfter > 0.
func writeError(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...interface{}) {
	resp := ErrorResponse{Error: fmt.Sprintf(format, args...)}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		resp.RetryAfterMs = retryAfter.Milliseconds()
	}
	writeJSON(w, status, resp)
}

// maxRouteBody bounds the body of a client request that carries one query
// (POST /route) or one swap; maxBatchItemBody is what each item a batch may
// hold adds to that for POST /route/batch. maxBatch bounds those items: a
// larger batch is 413 before any routing happens. A batch occupies one
// admission slot for all its items, so the bound is what keeps one giant
// batch from starving the pool.
const (
	maxRouteBody     = 64 << 10
	maxBatchItemBody = 1 << 10
	maxBatch         = 256
)

// retryAfterHint is the Retry-After of a shed (429) or draining (503) answer;
// an open breaker hints its own remaining open time instead.
const retryAfterHint = time.Second

// decodeBody decodes a client's JSON request body of at most limit bytes into
// v. On failure it has answered — 413 past the limit, 400 for anything else —
// and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, 0, "bad request body: %v", err)
	return false
}

// handleSwap serves POST /admin/swap: build a snapshot — generate a fresh
// GIRG, or load a girgen file when Path is set — and atomically install it.
// The snapshot is fully built and checksum-verified before the swap, so
// requests never see a half-built or corrupt graph, and in-flight requests
// keep routing on the snapshot they already resolved. A file that fails
// verification is quarantined: 422, the counter ticks, nothing is installed.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	var req SwapRequest
	if !decodeBody(w, r, maxRouteBody, &req) {
		return
	}
	name := graphOrDefault(req.Graph)
	// The mutable slot is owned by the mutation log: installing an unrelated
	// snapshot under it would strand journaled mutations.
	if log, mutGraph := s.MutationLog(); log != nil && name == mutGraph {
		writeError(w, http.StatusConflict, 0, "graph %q is driven by the mutation log; swap a different slot", name)
		return
	}
	var nw *core.Network
	if req.Path != "" {
		g, err := graphio.ReadFile(req.Path)
		if err != nil {
			var corrupt *graphio.CorruptError
			if errors.As(err, &corrupt) {
				s.quarantined.Add(1)
				s.logger.WarnContext(ctx, "swap snapshot quarantined", "path", req.Path, "err", err)
				writeError(w, http.StatusUnprocessableEntity, 0, "snapshot rejected, not installed: %v", err)
				return
			}
			writeError(w, http.StatusBadRequest, 0, "load: %v", err)
			return
		}
		// Idempotent path swaps: a snapshot structurally identical to what
		// this slot already serves is acknowledged without touching the graph
		// map, so a retried deploy script cannot churn breakers or labels.
		if cur, ok := s.Network(name); ok && cur.Graph.Fingerprint() == g.Fingerprint() {
			s.swapNoops.Add(1)
			s.logger.InfoContext(ctx, "swap no-op: fingerprint already installed", "graph", name,
				"path", req.Path, "fingerprint", fmt.Sprintf("%016x", g.Fingerprint()))
			writeJSON(w, http.StatusOK, SwapResponse{
				Graph:       name,
				Label:       cur.Label,
				Vertices:    cur.Graph.N(),
				Edges:       cur.Graph.M(),
				Fingerprint: fmt.Sprintf("%016x", cur.Graph.Fingerprint()),
				NoOp:        true,
			})
			return
		}
		nw = &core.Network{Graph: g, Label: fmt.Sprintf("file(%s,n=%d)", filepath.Base(req.Path), g.N())}
	} else {
		if req.N < 2 {
			writeError(w, http.StatusBadRequest, 0, "n must be >= 2 (got %g)", req.N)
			return
		}
		p := girg.DefaultParams(req.N)
		p.FixedN = true
		if req.Beta != 0 {
			p.Beta = req.Beta
		}
		if req.Alpha != 0 {
			p.Alpha = req.Alpha
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		var err error
		nw, err = core.NewGIRG(p, seed, girg.Options{})
		if err != nil {
			writeError(w, http.StatusBadRequest, 0, "generate: %v", err)
			return
		}
	}
	s.AddNetwork(name, nw)
	s.swaps.Add(1)
	s.logger.InfoContext(ctx, "graph swapped", "graph", name, "label", nw.Label,
		"n", nw.Graph.N(), "m", nw.Graph.M(),
		"fingerprint", fmt.Sprintf("%016x", nw.Graph.Fingerprint()))
	writeJSON(w, http.StatusOK, SwapResponse{
		Graph:       name,
		Label:       nw.Label,
		Vertices:    nw.Graph.N(),
		Edges:       nw.Graph.M(),
		Fingerprint: fmt.Sprintf("%016x", nw.Graph.Fingerprint()),
	})
}

// ServeStats is the snapshot of the serving layer, rendered on /debug/vars
// as "smallworld.serve" next to the engine's "smallworld.engine".
type ServeStats struct {
	// Draining reports drain mode.
	Draining bool
	// Graphs lists the installed snapshot names.
	Graphs []string
	// InFlight / Waiting / Shed / Admitted describe the admission pool.
	InFlight int
	Waiting  int
	Shed     int64
	Admitted int64
	// Retries counts transient-failure retry attempts across all requests.
	Retries int64
	// Swaps counts installed snapshots via /admin/swap; Quarantined counts
	// swap files rejected by checksum/format verification; SwapNoops counts
	// path swaps skipped because the fingerprint was already installed.
	Swaps       int64
	Quarantined int64
	SwapNoops   int64
	// Mutations counts batches committed via /admin/mutate; CompactSwaps
	// counts compacted snapshots hot-swapped into the mutable slot. Mutate
	// snapshots the mutation log itself (nil without -mutate-dir).
	Mutations    int64
	CompactSwaps int64
	Mutate       *mutate.Stats `json:",omitempty"`
	// Breakers maps "graph/protocol" to breaker state ("closed", "open",
	// "half-open") with the cumulative open count in parentheses.
	Breakers map[string]string
	// Cluster describes shard membership and forwarding (nil on a
	// single-node daemon).
	Cluster *ClusterStats `json:",omitempty"`
}

// Stats snapshots the server's serving-layer state.
func (s *Server) Stats() ServeStats {
	st := ServeStats{
		Draining:     s.draining.Load(),
		Graphs:       s.GraphNames(),
		InFlight:     s.pool.InFlight(),
		Waiting:      s.pool.Waiting(),
		Shed:         s.pool.Shed(),
		Admitted:     s.pool.Acquired(),
		Retries:      s.retries.Load(),
		Swaps:        s.swaps.Load(),
		Quarantined:  s.quarantined.Load(),
		SwapNoops:    s.swapNoops.Load(),
		Mutations:    s.mutations.Load(),
		CompactSwaps: s.compactSwaps.Load(),
		Breakers:     s.routeBreakers.vars(),
	}
	if log, _ := s.MutationLog(); log != nil {
		ms := log.Stats()
		st.Mutate = &ms
	}
	s.clusterStats(&st)
	return st
}
