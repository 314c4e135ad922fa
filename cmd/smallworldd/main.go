// smallworldd is the long-running routing daemon: it loads (or samples) a
// graph snapshot once and then answers s→t routing queries over HTTP/JSON
// forever, shedding overload with 429s, breaking circuits on failing
// (graph, protocol) pairs, retrying transient failures with backoff, and
// draining in-flight episodes on SIGTERM before exit.
//
// Endpoints: POST /route, POST /route/batch, GET /healthz, GET /readyz,
// GET /metrics, GET /debug/vars, GET /debug/trace, GET /debug/pprof/*,
// POST /admin/swap (see internal/serve). Every response carries an
// X-Request-ID header, and the same id labels every structured log line of
// the request.
//
// Examples:
//
//	smallworldd -n 100000 -log-format json -trace-sample 0.01 &
//	curl -s localhost:8080/route -d '{"s": 3, "t": 99, "protocol": "phi-dfs"}'
//	curl -s localhost:8080/route -d '{"s": 3, "t": 99, "faults": [{"model": "edge-drop", "rate": 0.2}]}'
//	curl -s localhost:8080/route/batch -d '{"items": [{"s": 3, "t": 99}, {"s": 7, "t": 42}]}'
//	curl -s localhost:8080/metrics                                 # Prometheus text exposition
//	curl -s localhost:8080/debug/trace                             # sampled phase spans and trajectories, JSONL
//	curl -s localhost:8080/admin/swap -d '{"n": 50000, "seed": 7}'
//	curl -s localhost:8080/admin/swap -d '{"path": "snap.girgb"}'   # checksum-verified; corrupt files get 422
//
// Live mutations (-mutate-dir) journal POST /admin/mutate batches through a
// write-ahead log before acknowledging them, so a SIGKILLed daemon replays
// to a bit-identical graph on restart with -resume; the overlay folds into
// checksummed snapshots in the background (-compact-at):
//
//	smallworldd -in snap.girgb -mutate-dir /var/lib/smallworld/mut &
//	curl -s localhost:8080/admin/mutate -d '{"ops": [{"op": "add-vertex", "pos": [0.5, 0.5], "w": 2}]}'
//	curl -s localhost:8080/admin/mutate -d '{"ops": [{"op": "remove-vertex", "v": 17}]}'
//	kill -9 %1 && smallworldd -in snap.girgb -mutate-dir /var/lib/smallworld/mut -resume
//
// Cluster mode (-shard) turns the daemon into one Morton shard of a
// cluster: it owns the vertices whose deep Morton code starts with the
// given binary prefix, answers shard-local greedy walks itself, and
// forwards each boundary crossing to the owning peer as a frame on a
// persistent hop stream (upgraded from POST /cluster/hop on the peer's own
// listener); the peer routes one segment and the entry stitches them.
// Membership converges by gossip (-peers seeds it); a dead shard degrades
// its own vertices to fast classified shard-unreachable failures while
// every other route keeps working:
//
//	smallworldd -addr :8081 -in snap.girgb -shard 0  -peers 127.0.0.1:8082,127.0.0.1:8083 &
//	smallworldd -addr :8082 -in snap.girgb -shard 10 -peers 127.0.0.1:8081,127.0.0.1:8083 &
//	smallworldd -addr :8083 -in snap.girgb -shard 11 -peers 127.0.0.1:8081,127.0.0.1:8082 &
//
// Replication (-replica/-replicas) serves each shard from a replica set:
// hop forwards fail over between replicas (and hedge a second attempt after
// -hedge-after), and a mutation log opened alongside -shard drives a
// replicated live graph under the "live" slot — replica 0 acks writes after
// its local fsynced journal append, ships the batches to the other replicas
// over POST /cluster/replicate, and the anti-entropy loop pulls whatever
// shipping missed until the replicas are bit-identical:
//
//	smallworldd -addr :8081 -in snap.girgb -shard 0 -replica 0 -replicas 127.0.0.1:8082 \
//	    -mutate-dir /var/lib/sw/s0-r0 -hedge-after 20ms &
//	smallworldd -addr :8082 -in snap.girgb -shard 0 -replica 1 -replicas 127.0.0.1:8081 \
//	    -mutate-dir /var/lib/sw/s0-r1 -hedge-after 20ms &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/torus"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "smallworldd:", err)
		os.Exit(1)
	}
}

// run builds the server from flags and serves until SIGTERM/SIGINT. When
// ready is non-nil, the bound address is sent on it once the listener is
// up (tests use this to serve on port 0).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("smallworldd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		in      = fs.String("in", "", "graph file from girgen (default: sample a fresh GIRG)")
		n       = fs.Float64("n", 10000, "GIRG size when sampling")
		seed    = fs.Uint64("seed", 1, "random seed for sampling")
		workers = fs.Int("workers", 0, "max concurrently routing requests (0 = 4)")
		queue   = fs.Int("queue", 0, "max requests waiting for a worker (0 = 16); beyond this, shed with 429")
		timeout = fs.Duration("timeout", 2*time.Second, "per-request deadline, retries included")
		maxHops = fs.Int("max-hops", 0, "per-attempt adjacency-query budget of a request that enters at this daemon, carried across shards on every hop (0 = engine default, -1 = unlimited)")
		retries = fs.Int("retries", 0, "total routing attempts per request (0 = 3)")
		drainT  = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		sample  = fs.Float64("trace-sample", 0, "deterministic trace sampling rate in [0, 1]: sampled requests record phase spans, their local_route spans carrying the per-hop trajectory, served on /debug/trace (0 = tracing off)")
		traceN  = fs.Int("trace-capacity", 0, "completed spans kept for /debug/trace (0 = 8192)")
		traceO  = fs.String("trace-out", "", "write the held spans as JSONL to this file on shutdown")

		mutateDir   = fs.String("mutate-dir", "", "enable live mutations: journal POST /admin/mutate batches under this directory")
		resume      = fs.Bool("resume", false, "replay an existing mutation log in -mutate-dir instead of refusing to open it")
		compactAt   = fs.Int("compact-at", 4096, "fold the overlay into a fresh snapshot once its delta reaches this many vertices (0 = never; forced to 0 under replication)")
		mutateGraph = fs.String("mutate-graph", "", "graph slot the mutation log drives (default: \"default\" single-node, \"live\" in cluster mode)")

		shard      = fs.String("shard", "", "cluster mode: binary Morton prefix this daemon owns (e.g. 0, 10, 11; empty = single-node)")
		peers      = fs.String("peers", "", "cluster mode: comma-separated peer addresses (host:port) to seed membership")
		advertise  = fs.String("advertise", "", "cluster mode: address peers reach this daemon at (default: the bound listen address)")
		gossipInt  = fs.Duration("gossip-interval", time.Second, "cluster mode: gossip round interval")
		replica    = fs.Int("replica", 0, "cluster mode: replica id within the shard (0 = the shard's write primary)")
		replicas   = fs.String("replicas", "", "cluster mode: comma-separated addresses of the other replicas serving this shard")
		hedgeAfter = fs.Duration("hedge-after", 0, "cluster mode: fire a hedged second forward attempt at the next replica after this delay (0 = off)")
		aeInterval = fs.Duration("anti-entropy", 2*time.Second, "replication: anti-entropy repair interval")
	)
	logCfg := obs.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logCfg.NewLogger(os.Stderr)
	if err != nil {
		return err
	}

	var g *graph.Graph
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		g, err = graphio.Read(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		p := girg.DefaultParams(*n)
		p.FixedN = true
		if g, err = girg.Generate(p, *seed, girg.Options{}); err != nil {
			return err
		}
	}
	nw := &core.Network{Graph: g, Label: fmt.Sprintf("smallworldd(n=%d)", g.N())}

	var spans *obs.SpanLog
	if *sample > 0 {
		// The span service name must be chosen before the listener binds, so
		// it is the advertised address when given and the listen flag
		// otherwise — under port 0 (tests) the spelling differs from the
		// bound address, but each daemon's spans still carry a stable,
		// distinct identity.
		service := *advertise
		if service == "" {
			service = *addr
		}
		spans = obs.NewSpanLog(obs.SpanLogConfig{
			Service:    service,
			Seed:       *seed,
			SampleRate: *sample,
			Capacity:   *traceN,
		})
	}
	srv := serve.New(serve.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		RequestTimeout:      *timeout,
		MaxHops:             *maxHops,
		Retry:               serve.RetryPolicy{MaxAttempts: *retries, Seed: *seed},
		Logger:              logger,
		Spans:               spans,
		HedgeAfter:          *hedgeAfter,
		AntiEntropyInterval: *aeInterval,
	})
	if *mutateDir == "" && *resume {
		return fmt.Errorf("-resume requires -mutate-dir")
	}

	// enableMutation opens the journal and attaches it to slot. In cluster
	// mode the call is deferred until the shard map is wired (the slot guard
	// and the advertised live position need the node), so the log handle is
	// closed from run's scope.
	var mutLog *mutate.Log
	defer func() {
		if mutLog != nil {
			mutLog.Close()
		}
	}()
	enableMutation := func(slot string) error {
		compact := *compactAt
		if *shard != "" && compact != 0 {
			// Generation shipping replicates journal batches, not folded
			// snapshots: a compaction would bump the primary's generation and
			// strand every replica on the old one. Replicated logs keep the
			// whole journal instead.
			logger.Info("compaction disabled under replication",
				"reason", "generation shipping does not replicate snapshots")
			compact = 0
		}
		var err error
		mutLog, err = mutate.Open(*mutateDir, g, mutate.Config{
			Resume:    *resume,
			CompactAt: compact,
			Logger:    logger,
		})
		if err != nil {
			return err
		}
		// EnableMutation installs the live network itself: after a resume from
		// a compacted log its base is the folded snapshot, not g.
		if err := srv.EnableMutation(mutLog, slot); err != nil {
			return err
		}
		st := mutLog.Stats()
		logger.Info("mutation log open", "dir", *mutateDir, "graph", slot,
			"generation", st.Generation, "replayed_batches", st.Replayed,
			"epoch", st.Overlay.Epoch,
			"fingerprint", fmt.Sprintf("%016x", mutLog.Fingerprint()))
		return nil
	}
	if *mutateDir != "" && *shard == "" {
		slot := *mutateGraph
		if slot == "" {
			slot = serve.DefaultGraph
		}
		if err := enableMutation(slot); err != nil {
			return err
		}
		if slot == serve.DefaultGraph {
			nw, _ = srv.Network(serve.DefaultGraph)
		} else {
			srv.AddNetwork(serve.DefaultGraph, nw)
		}
	} else {
		srv.AddNetwork(serve.DefaultGraph, nw)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("serving", "label", nw.Label, "n", g.N(), "m", g.M(),
		"fingerprint", fmt.Sprintf("%016x", g.Fingerprint()), "addr", ln.Addr().String(),
		"workers", *workers, "queue", *queue, "trace_sample", *sample)

	// SIGTERM/SIGINT triggers graceful drain: readiness goes 503, new
	// routes are rejected, in-flight episodes finish and write their
	// responses, then the listener closes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Cluster mode: the shard map needs the bound address (advertise
	// defaults to it, and port 0 resolves only after Listen), so it is wired
	// between Listen and Serve — before the first request can arrive.
	if *shard != "" {
		prefix, err := torus.ParsePrefix(*shard)
		if err != nil {
			return err
		}
		self := *advertise
		if self == "" {
			self = ln.Addr().String()
		}
		node, err := cluster.NewNode(g, prefix, self, cluster.Config{Seed: *seed, Replica: *replica})
		if err != nil {
			return err
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				node.Members().Add(cluster.Peer{ID: p, Fingerprint: node.Self().Fingerprint})
			}
		}
		// Same-shard replicas are seeded with the full shard coordinate, so
		// failover, hedging and journal shipping work from the first request
		// instead of waiting for gossip to converge.
		for _, p := range strings.Split(*replicas, ",") {
			if p = strings.TrimSpace(p); p != "" {
				node.Members().Add(cluster.Peer{
					ID:          p,
					Shard:       prefix.String(),
					Fingerprint: node.Self().Fingerprint,
				})
			}
		}
		srv.EnableCluster(node, nil)
		go node.RunGossip(ctx, *gossipInt, srv, logger)
		logger.Info("cluster mode", "shard", prefix.String(), "self", self,
			"replica", *replica, "owned_vertices", node.OwnedCount(),
			"seed_peers", len(node.Members().Snapshot()),
			"gossip_interval", *gossipInt, "hedge_after", *hedgeAfter)
		// Replicated live graph: the mutation log drives a separate slot
		// (default "live") — sharded routing stays on the immutable snapshot,
		// every replica serves the live graph whole, and the background
		// anti-entropy loop pulls whatever journal shipping missed.
		if *mutateDir != "" {
			slot := *mutateGraph
			if slot == "" {
				slot = "live"
			}
			if err := enableMutation(slot); err != nil {
				return err
			}
			go srv.RunAntiEntropy(ctx)
			logger.Info("replication on", "graph", slot, "replica", *replica,
				"anti_entropy", *aeInterval, "replica_seeds", len(strings.Split(*replicas, ",")))
		}
	} else if *peers != "" || *advertise != "" {
		return fmt.Errorf("-peers/-advertise require -shard")
	} else if *replicas != "" || *replica != 0 || *hedgeAfter != 0 {
		return fmt.Errorf("-replica/-replicas/-hedge-after require -shard")
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutdown draining", "drain_timeout", *drainT)
	dctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Warn("shutdown drain incomplete", "err", err)
	}
	// Hop streams are hijacked connections: drained of work by now, they
	// would otherwise sit open until the process exits.
	srv.Close()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if *traceO != "" && spans != nil {
		// The same JSONL GET /debug/trace serves, so tracestitch reads either.
		if err := atomicio.WriteFile(*traceO, spans.WriteJSONL); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		logger.Info("traces written", "path", *traceO, "spans", spans.Stats().Buffered)
	}
	logger.Info("shutdown clean")
	return nil
}
