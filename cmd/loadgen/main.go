// loadgen is an open-loop load generator for the smallworldd routing
// daemon: it fires routing queries at a fixed request rate — on schedule,
// regardless of how slowly the daemon answers, which is what makes tail
// latencies honest — and prints a JSON summary with p50/p95/p99 latency,
// shed rate and success rate. Optional gates turn the summary into an exit
// code, so CI can fail a build on a latency regression:
//
//	loadgen -self -n 20000 -rps 200 -duration 10s -max-p99-ms 250 -min-success 0.99
//	loadgen -addr localhost:8080 -rps 500 -duration 30s -batch 16
//
// With -self, loadgen spins up an in-process daemon (same serving stack as
// smallworldd: admission pool, breakers, retries) on a loopback port and
// drives that — no second process, which is how the CI perf smoke runs.
// Query pairs are drawn from the default graph's vertex ids, read off the
// first daemon's /readyz.
// With -batch k, each request is a POST /route/batch of k queries sharing
// one admission slot; the configured -rps still counts requests, so the
// query throughput is rps×k.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/xrand"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// summary is the JSON report loadgen prints; field names are the contract
// the CI smoke job greps, so treat them as API.
type summary struct {
	RPS      float64 `json:"rps"`
	Duration float64 `json:"duration_s"`
	Batch    int     `json:"batch"`
	Sent     int64   `json:"requests_sent"`
	Queries  int64   `json:"queries_sent"`
	Errors   int64   `json:"transport_errors"`
	Shed     int64   `json:"shed"`
	Success  int64   `json:"success"`
	Failed   int64   `json:"failed"`
	ShedRate float64 `json:"shed_rate"`
	SuccRate float64 `json:"success_rate"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	// Cluster-aware accounting: a query is "local" when its answer needed
	// no cross-shard forward and was not degraded to shard-unreachable —
	// the population whose success rate must survive a shard crash.
	Forwards     int64   `json:"forwards"`
	Unreachable  int64   `json:"shard_unreachable"`
	LocalQueries int64   `json:"local_queries"`
	LocalSuccess int64   `json:"local_success"`
	LocalRate    float64 `json:"local_success_rate"`
	// Replication accounting: hedges are second forward attempts fired after
	// the hedge delay, failovers are forwards answered by a replica other
	// than the first choice. The hedge rate is hedges per forward — the
	// fraction of cross-shard hops that needed a second attempt.
	Hedges    int64   `json:"hedges"`
	Failovers int64   `json:"failovers"`
	HedgeRate float64 `json:"hedge_rate"`
	Overruns  int64   `json:"deadline_overruns"`
	// Churn accounting: dead-ends are definitive 200 answers whose walk got
	// stuck — under live mutations that includes walks into tombstones — and
	// the mutation stream reports its own acceptance.
	DeadEnds    int64   `json:"dead_ends"`
	DeadRate    float64 `json:"dead_end_rate"`
	MutSent     int64   `json:"mutations_sent"`
	MutOK       int64   `json:"mutations_ok"`
	MutRejected int64   `json:"mutations_rejected"`
	MutErrors   int64   `json:"mutation_errors"`
	// Phase attribution: server-side time split by phase, aggregated from
	// the Timings block every answered query carries. Queue vs route vs
	// forward tells apart "the daemon is saturated" (queue grows), "routing
	// got slower" (route grows) and "a peer is slow" (forward grows) without
	// collecting a single trace.
	Phases map[string]phaseStat `json:"phases,omitempty"`
	// SLO burn rate: the failure rate over answered queries as a multiple of
	// the budget the -slo-target leaves (burn 1.0 = failing exactly at
	// budget). Long is the whole run, short the last quarter of the
	// schedule; the gate trips only when BOTH exceed -max-burn-rate, the
	// standard multi-window rule that ignores a recovered early blip.
	SLOTarget   float64 `json:"slo_target,omitempty"`
	BurnLong    float64 `json:"burn_rate_long,omitempty"`
	BurnShort   float64 `json:"burn_rate_short,omitempty"`
	GateP99     float64 `json:"gate_max_p99_ms,omitempty"`
	GateSucc    float64 `json:"gate_min_success,omitempty"`
	GateLocal   float64 `json:"gate_min_local_success,omitempty"`
	GateOverrun float64 `json:"gate_overrun_ms,omitempty"`
	GateDead    float64 `json:"gate_max_dead_end,omitempty"`
	GateHedge   float64 `json:"gate_max_hedge_rate,omitempty"`
	GateBurn    float64 `json:"gate_max_burn_rate,omitempty"`
	GatesPass   bool    `json:"gates_pass"`
}

// phaseStat is one phase's latency summary in the report.
type phaseStat struct {
	Queries int64   `json:"queries"`
	MeanMs  float64 `json:"mean_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

// counters aggregates per-query outcomes across the generator goroutines.
type counters struct {
	shed, success, failed      atomic.Int64
	forwards, unreachable      atomic.Int64
	localQueries, localSuccess atomic.Int64
	deadEnds                   atomic.Int64
	hedges, failovers          atomic.Int64
	// Burn-rate windows: answered/failed over the whole run [0] and over
	// the last quarter of the schedule [1].
	winAnswered, winFailed [2]atomic.Int64
	// Per-phase server-side time from Timings blocks (queue, route,
	// forward, hedge, backoff — indexed by phaseOrder).
	phase [5]obs.LatencyHist
}

// phaseOrder names counters.phase slots; the spellings appear as keys of the
// summary's phases object.
var phaseOrder = [5]string{"queue", "route", "forward", "hedge", "backoff"}

// recordWindow scores one answered query into the burn-rate windows.
func (c *counters) recordWindow(short, failed bool) {
	c.winAnswered[0].Add(1)
	if failed {
		c.winFailed[0].Add(1)
	}
	if short {
		c.winAnswered[1].Add(1)
		if failed {
			c.winFailed[1].Add(1)
		}
	}
}

// recordPhases folds one query's Timings into the per-phase histograms (nil
// when the query failed before routing or the daemon predates Timings).
func (c *counters) recordPhases(tm *serve.Timings) {
	if tm == nil {
		return
	}
	us := [5]int64{tm.QueueUs, tm.RouteUs, tm.ForwardUs, tm.HedgeUs, tm.BackoffUs}
	for i, v := range us {
		if v > 0 || i < 2 { // queue and route are meaningful at 0; the rest mean "phase didn't run"
			c.phase[i].Record(time.Duration(v) * time.Microsecond)
		}
	}
}

func run(args []string, out *os.File) (int, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "comma-separated host:port list of running smallworldd daemons (mutually exclusive with -self); queries consistent-hash across them")
		self     = fs.Bool("self", false, "serve an in-process daemon on a loopback port and drive it")
		n        = fs.Float64("n", 10000, "GIRG size for -self")
		seed     = fs.Uint64("seed", 1, "random seed (graph sampling and query pairs)")
		workers  = fs.Int("workers", 0, "-self daemon worker pool size (0 = 4)")
		queue    = fs.Int("queue", 0, "-self daemon admission queue depth (0 = 16)")
		timeout  = fs.Duration("timeout", 2*time.Second, "-self daemon per-request deadline")
		rps      = fs.Float64("rps", 100, "requests per second, held open-loop")
		duration = fs.Duration("duration", 10*time.Second, "generation window")
		batch    = fs.Int("batch", 1, "queries per request: 1 = POST /route, k>1 = POST /route/batch of k")
		proto    = fs.String("proto", "", "protocol name for every query (empty = daemon default)")
		maxP99   = fs.Float64("max-p99-ms", 0, "gate: fail (exit 1) when p99 latency exceeds this many ms (0 = off)")
		minSucc  = fs.Float64("min-success", 0, "gate: fail (exit 1) when the success rate is below this fraction (0 = off)")
		minLocal = fs.Float64("min-local-success", 0, "gate: fail (exit 1) when the success rate over shard-local queries (no forwards, not shard-unreachable) is below this fraction (0 = off)")
		overrun  = fs.Float64("overrun-ms", 0, "gate: count requests slower than this many ms as deadline overruns and fail (exit 1) when any occur (0 = off)")

		mutRPS   = fs.Float64("mutate-rps", 0, "mutation batches per second streamed to POST /admin/mutate alongside the routing traffic (0 = off; the daemon needs -mutate-dir, or -self which journals into a temp dir)")
		mutDim   = fs.Int("mutate-dim", 2, "torus dimension of generated add-vertex positions (must match the daemon's graph)")
		mutSlot  = fs.String("mutate-graph", "", "graph slot the mutation stream targets (empty = \"default\"; replicated clusters drive \"live\")")
		maxDead  = fs.Float64("max-dead-end", 0, "gate: fail (exit 1) when the dead-end fraction of answered queries exceeds this (0 = off); under churn, walks through tombstoned vertices dead-end by design, so the gate bounds how much")
		maxHedge = fs.Float64("max-hedge-rate", 0, "gate: fail (exit 1) when hedged second attempts per forward exceed this fraction (0 = off)")

		sloTarget = fs.Float64("slo-target", 0, "success-rate SLO the burn-rate gate measures against, e.g. 0.99 (0 = burn gate off)")
		maxBurn   = fs.Float64("max-burn-rate", 0, "gate: fail (exit 1) when the failure rate exceeds this multiple of the SLO's error budget over BOTH the whole run and its last quarter (0 = off; requires -slo-target)")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if (*addr == "") == !*self {
		return 1, fmt.Errorf("exactly one of -addr or -self is required")
	}
	if *rps <= 0 || *duration <= 0 || *batch < 1 {
		return 1, fmt.Errorf("-rps, -duration and -batch must be positive")
	}
	if *maxBurn > 0 && (*sloTarget <= 0 || *sloTarget >= 1) {
		return 1, fmt.Errorf("-max-burn-rate requires -slo-target in (0, 1)")
	}

	base := *addr
	if *self {
		p := girg.DefaultParams(*n)
		p.FixedN = true
		g, err := girg.Generate(p, *seed, girg.Options{})
		if err != nil {
			return 1, err
		}
		// The in-process daemon logs WARN and up: per-episode INFO lines at
		// hundreds of RPS would drown the summary this tool exists to print.
		srv := serve.New(serve.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			RequestTimeout: *timeout,
			Logger: slog.New(slog.NewTextHandler(os.Stderr,
				&slog.HandlerOptions{Level: slog.LevelWarn})),
		})
		if *mutRPS > 0 {
			// The mutation stream needs a journal; a throwaway one matches the
			// tool's lifetime.
			dir, err := os.MkdirTemp("", "loadgen-mutate-*")
			if err != nil {
				return 1, err
			}
			defer os.RemoveAll(dir)
			mutLog, err := mutate.Open(dir, g, mutate.Config{})
			if err != nil {
				return 1, err
			}
			defer mutLog.Close()
			if err := srv.EnableMutation(mutLog, serve.DefaultGraph); err != nil {
				return 1, err
			}
			*mutDim = g.Space().Dim()
		} else {
			srv.AddNetwork(serve.DefaultGraph, &core.Network{
				Graph: g,
				Label: fmt.Sprintf("loadgen-self(n=%d)", g.N()),
			})
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 1, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Shutdown(context.Background())
		base = ln.Addr().String()
	}
	// Several -addr endpoints consistent-hash the queries: each (s, t) pair
	// lands on a stable daemon, and a crashed endpoint only loses its own
	// share when the survivor list is passed on the next run.
	ring := cluster.NewRing(strings.Split(base, ","))
	if ring == nil {
		return 1, fmt.Errorf("no usable address in %q", base)
	}
	client := &http.Client{Timeout: *timeout + 5*time.Second}
	first := "http://" + strings.Split(base, ",")[0]
	routing, err := readyGraph(client, first, serve.DefaultGraph)
	if err != nil {
		return 1, fmt.Errorf("query id space: %w", err)
	}
	verts := routing.Vertices
	if verts <= 1 {
		return 1, fmt.Errorf("%s serves %d vertices on graph %q, too few to route between", first, verts, serve.DefaultGraph)
	}

	// Pre-build one request body per tick: the generation loop must not
	// marshal JSON on the critical path or the schedule drifts under load.
	interval := time.Duration(float64(time.Second) / *rps)
	ticks := int(*duration / interval)
	if ticks < 1 {
		ticks = 1
	}
	rng := xrand.New(*seed + 1)
	bodies := make([][]byte, ticks)
	endpoints := make([]string, ticks)
	path := "/route"
	if *batch > 1 {
		path = "/route/batch"
	}
	for i := range bodies {
		var body []byte
		var err error
		var s0, t0 int
		if *batch == 1 {
			s0, t0 = rng.IntN(verts), rng.IntN(verts)
			body, err = json.Marshal(serve.RouteRequest{Protocol: *proto, S: s0, T: t0})
		} else {
			items := make([]serve.BatchItem, *batch)
			for j := range items {
				items[j] = serve.BatchItem{Protocol: *proto, S: rng.IntN(verts), T: rng.IntN(verts)}
			}
			s0, t0 = items[0].S, items[0].T
			body, err = json.Marshal(serve.BatchRouteRequest{Items: items})
		}
		if err != nil {
			return 1, err
		}
		bodies[i] = body
		// The first pair keys the endpoint choice, so a request is pinned to
		// its daemon across runs regardless of the survivor set's order.
		endpoints[i] = "http://" + ring.Pick(xrand.Hash64(uint64(s0), uint64(t0))) + path
	}

	// The open loop: request i fires at start + i·interval, on its own
	// goroutine, whether or not earlier requests have come back. A closed
	// loop (wait for the answer, then send) would throttle itself exactly
	// when the daemon slows down and hide the tail this tool exists to see.
	var (
		hist     obs.LatencyHist
		sent     atomic.Int64
		errs     atomic.Int64
		overruns atomic.Int64
		cnt      counters
		wg       sync.WaitGroup
	)

	// The mutation stream rides alongside the routing traffic: one
	// sequential sender at its own rate against the first endpoint (the
	// mutable daemon), generating joins, leaves and edge additions. It stops
	// when the routing window closes.
	var mut mutCounters
	mutCtx, mutCancel := context.WithCancel(context.Background())
	defer mutCancel()
	if *mutRPS > 0 {
		mutable, err := readyGraph(client, first, cmp.Or(*mutSlot, serve.DefaultGraph))
		if err != nil {
			return 1, fmt.Errorf("mutate stream: %w", err)
		}
		liveN := mutable.Vertices
		if mutable.Live != nil {
			liveN = mutable.Live.Vertices
		}
		go mutator(mutCtx, client, first+"/admin/mutate", *mutSlot, xrand.New(*seed+2),
			liveN, *mutDim, time.Duration(float64(time.Second) / *mutRPS), &mut)
	}

	start := time.Now()
	for i := 0; i < ticks; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		// A tick in the last quarter of the schedule also scores the short
		// burn-rate window.
		short := 4*i >= 3*ticks
		go func(endpoint string, body []byte, short bool) {
			defer wg.Done()
			sent.Add(1)
			t0 := time.Now()
			resp, err := client.Post(endpoint, "application/json", bytes.NewReader(body))
			took := time.Since(t0)
			if *overrun > 0 && ms(took) > *overrun {
				overruns.Add(1)
			}
			if err != nil {
				errs.Add(1)
				// The service failed to answer at all: every query of the
				// request burns error budget.
				for q := 0; q < *batch; q++ {
					cnt.recordWindow(short, true)
				}
				return
			}
			hist.Record(took)
			classify(resp, *batch, short, &cnt)
		}(endpoints[i], bodies[i], short)
	}
	wg.Wait()
	mutCancel()
	elapsed := time.Since(start)

	queries := sent.Load() * int64(*batch)
	// Success rate is over queries the daemon accepted: shedding is backpressure
	// working as designed and scored separately; transport errors count against
	// success (the service failed to answer at all).
	answered := queries - cnt.shed.Load()
	s := summary{
		RPS:          *rps,
		Duration:     elapsed.Seconds(),
		Batch:        *batch,
		Sent:         sent.Load(),
		Queries:      queries,
		Errors:       errs.Load(),
		Shed:         cnt.shed.Load(),
		Success:      cnt.success.Load(),
		Failed:       cnt.failed.Load() + errs.Load()*int64(*batch),
		Forwards:     cnt.forwards.Load(),
		Unreachable:  cnt.unreachable.Load(),
		LocalQueries: cnt.localQueries.Load(),
		LocalSuccess: cnt.localSuccess.Load(),
		Hedges:       cnt.hedges.Load(),
		Failovers:    cnt.failovers.Load(),
		Overruns:     overruns.Load(),
		DeadEnds:     cnt.deadEnds.Load(),
		MutSent:      mut.sent.Load(),
		MutOK:        mut.ok.Load(),
		MutRejected:  mut.rejected.Load(),
		MutErrors:    mut.errs.Load(),
		P50Ms:        ms(hist.Quantile(0.50)),
		P95Ms:        ms(hist.Quantile(0.95)),
		P99Ms:        ms(hist.Quantile(0.99)),
		GateP99:      *maxP99,
		GateSucc:     *minSucc,
		GateLocal:    *minLocal,
		GateOverrun:  *overrun,
		GateDead:     *maxDead,
		GateHedge:    *maxHedge,
		GateBurn:     *maxBurn,
		SLOTarget:    *sloTarget,
	}
	for i, name := range phaseOrder {
		if n := cnt.phase[i].Count(); n > 0 {
			if s.Phases == nil {
				s.Phases = map[string]phaseStat{}
			}
			s.Phases[name] = phaseStat{
				Queries: n,
				MeanMs:  ms(cnt.phase[i].Mean()),
				P99Ms:   ms(cnt.phase[i].Quantile(0.99)),
			}
		}
	}
	burnOK := true
	if *maxBurn > 0 {
		budget := 1 - *sloTarget
		burn := func(w int) float64 {
			answered := cnt.winAnswered[w].Load()
			if answered == 0 {
				return 0
			}
			return float64(cnt.winFailed[w].Load()) / float64(answered) / budget
		}
		s.BurnLong, s.BurnShort = burn(0), burn(1)
		// Multi-window rule: only a failure rate elevated both over the whole
		// run and right now (the last quarter) trips the gate.
		burnOK = s.BurnLong <= *maxBurn || s.BurnShort <= *maxBurn
	}
	if queries > 0 {
		s.ShedRate = float64(s.Shed) / float64(queries)
	}
	if answered > 0 {
		s.SuccRate = float64(s.Success) / float64(answered)
	}
	if s.LocalQueries > 0 {
		s.LocalRate = float64(s.LocalSuccess) / float64(s.LocalQueries)
	}
	if answered > 0 {
		s.DeadRate = float64(s.DeadEnds) / float64(answered)
	}
	if s.Forwards > 0 {
		s.HedgeRate = float64(s.Hedges) / float64(s.Forwards)
	}
	s.GatesPass = (*maxP99 <= 0 || s.P99Ms <= *maxP99) &&
		(*minSucc <= 0 || s.SuccRate >= *minSucc) &&
		(*minLocal <= 0 || s.LocalRate >= *minLocal) &&
		(*overrun <= 0 || s.Overruns == 0) &&
		(*maxDead <= 0 || s.DeadRate <= *maxDead) &&
		(*maxHedge <= 0 || s.HedgeRate <= *maxHedge) &&
		burnOK

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return 1, err
	}
	if !s.GatesPass {
		return 1, fmt.Errorf("gates failed: p99 %.1fms (max %.1f), success %.4f (min %.4f), local %.4f (min %.4f), overruns %d (limit %.1fms), dead-ends %.4f (max %.4f), hedge rate %.4f (max %.4f), burn %.2f/%.2f (max %.2f)",
			s.P99Ms, *maxP99, s.SuccRate, *minSucc, s.LocalRate, *minLocal, s.Overruns, *overrun, s.DeadRate, *maxDead, s.HedgeRate, *maxHedge, s.BurnLong, s.BurnShort, *maxBurn)
	}
	return 0, nil
}

// classify folds one HTTP response into the query counters. Route bodies
// are decoded on every status — classified failures (504 deadline, 502
// shard-unreachable) carry a full RouteResponse — so the cluster fields
// (forwards, shard-unreachable, shard-local success) stay honest. For a
// batch, per-item statuses are scored individually; an envelope-level
// rejection scores every query of the batch at once.
func classify(resp *http.Response, batch int, short bool, c *counters) {
	defer resp.Body.Close()
	if batch > 1 {
		var br serve.BatchRouteResponse
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&br) != nil {
			// Envelope rejection (shed, draining, malformed): every query of
			// the batch scores on the status alone.
			for i := 0; i < batch; i++ {
				scoreQuery(resp.StatusCode, false, 0, 0, 0, "", short, c)
			}
			return
		}
		for _, it := range br.Items {
			scoreQuery(it.Status, it.Attempts > 0, it.Forwards, it.Hedges, it.Failovers, it.Failure, short, c)
			c.recordPhases(it.Timings)
		}
		return
	}
	var rr serve.RouteResponse
	routed := json.NewDecoder(resp.Body).Decode(&rr) == nil && rr.Attempts > 0
	scoreQuery(resp.StatusCode, routed, rr.Forwards, rr.Hedges, rr.Failovers, rr.Failure, short, c)
	c.recordPhases(rr.Timings)
}

// scoreQuery maps one query onto the counters: 200 is a definitive answer
// (delivered or a proven dead end — the service did its job), 429/503 is
// load shedding, anything else is a failure. routed says the body was a
// real route answer, which is what makes the cluster accounting (forwards /
// shard-unreachable / local) trustworthy.
func scoreQuery(status int, routed bool, forwards, hedges, failovers int, failure string, short bool, c *counters) {
	switch status {
	case http.StatusOK:
		c.success.Add(1)
		c.recordWindow(short, false)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		c.shed.Add(1)
		return
	default:
		c.failed.Add(1)
		c.recordWindow(short, true)
	}
	if !routed {
		return
	}
	c.forwards.Add(int64(forwards))
	c.hedges.Add(int64(hedges))
	c.failovers.Add(int64(failovers))
	if failure == string(route.FailDeadEnd) {
		c.deadEnds.Add(1)
	}
	if failure == string(route.FailShardUnreachable) {
		c.unreachable.Add(1)
		return
	}
	if forwards == 0 {
		c.localQueries.Add(1)
		if status == http.StatusOK {
			c.localSuccess.Add(1)
		}
	}
}

// mutCounters aggregates the mutation stream's outcomes.
type mutCounters struct {
	sent, ok, rejected, errs atomic.Int64
}

// readyGraph reads graph slot's entry off the daemon's /readyz: its base
// vertex count is the id space of the query pairs, and for the mutable slot
// the live section's count is the one in-batch references must stay inside
// (a slot without one is not mutable, and the first batch comes back 404).
func readyGraph(client *http.Client, base, slot string) (serve.ReadyGraph, error) {
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		return serve.ReadyGraph{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.ReadyGraph{}, fmt.Errorf("%s/readyz: status %d", base, resp.StatusCode)
	}
	var ready serve.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		return serve.ReadyGraph{}, fmt.Errorf("%s/readyz: %w", base, err)
	}
	g, ok := ready.Graphs[slot]
	if !ok {
		return serve.ReadyGraph{}, fmt.Errorf("%s serves no graph %q", base, slot)
	}
	return g, nil
}

// mutator streams random churn batches at its own open-loop pace: joins (an
// added vertex wired to three existing ones), leaves (a tombstoned vertex)
// and edge additions. It tracks the live vertex count from acknowledged
// joins, which is what keeps in-batch references to the new vertex id
// valid; occasional 422s (an already-tombstoned leave target, a duplicate
// edge) are counted, not fatal — they exercise the rejection path the
// daemon promises to keep atomic.
func mutator(ctx context.Context, client *http.Client, target, slot string, rng *xrand.RNG,
	liveN, dim int, interval time.Duration, c *mutCounters) {
	start := time.Now()
	for i := 0; ; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			return
		}
		var ops []mutate.Op
		addedVertex := false
		switch r := rng.Float64(); {
		case r < 0.6:
			pos := make([]float64, dim)
			for j := range pos {
				pos[j] = rng.Float64()
			}
			ops = append(ops, mutate.Op{Op: mutate.OpAddVertex, Pos: pos, W: 1 + 2*rng.Float64()})
			seen := map[int]bool{}
			for len(seen) < 3 {
				v := rng.IntN(liveN)
				if !seen[v] {
					seen[v] = true
					ops = append(ops, mutate.Op{Op: mutate.OpAddEdge, U: liveN, V: v})
				}
			}
			addedVertex = true
		case r < 0.85:
			ops = append(ops, mutate.Op{Op: mutate.OpRemoveVertex, V: rng.IntN(liveN)})
		default:
			u, v := rng.IntN(liveN), rng.IntN(liveN)
			for u == v {
				v = rng.IntN(liveN)
			}
			ops = append(ops, mutate.Op{Op: mutate.OpAddEdge, U: u, V: v})
		}
		body, err := json.Marshal(serve.MutateRequest{Graph: slot, Ops: ops})
		if err != nil {
			c.errs.Add(1)
			continue
		}
		c.sent.Add(1)
		resp, err := client.Post(target, "application/json", bytes.NewReader(body))
		if err != nil {
			c.errs.Add(1)
			continue
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			c.ok.Add(1)
			if addedVertex {
				liveN++
			}
		case http.StatusUnprocessableEntity:
			c.rejected.Add(1)
		default:
			c.errs.Add(1)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
