// Package core is the public face of the library: it wraps the network
// models (GIRG, hyperbolic, Kleinberg) behind one Network API, dispatches
// routing through a pluggable protocol registry, and provides the
// instrumented Milgram-style experiment runner that all benchmarks and
// examples are built on — sample source/target pairs, route a message with
// a chosen protocol, and report success rates, hop counts and stretch.
//
// Protocols are route.Protocol values addressed by registered name; the
// five built-ins self-register and new ones plug in via route.Register without
// touching this package. Every episode feeds the caller's atomic Counters
// when it passes a set (a daemon renders them on /metrics and /debug/vars),
// an optional route.Observer streams per-move trajectories, and RunMilgramCtx
// threads context cancellation through the parallel batch runner.
//
// The engine is resilient by construction: per-episode hop and wall-time
// budgets (MilgramConfig.MaxHops, EpisodeTimeout) turn hangs into counted
// route.FailDeadline failures, a faults.Plan layers injectable fault models
// over every episode, episodes whose endpoint a fault plan crashed are
// classified route.FailCrashedTarget without running the protocol, a
// cancelled batch returns the partial report of its completed episodes
// (MilgramReport.Partial), and a panicking protocol or fault model fails
// only its batch with an error naming the episode.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/hrg"
	"repro/internal/kleinberg"
	"repro/internal/par"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Network bundles a sampled graph with the objective its model routes by.
type Network struct {
	// Graph is the sampled network.
	Graph *graph.Graph
	// Label describes the instance for reports.
	Label string
	// NewObjective builds the routing objective toward target t for
	// models that route by something other than the paper's phi: phi_H on
	// hyperbolic networks, lattice distance on Kleinberg grids. nil means
	// phi (route.NewStandard over Graph), and only then do greedy episodes
	// take the concrete zero-allocation walk (route.GreedyCSR) and does the
	// network accept a live overlay.
	NewObjective func(t int) route.Objective

	// live is the optionally attached copy-on-write overlay (see live.go);
	// routing loads it atomically so mutation batches publish without
	// tearing episodes. Networks are addressed by pointer — the atomic
	// field makes copying a Network a vet error by design.
	live atomic.Pointer[graph.Overlay]
}

// NewGIRG samples a GIRG network routing by the standard objective phi.
func NewGIRG(p girg.Params, seed uint64, opts girg.Options) (*Network, error) {
	g, err := girg.Generate(p, seed, opts)
	if err != nil {
		return nil, err
	}
	return &Network{
		Graph: g,
		Label: fmt.Sprintf("girg(n=%g,d=%d,beta=%g,alpha=%g)", p.N, p.Dim, p.Beta, p.Alpha),
	}, nil
}

// NewHRG samples a hyperbolic random graph. With hyperbolicObjective it
// routes by the geometric objective phi_H (Corollary 3.6); otherwise by the
// standard GIRG phi of the Section 11 embedding.
func NewHRG(p hrg.Params, seed uint64, hyperbolicObjective bool) (*Network, error) {
	// Beyond ~30k vertices the quadratic sampler dominates runtime; the
	// layered Fermi-Dirac sampler draws from the identical distribution.
	gen := hrg.Generate
	if p.N > 30000 {
		gen = hrg.GenerateFast
	}
	g, err := gen(p, seed)
	if err != nil {
		return nil, err
	}
	nw := &Network{Graph: g, Label: fmt.Sprintf("hrg(n=%d,alphaH=%g,T=%g,phi)", p.N, p.AlphaH, p.TH)}
	if hyperbolicObjective {
		nw.NewObjective = func(t int) route.Objective { return hrg.NewObjective(p, g, t) }
		nw.Label = fmt.Sprintf("hrg(n=%d,alphaH=%g,T=%g,phiH)", p.N, p.AlphaH, p.TH)
	}
	return nw, nil
}

// NewKleinbergGrid samples Kleinberg's lattice model routing by lattice
// distance.
func NewKleinbergGrid(p kleinberg.GridParams, seed uint64) (*Network, error) {
	gr, err := kleinberg.GenerateGrid(p, seed)
	if err != nil {
		return nil, err
	}
	return &Network{
		Graph:        gr.Graph(),
		Label:        fmt.Sprintf("kleinberg(L=%d,q=%d,r=%g)", p.L, p.Q, p.R),
		NewObjective: gr.Objective,
	}, nil
}

// NewKleinbergContinuum samples the lattice-free continuum variant routing
// by geometric distance.
func NewKleinbergContinuum(p kleinberg.ContinuumParams, seed uint64) (*Network, error) {
	g, err := kleinberg.GenerateContinuum(p, seed)
	if err != nil {
		return nil, err
	}
	return &Network{
		Graph: g,
		Label: fmt.Sprintf("kleinberg-continuum(n=%d,q=%d,alpha=%g)", p.N, p.Q, p.AlphaDecay),
		NewObjective: func(t int) route.Objective {
			return route.NewGeometric(g, t)
		},
	}, nil
}

// Giant returns the vertex ids of the largest component of the base graph,
// memoized on the graph (graph.Graph.Giant; callers must not modify it).
// With a live overlay attached the membership is a snapshot of the base:
// churn can tombstone pool vertices (their episodes fail as dead ends, which
// is the measurement E17 wants) and added vertices join the pool only after
// a compaction folds them into the base.
func (nw *Network) Giant() []int { return nw.Graph.Giant() }

// Route runs one routing episode from s to t under the named protocol (the
// zero value selects greedy). Observers, if any, receive the episode's
// per-move events (step order, episode 0) after the episode finishes.
func (nw *Network) Route(proto Protocol, s, t int, obs ...route.Observer) (route.Result, error) {
	cfg := EpisodeConfig{Protocol: proto, S: s, T: t}
	if len(obs) > 0 {
		cfg.Observer = route.ObserverFunc(func(ev route.MoveEvent) {
			for _, o := range obs {
				if o != nil {
					o.Move(ev)
				}
			}
		})
	}
	return nw.RouteEpisode(cfg)
}

// budgetStop is the sentinel the budget guard panics with to unwind opaque
// protocol code once an episode exhausts its hop or wall-time budget;
// routeView.routeOne recovers it and classifies the episode
// route.FailDeadline.
type budgetStop struct{}

// budgetGraph enforces per-episode budgets at the one point every protocol
// must pass through: adjacency queries. The hop budget counts queries — a
// deterministic proxy for hops, since greedy-style protocols query each
// visited vertex once — so budget cuts land on the same query at any worker
// count. The wall-time budget is checked on the same path; it is inherently
// nondeterministic and meant as a hang backstop, not a reproducible cutoff.
type budgetGraph struct {
	inner   route.Graph
	b       route.Budget // MaxScans caps the queries
	queries int
}

func (b *budgetGraph) N() int               { return b.inner.N() }
func (b *budgetGraph) Weight(v int) float64 { return b.inner.Weight(v) }

func (b *budgetGraph) Neighbors(v int) []int32 {
	if b.b.Spent(&b.queries) {
		panic(budgetStop{})
	}
	return b.inner.Neighbors(v)
}

// workerState is the reusable per-worker routing state of a batch run: the
// scratch buffers and the Result every episode of one worker builds into.
// par.ForEachWorkerCtx guarantees one worker index never runs concurrently
// with itself, so the state needs no locking.
type workerState struct {
	sc  route.Scratch
	out route.Result
}

// episode is the engine's per-routing outcome slot.
type episode struct {
	done      bool // routed (false only when the batch was cancelled first)
	success   bool
	truncated bool
	failure   route.Failure
	moves     int
	stretch   float64 // 0 when not computed or failed
	path      []int   // retained only for observer replay
	err       error
}

// MilgramConfig configures a batch routing experiment.
type MilgramConfig struct {
	// Pairs is the number of (s, t) routings to attempt.
	Pairs int
	// Protocol selects the routing protocol by registered name. The zero
	// value "" explicitly means the default protocol, greedy — so a
	// zero-valued config routes greedily rather than erroring. Any other
	// value must be a registered name; unknown names fail with an error
	// listing the registered protocols.
	Protocol Protocol
	// Seed drives pair selection.
	Seed uint64
	// WholeGraph samples pairs from all vertices instead of the giant
	// component (greedy then also fails on isolated/small components, as
	// in Milgram's real experiment).
	WholeGraph bool
	// ComputeStretch additionally runs a BFS per pair to report stretch
	// (hop count divided by shortest-path distance).
	ComputeStretch bool
	// Objective optionally overrides the network's objective factory
	// (e.g. relaxed objectives for E7).
	Objective func(t int) route.Objective
	// MaxHops caps the adjacency queries an episode may make before the
	// engine cuts it off as route.FailDeadline (0 = no engine cap; protocols
	// keep their own move caps, reported as route.FailTruncated). Queries
	// are a deterministic proxy for hops — greedy-style protocols query each
	// visited vertex once — so the cap lands identically at any worker count.
	MaxHops int
	// EpisodeTimeout caps an episode's wall time, turning a hung or
	// pathologically slow episode into a counted route.FailDeadline failure
	// instead of a stalled batch. Unlike MaxHops it is nondeterministic;
	// use it as a backstop, not as a reproducible cutoff. 0 disables it.
	EpisodeTimeout time.Duration
	// Faults layers a fault-injection plan over every episode: the plan is
	// bound to the graph once per batch, then each episode routes on its own
	// faulty view (see package faults). Episodes whose source or target the
	// plan crashed are classified route.FailCrashedTarget without running
	// the protocol. nil injects nothing.
	Faults *faults.Plan
	// Observer, when non-nil, receives the per-move events of every
	// episode after the batch has routed: events arrive grouped by episode
	// in episode order, each episode in step order, so the stream is
	// deterministic even though episodes route concurrently. Setting an
	// Observer retains every episode's path until replay — use it for
	// analysis runs, not for the largest benchmark batches.
	Observer route.Observer
	// Counters, when non-nil, count every episode of the batch (and the
	// batch itself). nil counts nothing.
	Counters *Counters
}

// MilgramReport aggregates a batch routing experiment.
type MilgramReport struct {
	// Attempts is the number of routed pairs.
	Attempts int
	// Success is the success proportion with its Wilson interval.
	Success stats.Proportion
	// Hops are the move counts of successful routings.
	Hops []float64
	// Stretches are per-pair hop/BFS-distance ratios of successful
	// routings (empty unless ComputeStretch).
	Stretches []float64
	// MeanHops and MeanStretch summarize the two slices (NaN when empty).
	MeanHops    float64
	MeanStretch float64
	// Truncated counts episodes that hit a protocol's move cap.
	Truncated int
	// Failures counts the attempted-but-unsuccessful episodes by
	// classification (see route.Failures). Cancelled episodes never ran and
	// are counted by Cancelled instead, not here.
	Failures map[route.Failure]int
	// Partial reports that the batch was cancelled mid-run: the report
	// aggregates only the episodes that completed before cancellation and is
	// returned alongside the context's error instead of being dropped.
	Partial bool
	// Cancelled counts the episodes a cancelled batch never ran
	// (Attempts + Cancelled = MilgramConfig.Pairs on a partial report).
	Cancelled int
}

// RunMilgram samples random source/target pairs and routes between them.
// Pair selection is sequential (one seeded stream); the routing episodes
// themselves are pure functions of the pairs and run on all cores, so the
// report is bit-identical to a sequential run. Custom Objective factories
// must therefore be safe to call concurrently (the built-in ones are).
func RunMilgram(nw *Network, cfg MilgramConfig) (MilgramReport, error) {
	return RunMilgramCtx(context.Background(), nw, cfg)
}

// RunMilgramCtx is RunMilgram with cooperative cancellation: episodes are
// fanned out in chunks and ctx is re-checked between chunks, so a cancelled
// context (or an expired deadline) aborts the batch within a few episodes
// and returns ctx.Err(). A ctx that is already done on entry returns an
// empty report before routing any pair. A batch cancelled mid-run returns
// the partial report of its completed episodes (Partial set, Cancelled
// counting the rest) alongside ctx.Err(), so long chaos sweeps keep the
// work they finished.
func RunMilgramCtx(ctx context.Context, nw *Network, cfg MilgramConfig) (MilgramReport, error) {
	if err := ctx.Err(); err != nil {
		return MilgramReport{}, err
	}
	if cfg.Pairs <= 0 {
		return MilgramReport{}, fmt.Errorf("core: non-positive pair count %d", cfg.Pairs)
	}
	// Resolve the view once per batch: every episode of this run sees the
	// same overlay epoch, whatever the mutation log publishes meanwhile.
	vw, err := nw.view(cfg.Protocol, cfg.Objective, cfg.Counters)
	if err != nil {
		return MilgramReport{}, err
	}
	pool := nw.Giant()
	if cfg.WholeGraph {
		pool = nil
	}
	if !cfg.WholeGraph && len(pool) < 2 {
		return MilgramReport{}, fmt.Errorf("core: giant component too small (%d)", len(pool))
	}
	n := vw.g.N()
	if cfg.WholeGraph && n < 2 {
		return MilgramReport{}, fmt.Errorf("core: graph too small")
	}
	if cfg.Counters != nil {
		cfg.Counters.batches.Add(1)
	}

	// Draw all pairs from one sequential stream.
	rng := xrand.New(cfg.Seed)
	pick := func() int {
		if pool != nil {
			return pool[rng.IntN(len(pool))]
		}
		return rng.IntN(n)
	}
	type pair struct{ s, t int }
	pairs := make([]pair, 0, cfg.Pairs)
	for len(pairs) < cfg.Pairs {
		s, t := pick(), pick()
		if s != t {
			pairs = append(pairs, pair{s, t})
		}
	}

	// Bind the fault plan once per batch; episodes then instantiate cheap
	// per-episode faulty views keyed by their episode index, so fault
	// decisions are independent of worker count and scheduling. With a live
	// overlay the plan binds to the overlay view, so fault draws cover added
	// vertices too.
	bound := cfg.Faults.Bind(vw.g)

	// Route every pair; episodes are deterministic and independent. Each
	// worker owns one workerState whose scratch buffers and Result are
	// reused across every episode that worker runs, so steady-state batch
	// routing stops allocating a Result path per episode (routeOne
	// additionally takes the concrete fast path where it applies).
	workers := par.Workers(len(pairs), 0)
	states := make([]workerState, workers)
	episodes := make([]episode, len(pairs))
	runOne := func(w, i int) {
		ws := &states[w]
		p := pairs[i]
		if !bound.Empty() && (bound.Crashed(p.s) || bound.Crashed(p.t)) {
			// Delivery from/to a crashed vertex is impossible; classify
			// without running the protocol (the episode still counts).
			ws.out.FailAtSource(p.s, route.FailCrashedTarget)
			cfg.Counters.Record(ws.out, 0)
			episodes[i] = episode{done: true, failure: route.FailCrashedTarget}
			return
		}
		if err := vw.routeOne(bound, i, p.s, p.t, nil, cfg.MaxHops, cfg.EpisodeTimeout, &ws.sc, &ws.out); err != nil {
			episodes[i] = episode{done: true, err: err}
			return
		}
		res := &ws.out
		ep := episode{done: true, success: res.Success, truncated: res.Truncated,
			failure: res.Failure, moves: res.Moves}
		if cfg.Observer != nil {
			// The worker's Result is reused next episode; replay needs a copy.
			ep.path = append([]int(nil), res.Path...)
		}
		if res.Success && cfg.ComputeStretch {
			// Stretch is measured against the fault-free graph: injected
			// faults change what routing sees, not what distance means. Under
			// a live overlay the fault-free truth is the overlay itself.
			if d := graph.BFSDistanceOn(vw.g, p.s, p.t); d > 0 {
				ep.stretch = float64(res.Moves) / float64(d)
			}
		}
		episodes[i] = ep
	}
	batchErr := par.ForEachWorkerCtx(ctx, len(pairs), workers, runOne)
	// A panic that escaped an episode (a buggy fault model or objective
	// factory; protocol panics are already converted to episode errors) was
	// contained by par: fail only this batch, with the episode named.
	var pe *par.PanicError
	if errors.As(batchErr, &pe) {
		return MilgramReport{}, fmt.Errorf("core: batch episode %d died: %w", pe.Index, pe)
	}
	// Propagate the first episode error (in episode order, so the reported
	// failure is deterministic regardless of worker scheduling).
	for i := range episodes {
		if err := episodes[i].err; err != nil {
			return MilgramReport{}, err
		}
	}

	// Replay per-move events to the observer, grouped by episode in episode
	// order: a deterministic stream even though routing ran concurrently.
	// Replay walks the fault-free graph and objective: the recorded paths
	// are what the faulty views routed, the replayed scores are the true
	// objective values along them.
	if cfg.Observer != nil {
		for i, p := range pairs {
			if !episodes[i].done {
				continue
			}
			route.Observe(vw.g, vw.objective(p.t), route.Result{Path: episodes[i].path}, i, cfg.Observer)
		}
	}

	rep := MilgramReport{Failures: map[route.Failure]int{}}
	successes := 0
	for i := range episodes {
		ep := &episodes[i]
		if !ep.done {
			rep.Cancelled++
			continue
		}
		rep.Attempts++
		if ep.truncated {
			rep.Truncated++
		}
		if !ep.success {
			// Hand-rolled external protocols may fail without classifying;
			// count those as dead ends, as the engine counters do.
			f := ep.failure
			if f == route.FailNone {
				f = route.FailDeadEnd
			}
			rep.Failures[f]++
			continue
		}
		successes++
		rep.Hops = append(rep.Hops, float64(ep.moves))
		if ep.stretch > 0 {
			rep.Stretches = append(rep.Stretches, ep.stretch)
		}
	}
	rep.Success = stats.NewProportion(successes, rep.Attempts)
	rep.MeanHops = stats.Mean(rep.Hops)
	rep.MeanStretch = stats.Mean(rep.Stretches)
	if batchErr != nil {
		// Cancelled mid-run: hand back what completed instead of dropping it.
		rep.Partial = true
		cfg.Counters.recordCancelled(rep.Cancelled)
		return rep, batchErr
	}
	return rep, nil
}
