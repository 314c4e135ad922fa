package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/route"
)

// EpisodeConfig configures one budgeted routing episode — the single-query
// analogue of MilgramConfig, exported so long-running services can drive the
// engine one request at a time with the same budget and fault machinery the
// batch runner uses.
type EpisodeConfig struct {
	// Protocol selects the routing protocol by registered name ("" = greedy).
	Protocol Protocol
	// S and T are the source and target vertices.
	S, T int
	// MaxHops caps the adjacency queries before the engine cuts the episode
	// off as route.FailDeadline (0 = no cap), exactly as in MilgramConfig.
	MaxHops int
	// Timeout caps the episode's wall time (0 = none). A service maps its
	// per-request deadline onto this field, turning a slow episode into a
	// classified route.FailDeadline instead of a stuck handler.
	Timeout time.Duration
	// Faults optionally layers a fault-injection plan over the episode. The
	// plan binds to the graph per call, which every built-in model does in
	// O(1) on a snapshot (crash-core reads its memoized weight order); on a
	// live overlay crash-core sorts the overlay's vertices per call. nil
	// injects nothing.
	Faults *faults.Plan
	// Episode is the episode index handed to the fault plan's views; retrying
	// services vary it per attempt so transient fault draws are independent
	// across retries.
	Episode int
	// Observer, when non-nil, receives the episode's per-move events after it
	// finishes (replayed over the fault-free graph and objective).
	Observer route.Observer
	// Counters, when non-nil, count the episode. nil counts nothing.
	Counters *Counters
	// Owned, when non-nil, confines a greedy fast-path episode to one shard,
	// one flag per vertex (route.GreedyCSRPartial): stepping onto a vertex
	// flagged false ends it unclassified — Success false, Failure
	// route.FailNone — with Path ending at that exit, where the walk goes on
	// under what route.HandOver leaves of its budget.
	Owned []bool
}

// ErrMaskUnsupported refuses an EpisodeConfig.Owned mask, before anything is
// routed, for an episode off the greedy fast path.
var ErrMaskUnsupported = errors.New("core: a routing mask takes a greedy episode under phi with no fault plan over an immutable graph, one flag per vertex")

// RouteEpisode runs one budgeted routing episode under cfg. Episodes whose
// source or target a fault plan crashed are classified
// route.FailCrashedTarget without running the protocol; budget cuts come
// back as route.FailDeadline results, not errors. Every episode feeds
// cfg.Counters, so services built on this entry point get the failure
// taxonomy for free.
func (nw *Network) RouteEpisode(cfg EpisodeConfig) (route.Result, error) {
	var res route.Result
	if err := nw.RouteEpisodeInto(cfg, nil, &res); err != nil {
		return route.Result{}, err
	}
	return res, nil
}

// RouteEpisodeInto is RouteEpisode building into a caller-owned Result over
// reusable scratch — the entry point for services that route many episodes
// and pool their per-episode state (internal/serve). out's Path backing
// array is reused; callers that keep paths past the next episode copy them
// (route.Result.CopyInto). sc may be nil at the cost of per-episode
// allocations. Greedy episodes on a phi network (nil NewObjective) without
// faults run the concrete zero-allocation fast path (route.GreedyCSR,
// route.GreedyCSROverlay when a live overlay is attached, or
// route.GreedyCSRPartial for one shard's segment under cfg.Owned).
func (nw *Network) RouteEpisodeInto(cfg EpisodeConfig, sc *route.Scratch, out *route.Result) error {
	vw, err := nw.view(cfg.Protocol, nil, cfg.Counters)
	if err != nil {
		return err
	}
	n := vw.g.N()
	if cfg.S < 0 || cfg.S >= n || cfg.T < 0 || cfg.T >= n {
		return fmt.Errorf("core: vertex pair (%d, %d) out of range (n = %d)", cfg.S, cfg.T, n)
	}
	bound := cfg.Faults.Bind(vw.g)
	if cfg.Owned != nil && (!vw.csr || vw.ov != nil || !bound.Empty() || len(cfg.Owned) != n) {
		return ErrMaskUnsupported
	}
	if !bound.Empty() && (bound.Crashed(cfg.S) || bound.Crashed(cfg.T)) {
		out.FailAtSource(cfg.S, route.FailCrashedTarget)
		vw.counters.Record(*out, 0)
		return nil
	}
	if err := vw.routeOne(bound, cfg.Episode, cfg.S, cfg.T, cfg.Owned, cfg.MaxHops, cfg.Timeout, sc, out); err != nil {
		return err
	}
	if cfg.Observer != nil {
		route.Observe(vw.g, vw.objective(cfg.T), *out, cfg.Episode, cfg.Observer)
	}
	return nil
}

// routeView is what one request, or one whole batch, routes over — fixed by
// a single atomic load of the live overlay, so every episode of it sees one
// epoch even if a mutation batch publishes mid-flight.
type routeView struct {
	proto route.Protocol
	base  *graph.Graph
	ov    *graph.Overlay // the live overlay; nil when none (or an empty one) is attached
	g     route.Graph    // ov when live, base otherwise
	// factory is the caller's override or the network's objective factory;
	// nil means phi. It scores base vertices only (see objective).
	factory func(t int) route.Objective
	// csr reports that episodes are greedy under phi, so the concrete fast
	// path computes the same episode.
	csr bool
	// counters count every episode routed over the view (nil = off).
	counters *Counters
}

// view resolves proto and the graph to route over. override optionally
// replaces the network's objective factory; live overlays reject it (and
// networks with a custom objective) instead of silently scoring added
// vertices wrong. c counts the view's episodes.
func (nw *Network) view(proto Protocol, override func(t int) route.Objective, c *Counters) (routeView, error) {
	p, err := resolve(proto)
	if err != nil {
		return routeView{}, err
	}
	_, greedy := p.(route.GreedyRouter)
	factory := override
	if factory == nil {
		factory = nw.NewObjective
	}
	vw := routeView{
		proto:    p,
		base:     nw.Graph,
		g:        nw.Graph,
		factory:  factory,
		csr:      greedy && factory == nil,
		counters: c,
	}
	// An attached but empty overlay routes through the unchanged base paths.
	if ov := nw.live.Load(); ov != nil && !ov.Empty() {
		if nw.NewObjective != nil {
			return routeView{}, fmt.Errorf("core: live overlays require a standard-objective network (%s routes by a custom objective)", nw.Label)
		}
		if override != nil {
			return routeView{}, fmt.Errorf("core: live overlays do not compose with custom objective overrides")
		}
		vw.ov, vw.g = ov, ov
	}
	return vw, nil
}

// objective builds the episode objective toward t. Under a live overlay the
// overlay's own geometry must drive scoring, or added vertices index past
// the base objective's arrays (view already rejected overrides and custom
// objectives).
func (vw *routeView) objective(t int) route.Objective {
	switch {
	case vw.ov != nil:
		return route.NewStandard(vw.ov, t)
	case vw.factory == nil:
		return route.NewStandard(vw.base, t)
	}
	return vw.factory(t)
}

// routeOne routes one episode from s toward t into out and feeds the view's
// counters. This is the one place the fast-path decision is made: a greedy
// episode under the standard phi with no fault plan and a scratch to build
// on runs the concrete walk (over the overlay when live, over one shard when
// owned is set — RouteEpisodeInto admitted that mask); everything else runs
// the protocol through the interface path on the episode's faulty view,
// behind a budgetGraph when a budget is set, and a protocol panic (possible
// with externally registered protocols) comes back as an error instead of
// tearing down a whole batch. Budget cuts come back as route.FailDeadline
// results with the path reset to s on both paths: an opaque protocol's
// partial trajectory is not recoverable.
func (vw *routeView) routeOne(bound *faults.BoundPlan, episode, s, t int, owned []bool, maxHops int, timeout time.Duration, sc *route.Scratch, out *route.Result) (err error) {
	start := time.Now()
	b := route.Budget{MaxScans: maxHops}
	if timeout > 0 {
		b.Deadline = start.Add(timeout)
	}
	if owned != nil || vw.csr && bound.Empty() && sc != nil {
		switch {
		case owned != nil:
			route.GreedyCSRPartial(vw.base, t, s, owned, b, sc, out)
		case vw.ov != nil:
			route.GreedyCSROverlay(vw.ov, t, s, b, sc, out)
		default:
			route.GreedyCSR(vw.base, t, s, b, sc, out)
		}
		vw.counters.Record(*out, time.Since(start))
		return nil
	}
	g, obj := vw.g, vw.objective(t)
	if !bound.Empty() {
		g, obj = bound.View(g, obj, episode)
	}
	if maxHops > 0 || timeout > 0 {
		g = &budgetGraph{inner: g, b: b}
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(budgetStop); ok {
			out.FailAtSource(s, route.FailDeadline)
			vw.counters.Record(*out, time.Since(start))
			err = nil
			return
		}
		vw.counters.recordPanic()
		err = fmt.Errorf("core: protocol %q panicked routing from %d: %v", vw.proto.Name(), s, r)
	}()
	vw.proto.RouteInto(g, obj, s, sc, out)
	vw.counters.Record(*out, time.Since(start))
	return nil
}
