package core

import (
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
	// plan binds to the graph per call, so per-request plans are cheap for the
	// transient models and pay their per-graph setup only when a crash model
	// is present. nil injects nothing.
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
}

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
// allocations. Greedy episodes on a standard-phi network without faults run
// the concrete zero-allocation fast path (route.GreedyCSR, or
// route.GreedyCSROverlay when a live overlay is attached).
func (nw *Network) RouteEpisodeInto(cfg EpisodeConfig, sc *route.Scratch, out *route.Result) error {
	_, err := nw.routeEpisode(cfg, sc, out)
	return err
}

// routeEpisode is the body of Route and RouteEpisodeInto. It returns the
// view the episode routed over, so a caller replaying further observers
// scores them on the same epoch.
func (nw *Network) routeEpisode(cfg EpisodeConfig, sc *route.Scratch, out *route.Result) (routeView, error) {
	vw, err := nw.view(cfg.Protocol, nil, cfg.Counters)
	if err != nil {
		return vw, err
	}
	if n := vw.g.N(); cfg.S < 0 || cfg.S >= n || cfg.T < 0 || cfg.T >= n {
		return vw, fmt.Errorf("core: vertex pair (%d, %d) out of range (n = %d)", cfg.S, cfg.T, n)
	}
	bound := cfg.Faults.Bind(vw.g)
	if !bound.Empty() && (bound.Crashed(cfg.S) || bound.Crashed(cfg.T)) {
		*out = route.Result{Path: append(out.Path[:0], cfg.S), Unique: 1, Stuck: -1, Failure: route.FailCrashedTarget}
		vw.counters.Record(*out, 0)
		return vw, nil
	}
	if err := vw.routeOne(bound, cfg.Episode, cfg.S, cfg.T, cfg.MaxHops, cfg.Timeout, sc, out); err != nil {
		return vw, err
	}
	if cfg.Observer != nil {
		route.Observe(vw.g, vw.replayObjective(cfg.T), *out, cfg.Episode, cfg.Observer)
	}
	return vw, nil
}

// routeView is what one request, or one whole batch, routes over — fixed by
// a single atomic load of the live overlay, so every episode of it sees one
// epoch even if a mutation batch publishes mid-flight.
type routeView struct {
	proto route.Protocol
	base  *graph.Graph
	ov    *graph.Overlay // the live overlay; nil when none (or an empty one) is attached
	g     route.Graph    // ov when live, base otherwise
	// factory is the network's objective factory or the caller's override;
	// it scores base vertices only (see objective).
	factory func(t int) route.Objective
	// std reports that factory is exactly the standard phi; csr that
	// episodes are also greedy, so the concrete fast path computes the same
	// episode.
	std, csr bool
	// counters count every episode routed over the view (nil = off).
	counters *Counters
}

// view resolves proto and the graph to route over. override optionally
// replaces the network's objective factory; live overlays reject it (and
// non-standard networks) instead of silently scoring added vertices wrong.
// c counts the view's episodes.
func (nw *Network) view(proto Protocol, override func(t int) route.Objective, c *Counters) (routeView, error) {
	p, err := resolve(proto)
	if err != nil {
		return routeView{}, err
	}
	_, greedy := p.(route.GreedyRouter)
	std := nw.StandardPhi && override == nil
	vw := routeView{
		proto:    p,
		base:     nw.Graph,
		g:        nw.Graph,
		factory:  nw.NewObjective,
		std:      std,
		csr:      greedy && std,
		counters: c,
	}
	if override != nil {
		vw.factory = override
	}
	// An attached but empty overlay routes through the unchanged base paths.
	if ov := nw.live.Load(); ov != nil && !ov.Empty() {
		if !nw.StandardPhi {
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
// the base objective's arrays (view already rejected overrides and
// non-standard networks).
func (vw *routeView) objective(t int) route.Objective {
	if vw.ov != nil {
		return route.NewStandard(vw.ov, t)
	}
	return vw.factory(t)
}

// replayObjective scores a finished path for an observer: the same values
// as objective, but the standard phi skips its n-float cache, so a replay
// costs O(path) instead of O(n).
func (vw *routeView) replayObjective(t int) route.Objective {
	switch {
	case vw.ov != nil:
		return route.NewStandardUncached(vw.ov, t)
	case vw.std:
		return route.NewStandardUncached(vw.base, t)
	}
	return vw.factory(t)
}

// routeOne routes one episode from s toward t into out and feeds the view's
// counters. This is the one place the fast-path decision is made: a greedy
// episode under the standard phi with no fault plan and a scratch to build
// on runs the concrete walk (over the overlay when live); everything else
// runs the protocol through the interface path on the episode's faulty
// view. Budget cuts come back as route.FailDeadline results on both paths.
func (vw *routeView) routeOne(bound *faults.BoundPlan, episode, s, t, maxHops int, timeout time.Duration, sc *route.Scratch, out *route.Result) error {
	if vw.csr && bound.Empty() && sc != nil {
		start := time.Now()
		b := route.Budget{MaxScans: maxHops}
		if timeout > 0 {
			b.Deadline = start.Add(timeout)
		}
		if vw.ov != nil {
			route.GreedyCSROverlay(vw.ov, t, s, b, sc, out)
		} else {
			route.GreedyCSR(vw.base, t, s, b, sc, out)
		}
		vw.counters.Record(*out, time.Since(start))
		return nil
	}
	eg, eobj := vw.g, vw.objective(t)
	if !bound.Empty() {
		eg, eobj = bound.View(eg, eobj, episode)
	}
	return runEpisodeInto(vw.counters, eg, vw.proto, eobj, s, maxHops, timeout, sc, out)
}
