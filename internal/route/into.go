package route

// This file is the v2 protocol surface: routing into caller-owned Results
// over reusable per-worker Scratch state, so the steady-state hot path
// performs zero heap allocations per episode.
//
// Three tiers, fastest first:
//
//   - GreedyCSR and its shard-masked and live-overlay views (walk.go):
//     concrete-type greedy routing on *graph.Graph under the standard GIRG
//     objective phi, scores computed inline from the CSR arrays — no
//     interface dispatch, no Objective closure, no per-episode allocation
//     at all (enforced by a testing.AllocsPerRun gate).
//   - IntoRouter: the optional Protocol extension. Protocols implementing
//     it route into a caller-owned Result with scratch reuse; all built-ins
//     do.
//   - The adapter: any other Protocol keeps working — RouteInto falls back
//     to the allocating Route call and copies the result into out.

// IntoRouter is the zero-alloc extension of Protocol: RouteInto routes
// one episode from s toward obj.Target into out, reusing out's Path
// backing array and sc's buffers. Implementations must not retain sc or
// out, and out.Path is only valid until out's next reuse — callers that
// keep paths across episodes copy them (Result.CopyInto). sc may be nil,
// at the cost of per-episode allocations.
type IntoRouter interface {
	Protocol
	RouteInto(g Graph, obj Objective, s int, sc *Scratch, out *Result)
}

// RouteInto routes one episode under p into out. Protocols implementing
// IntoRouter get the zero-alloc path; every other Protocol falls back
// through an adapter that calls the legacy Route and copies the episode into
// out, so pre-v2 protocols keep working unmodified.
func RouteInto(p Protocol, g Graph, obj Objective, s int, sc *Scratch, out *Result) {
	if ir, ok := p.(IntoRouter); ok {
		ir.RouteInto(g, obj, s, sc, out)
		return
	}
	res := p.Route(g, obj, s)
	res.CopyInto(out)
}
