// route runs a single routing episode on a graph file produced by girgen
// (or on a freshly sampled GIRG) and prints the path, optionally with the
// per-hop weight/objective trajectory of Figure 1. With -server it sends
// the same query to a running smallworldd daemon instead of routing
// locally, using the shared wire types of internal/serve.
//
// The exit code classifies the outcome (see -h): 0 when every episode
// delivered, otherwise the highest code among the failed episodes' classes,
// so scripts can branch on *why* routing failed.
//
// Examples:
//
//	girgen -n 100000 -out g.girg && route -in g.girg -s 3 -t 99 -trace
//	route -n 50000 -proto phi-dfs -pairs 20
//	smallworldd -n 50000 & route -server localhost:8080 -s 3 -t 99
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/xrand"
)

func main() {
	// Ctrl-C stops between episodes with a partial-progress message; the
	// interruption is classified "cancelled" in the exit code.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code, err := runCtx(ctx, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "route:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run is the error-only entry point used by tests; the exit code is
// dropped.
func run(args []string) error {
	_, err := runCtx(context.Background(), args)
	return err
}

// exitCodeTable renders the usage-text table of exit codes, derived from
// the shared serve.ExitCodeFor mapping so the CLI and the daemon can never
// disagree about what a class means.
func exitCodeTable() string {
	fs := route.Failures()
	sort.Slice(fs, func(i, j int) bool { return serve.ExitCodeFor(fs[i]) < serve.ExitCodeFor(fs[j]) })
	var b strings.Builder
	b.WriteString("\nexit codes (highest failed episode wins):\n")
	b.WriteString("  0  every episode delivered\n")
	b.WriteString("  1  usage or I/O error\n")
	for _, f := range fs {
		fmt.Fprintf(&b, "  %d  %s\n", serve.ExitCodeFor(f), f)
	}
	return b.String()
}

func runCtx(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "graph file from girgen (default: sample a fresh GIRG)")
		n      = fs.Float64("n", 10000, "GIRG size when sampling")
		seed   = fs.Uint64("seed", 1, "random seed")
		s      = fs.Int("s", -1, "source vertex (-1 = random giant vertex)")
		t      = fs.Int("t", -1, "target vertex (-1 = random giant vertex)")
		proto  = fs.String("proto", "greedy", "protocol: "+strings.Join(route.RegisteredSorted(), " | "))
		pairs  = fs.Int("pairs", 1, "number of random pairs to route (when s/t unset)")
		trace  = fs.Bool("trace", false, "print the per-hop weight/objective trajectory")
		server = fs.String("server", "", "comma-separated host:port list of running smallworldd daemons; query one (consistent-hashed on s,t) instead of routing locally")
		// Usage text derives from the fault-model registry, exactly as -proto
		// derives from the protocol registry.
		faultModel   = fs.String("fault-model", "", "fault model to inject (default none): "+strings.Join(faults.RegisteredSorted(), " | "))
		faultRate    = fs.Float64("fault-rate", 0.1, "fault severity in [0, 1] (drop probability, crash fraction, loss probability, or noise amplitude)")
		faultRetries = fs.Int("fault-retries", 0, "msg-loss retry budget per forward (0 = model default)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: route [flags]\n")
		fs.PrintDefaults()
		fmt.Fprint(fs.Output(), exitCodeTable())
	}
	if err := fs.Parse(args); err != nil {
		return 1, err
	}

	if *server != "" {
		return runRemote(ctx, *server, *proto, *s, *t, *faultModel, *faultRate, *faultRetries, *seed)
	}

	var (
		g   *graph.Graph
		err error
	)
	if *in != "" {
		f, err2 := os.Open(*in)
		if err2 != nil {
			return 1, err2
		}
		g, err = graphio.Read(f)
		f.Close()
	} else {
		p := girg.DefaultParams(*n)
		p.FixedN = true
		g, err = girg.Generate(p, *seed, girg.Options{})
	}
	if err != nil {
		return 1, err
	}
	// Resolve through the registry: the error for an unknown name lists
	// every registered protocol.
	p, err := route.Lookup(*proto)
	if err != nil {
		return 1, err
	}
	protocol := core.Protocol(*proto)

	// -fault-model resolves through the fault registry the same way: an
	// unknown name errors with the valid list before any routing happens.
	var bound *faults.BoundPlan
	if *faultModel != "" {
		plan, err := faults.NewPlan(*seed+2, faults.Spec{
			Model: *faultModel, Rate: *faultRate, Retries: *faultRetries,
		})
		if err != nil {
			return 1, err
		}
		bound = plan.Bind(g)
	}

	giant := graph.GiantComponent(g)
	if len(giant) < 2 {
		return 1, fmt.Errorf("giant component too small")
	}
	rng := xrand.New(*seed + 1)
	episodes := *pairs
	if *s >= 0 && *t >= 0 {
		episodes = 1
	}
	nw := &core.Network{
		Graph: g,
		Label: "route",
		NewObjective: func(t int) route.Objective {
			return route.NewStandard(g, t)
		},
		StandardPhi: true,
	}
	worst := 0
	for i := 0; i < episodes; i++ {
		if ctx.Err() != nil {
			// Interrupted between episodes: report partial progress and
			// classify the remainder cancelled.
			fmt.Fprintf(os.Stderr, "route: interrupted after %d/%d episodes\n", i, episodes)
			return maxCode(worst, serve.ExitCodeFor(route.FailCancelled)), nil
		}
		src, dst := *s, *t
		if src < 0 {
			src = giant[rng.IntN(len(giant))]
		}
		if dst < 0 {
			dst = giant[rng.IntN(len(giant))]
		}
		if src == dst {
			continue
		}
		if src >= g.N() || dst >= g.N() {
			return 1, fmt.Errorf("vertex out of range (n = %d)", g.N())
		}
		// The trace is streamed by an observer attached to the episode: one
		// per-move event per hop, carrying the vertex, its weight and its
		// objective value (the Figure-1 trajectory).
		var hops []route.MoveEvent
		traceObs := route.ObserverFunc(func(ev route.MoveEvent) {
			hops = append(hops, ev)
		})
		var res route.Result
		if bound != nil {
			// Faulty episodes route on this episode's view of the graph and
			// objective; crashed endpoints are classified without routing.
			if bound.Crashed(src) || bound.Crashed(dst) {
				fmt.Printf("%s %d -> %d: FAILED(%s) moves=0 unique=1 bfs=- stretch=-\n",
					protocol, src, dst, route.FailCrashedTarget)
				worst = maxCode(worst, serve.ExitCodeFor(route.FailCrashedTarget))
				continue
			}
			eg, eobj := bound.View(g, route.NewStandard(g, dst), i)
			res = route.Route(p, eg, eobj, src)
			if *trace {
				// Replay over the fault-free graph: the path is what the
				// faulty view routed, the scores are the true objective.
				route.Observe(g, route.NewStandard(g, dst), res, i, traceObs)
			}
		} else {
			var obs []route.Observer
			if *trace {
				obs = append(obs, traceObs)
			}
			res, err = nw.Route(protocol, src, dst, obs...)
			if err != nil {
				return 1, err
			}
		}
		status := "FAILED"
		if res.Success {
			status = "ok"
		} else if res.Failure != route.FailNone {
			status = fmt.Sprintf("FAILED(%s)", res.Failure)
		}
		if !res.Success {
			f := res.Failure
			if f == route.FailNone {
				f = route.FailDeadEnd
			}
			worst = maxCode(worst, serve.ExitCodeFor(f))
		}
		bfs := graph.BFSDistance(g, src, dst)
		stretch := "-"
		if res.Success && bfs > 0 {
			stretch = fmt.Sprintf("%.3f", float64(res.Moves)/float64(bfs))
		}
		fmt.Printf("%s %d -> %d: %s moves=%d unique=%d bfs=%d stretch=%s\n",
			protocol, src, dst, status, res.Moves, res.Unique, bfs, stretch)
		for _, h := range hops {
			score := fmt.Sprintf("%.4g", h.Score)
			if math.IsInf(h.Score, 1) {
				score = "inf"
			}
			fmt.Printf("  hop %3d: v=%-8d w=%-10.2f phi=%s\n", h.Step, h.V, h.W, score)
		}
	}
	return worst, nil
}

// maxCode keeps the highest exit code seen across episodes.
func maxCode(a, b int) int {
	if b > a {
		return b
	}
	return a
}

// runRemote sends one routing query to a running smallworldd and prints its
// answer, reusing the daemon's wire types so both sides stay in lockstep.
// addr may list several daemons (comma-separated); the query goes to the
// endpoint that consistent-hashing assigns the (s, t) pair, so repeated
// invocations against the same cluster hit the same entry daemon. When that
// daemon is unreachable or answers shard-unreachable (the target's shard
// was down from where it stood), the episode is retried once against the
// next endpoint in the pair's ring order — a different entry daemon may
// reach a different replica — before the failure is reported.
func runRemote(ctx context.Context, addr, proto string, s, t int, faultModel string, faultRate float64, faultRetries int, seed uint64) (int, error) {
	if s < 0 || t < 0 {
		return 1, fmt.Errorf("-server mode needs explicit -s and -t")
	}
	ring := cluster.NewRing(strings.Split(addr, ","))
	if ring == nil {
		return 1, fmt.Errorf("-server needs at least one address")
	}
	req := serve.RouteRequest{Protocol: proto, S: s, T: t, FaultSeed: seed, IncludePath: true}
	if proto == "greedy" {
		req.Protocol = "" // let the daemon apply its default
	}
	if faultModel != "" {
		req.Faults = []faults.Spec{{Model: faultModel, Rate: faultRate, Retries: faultRetries}}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 1, err
	}
	endpoints := ring.Sequence(obs.Hash64(uint64(s), uint64(t)))
	if len(endpoints) > 2 {
		endpoints = endpoints[:2] // one failover, not a cluster-wide sweep
	}
	var (
		rr      serve.RouteResponse
		lastErr error
	)
	for i, endpoint := range endpoints {
		rr, err = queryDaemon(ctx, endpoint, body)
		if err == nil && route.Failure(rr.Failure) != route.FailShardUnreachable {
			break
		}
		lastErr = err
		if i+1 < len(endpoints) {
			reason := "shard unreachable"
			if err != nil {
				reason = err.Error()
			}
			fmt.Fprintf(os.Stderr, "route: %s from %s, retrying via %s\n",
				reason, endpoint, endpoints[i+1])
		}
	}
	if err != nil {
		return 1, lastErr
	}
	status := "ok"
	f := route.Failure(rr.Failure)
	if !rr.Success {
		status = fmt.Sprintf("FAILED(%s)", rr.Failure)
	}
	hops := ""
	if rr.Forwards > 0 {
		hops = fmt.Sprintf(" forwards=%d", rr.Forwards)
	}
	if rr.Failovers > 0 || rr.Hedges > 0 {
		hops += fmt.Sprintf(" failovers=%d hedges=%d", rr.Failovers, rr.Hedges)
	}
	fmt.Printf("%s %d -> %d: %s moves=%d unique=%d attempts=%d elapsed=%.1fms%s\n",
		rr.Protocol, rr.S, rr.T, status, rr.Moves, rr.Unique, rr.Attempts, rr.ElapsedMs, hops)
	if len(rr.Path) > 0 {
		fmt.Printf("  path: %v\n", rr.Path)
	}
	return serve.ExitCodeFor(f), nil
}

// queryDaemon is one POST /route round trip against one endpoint.
func queryDaemon(ctx context.Context, addr string, body []byte) (serve.RouteResponse, error) {
	var rr serve.RouteResponse
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/route", bytes.NewReader(body))
	if err != nil {
		return rr, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return rr, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil || rr.Attempts == 0 {
		// Not a RouteResponse: surface the daemon's error body.
		return rr, fmt.Errorf("daemon %s returned %s", addr, resp.Status)
	}
	return rr, nil
}
