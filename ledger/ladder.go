package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/torus"
	"repro/internal/xrand"
)

// The ladder pushes one pair list through each successive public boundary of
// the stack —
//
//	route.GreedyCSR -> core.RouteEpisodeInto -> Handler().ServeHTTP with a
//	recorder -> POST /route over loopback -> POST /route through 3 shards
//
// — timing every call from outside, so that a layer's self time is its rung
// minus the rung below and the self times sum to the top rung by
// construction. The chain runs on the traced workload's graph (n = 20 000
// for lib-episodes and live-churn, n = 2 000 for cluster-hop); rungs the
// workload does not exercise run on the fixed fixtures (hub scan, overlay
// and mutation rungs on n = 20 000, partial walk and cluster rungs on
// n = 2 000), so every per-layer metric is printed by every traced run.
//
// A rung's value is the median over whole passes of the pass's mean time per
// operation: means over one fixed list subtract exactly, and the median over
// passes drops a pass a neighbour disturbed. Rungs that are subtracted from
// one another run interleaved, pass by pass, so that they share the host's
// conditions.
type ladder struct {
	ctx    context.Context
	o      options
	budget time.Duration
	host   *hostRef
	fails  *failLog

	vals      map[string]float64
	attempted int
	failed    int

	big, small *core.Network
	// chain is the workload's graph with the head of its seed's pair list;
	// smallPairs serve the fixed n = 2 000 rungs.
	chain      *core.Network
	chainPairs pairList
	smallPairs pairList
}

const (
	// chainLenBig and chainLenSmall are the pass lengths of the chain rungs:
	// a pass takes 0.05–0.25 s at every boundary, so a round of all
	// interleaved rungs takes under 2 s and the budget fits several.
	chainLenBig   = 256
	chainLenSmall = 1024
	// minPasses is the fewest passes a rung's median is taken over.
	minPasses = 3
)

// rungSpec is one rung: a pass is n operations, op performs operation i and
// returns the time spent inside the measured call, before (optional) runs
// untimed ahead of every pass, aux (optional) returns a second reading of
// the operation just timed (what the reply says about itself).
type rungSpec struct {
	n      int
	op     func(i int) time.Duration
	before func()
	aux    func() float64
}

// rungResult is a rung's median-of-pass-means ns per operation, the same
// estimate of its aux readings, and every operation's time.
type rungResult struct {
	ns   float64
	aux  float64
	lats []int64
}

// interleaveParts is how many slices a pass is cut into when rungs
// interleave.
const interleaveParts = 8

// interleave runs rounds of one pass of every rung until share of the
// ladder's budget is used (at least minPasses rounds). Within a round the
// rungs alternate slice by slice — an eighth of one rung's list, an eighth
// of the next one's, ... — so that every rung's pass samples the same two
// seconds of the host at 10–30 ms granularity, while each slice still runs
// its operations back to back with the caches its own layer leaves. Whole
// passes run one after the other differ by +-5 % on this host, which drowns
// thin layers (a few us on a 500 us walk); alternating single operations
// instead would time every call on caches another rung's work just evicted.
// The order of the rungs changes from round to round, so that no rung always
// follows the same neighbour.
func (l *ladder) interleave(share float64, specs []rungSpec) ([]rungResult, error) {
	slice := time.Duration(share * float64(l.budget))
	start := time.Now()
	means := make([][]float64, len(specs))
	auxMeans := make([][]float64, len(specs))
	res := make([]rungResult, len(specs))
	sums := make([]time.Duration, len(specs))
	auxSums := make([]float64, len(specs))
	// Stepping through the rungs by a stride coprime to their number visits
	// each once; every stride gives every rung another predecessor.
	var strides []int
	for st := 1; st <= len(specs); st++ {
		if gcd(st, len(specs)) == 1 {
			strides = append(strides, st)
		}
	}
	for round := 0; round < minPasses || time.Since(start) < slice; round++ {
		for k, s := range specs {
			if s.before != nil {
				s.before()
			}
			sums[k], auxSums[k] = 0, 0
		}
		stride := strides[round%len(strides)]
		for part := 0; part < interleaveParts; part++ {
			for j := range specs {
				k := (part + j*stride) % len(specs)
				n := specs[k].n
				lo, hi := part*n/interleaveParts, (part+1)*n/interleaveParts
				// A few untimed operations reload what the previous rung's
				// work evicted; without them a rung that follows an HTTP rung
				// reads 3 % slower than the layer above it.
				for i := lo; i < hi && i < lo+4; i++ {
					specs[k].op(i)
				}
				for i := lo; i < hi; i++ {
					d := specs[k].op(i)
					sums[k] += d
					res[k].lats = append(res[k].lats, int64(d))
					if specs[k].aux != nil {
						auxSums[k] += specs[k].aux()
					}
				}
			}
			if l.ctx.Err() != nil {
				return nil, errInterrupted
			}
		}
		for k, s := range specs {
			means[k] = append(means[k], float64(sums[k])/float64(s.n))
			auxMeans[k] = append(auxMeans[k], auxSums[k]/float64(s.n))
		}
		l.host.maybe()
	}
	for k := range res {
		res[k].ns, res[k].aux = median(means[k]), median(auxMeans[k])
	}
	return res, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// rung is interleave for a rung nothing is subtracted from.
func (l *ladder) rung(share float64, n int, op func(i int) time.Duration) (float64, []int64, error) {
	res, err := l.interleave(share, []rungSpec{{n: n, op: op}})
	if err != nil {
		return 0, nil, err
	}
	return res[0].ns, res[0].lats, nil
}

// micro times batches of inner calls of f, for calls too short to time one
// by one, and returns the median ns per call.
func (l *ladder) micro(share float64, inner int, f func(k int)) float64 {
	slice := time.Duration(share * float64(l.budget))
	start := time.Now()
	var per []float64
	for len(per) < 16 || time.Since(start) < slice {
		t0 := time.Now()
		for k := 0; k < inner; k++ {
			f(k)
		}
		per = append(per, float64(time.Since(t0))/float64(inner))
	}
	return median(per)
}

// allocsPerOp counts heap allocations of n calls of f, per call, as
// testing.AllocsPerRun does; whatever else runs in the process is counted
// too, so the quiet rungs come before any daemon starts.
func allocsPerOp(n int, f func(i int)) float64 {
	f(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// check records one verified operation of a rung.
func (l *ladder) check(err error, what string) {
	l.attempted++
	if err != nil {
		l.failed++
		l.fails.add("%s: %v", what, err)
	}
}

func matchErr(p pair, success bool, moves, unique int) error {
	if p.matches(success, moves, unique) {
		return nil
	}
	return fmt.Errorf("pair (%d, %d): success=%v moves=%d unique=%d, recorded moves=%d unique=%d",
		p.s, p.t, success, moves, unique, p.moves, p.unique)
}

// sink keeps results of timed calls alive so the compiler cannot drop them.
var sink float64

func runLadder(ctx context.Context, o options, budget time.Duration, host *hostRef, fails *failLog) (*ladder, error) {
	l := &ladder{ctx: ctx, o: o, budget: budget, host: host, fails: fails, vals: map[string]float64{}}
	// Library rungs first, while no daemon runs; then the mutation log; then
	// the interleaved chain with every stack up.
	steps := []func() error{
		l.fixtures, l.torusRungs, l.routeRungs, l.milgramRung, l.overlayRungs, l.codecRung, l.mutateRungs, l.chainRungs,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, errInterrupted
		}
	}
	return l, nil
}

// fixtures generates both graphs, timing the n = 20 000 one, and draws the
// pair lists of the run's seed.
func (l *ladder) fixtures() error {
	t0 := time.Now()
	big, err := bigFixture.sample()
	if err != nil {
		return err
	}
	l.vals["girg.generate_s"] = time.Since(t0).Seconds()
	g := big.Graph
	if err := bigFixture.check(g); err != nil {
		return err
	}
	l.vals["girg.edges"] = float64(g.M())
	l.big = big

	var giantS, mortonMs []float64
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		giant := graph.GiantComponent(g)
		giantS = append(giantS, time.Since(t0).Seconds())
		sink += float64(len(giant))
		t0 = time.Now()
		codes, _, err := graph.MortonCodes(g)
		if err != nil {
			return err
		}
		mortonMs = append(mortonMs, float64(time.Since(t0))/1e6)
		sink += float64(codes[0])
	}
	l.vals["graph.giant_s"] = median(giantS)
	l.vals["graph.morton_codes_ms"] = median(mortonMs)

	if l.small, err = smallFixture.generate(); err != nil {
		return err
	}
	// Only the head of each list is drawn: the streams are the workloads', so
	// these are the first pairs the traced workload itself cycles through.
	l.smallPairs = drawPairs(l.small.Giant(), xrand.New(mix(l.o.seed, lanePairs)), chainLenSmall, csrWalk(l.small.Graph), nil)
	if l.o.workload == wlClusterHop {
		l.chain, l.chainPairs = l.small, l.smallPairs
	} else {
		l.chain = l.big
		l.chainPairs = drawPairs(l.big.Giant(), xrand.New(mix(l.o.seed, lanePairs)), chainLenBig, csrWalk(g), nil)
	}
	// Share of raw drawn pairs greedy routing delivered: Theorem 3.1's
	// constant on the chain's graph.
	l.vals["route.delivered_ratio"] = float64(len(l.chainPairs.pairs)) / float64(l.chainPairs.drawn)
	return nil
}

func (l *ladder) torusRungs() error {
	pos := l.big.Graph.Positions()
	space := pos.Space()
	rng := xrand.New(mix(l.o.seed, laneLadder))
	const inner = 1024
	var a, b [inner]int
	for k := range a {
		a[k], b[k] = rng.IntN(pos.Len()), rng.IntN(pos.Len())
	}
	l.vals["torus.distpow_ns"] = l.micro(0.01, inner, func(k int) {
		sink += space.DistPow(pos.At(a[k]), pos.At(b[k]))
	})
	level := space.ShardLevel()
	l.vals["torus.encode_ns"] = l.micro(0.01, inner, func(k int) {
		sink += float64(space.Encode(pos.At(a[k]), level) & 1)
	})
	return nil
}

// routeRungs takes the chain list's exact counts and the route rungs nothing
// is subtracted from: one hub scan and the shard-local partial walk.
func (l *ladder) routeRungs() error {
	g := l.chain.Graph
	pairs := l.chainPairs.pairs
	var (
		sc  route.Scratch
		out route.Result
	)
	hops, scored := 0, 0
	for _, p := range pairs {
		route.GreedyCSR(g, int(p.t), int(p.s), route.Budget{}, &sc, &out)
		l.check(matchErr(p, out.Success, out.Moves, out.Unique), "route.GreedyCSR")
		hops += out.Moves
		for _, v := range out.Path[:len(out.Path)-1] {
			scored += g.Degree(v)
		}
	}
	n := float64(len(pairs))
	l.vals["route.hops_per_episode"] = float64(hops) / n
	l.vals["route.neighbors_scored_per_episode"] = float64(scored) / n
	l.vals["route.allocs_per_episode"] = allocsPerOp(len(pairs), func(i int) {
		route.GreedyCSR(g, int(pairs[i].t), int(pairs[i].s), route.Budget{}, &sc, &out)
	})

	// One full scan: from the max-degree vertex of the n = 20 000 fixture to
	// one of its neighbours the walk scores the whole adjacency list once and
	// steps onto the target.
	bg := l.big.Graph
	hub := 0
	for v := 1; v < bg.N(); v++ {
		if bg.Degree(v) > bg.Degree(hub) {
			hub = v
		}
	}
	l.vals["graph.hub_degree"] = float64(bg.Degree(hub))
	target := int(bg.Neighbors(hub)[0])
	ns, _, err := l.rung(0.02, 64, func(int) time.Duration {
		t0 := time.Now()
		route.GreedyCSR(bg, target, hub, route.Budget{}, &sc, &out)
		return time.Since(t0)
	})
	if err != nil {
		return err
	}
	if !out.Success || out.Moves != 1 {
		return fmt.Errorf("hub scan walked %d moves (success=%v), want exactly one", out.Moves, out.Success)
	}
	l.vals["route.hub_scan_us"] = ns / 1e3

	// The shard-local first segment of a sharded walk, on shard "0" of the
	// n = 2 000 fixture.
	sg := l.small.Graph
	codes, bits, err := graph.MortonCodes(sg)
	if err != nil {
		return err
	}
	prefix, err := torus.ParsePrefix(shardSpecs[0])
	if err != nil {
		return err
	}
	owned, err := graph.OwnedMask(codes, bits, prefix)
	if err != nil {
		return err
	}
	sp := l.smallPairs.pairs
	ns, _, err = l.rung(0.02, len(sp), func(i int) time.Duration {
		t0 := time.Now()
		route.GreedyCSRPartial(sg, int(sp[i].t), int(sp[i].s), owned, route.Budget{}, &sc, &out)
		return time.Since(t0)
	})
	l.vals["route.partial_greedy_us"] = ns / 1e3
	return err
}

// milgramRung keeps continuity with BENCH_pr6/8/10, whose
// BenchmarkPipelineGreedyEpisodes is a 50-pair core.RunMilgram on the
// n = 20 000 fixture, fanned out over all cores.
func (l *ladder) milgramRung() error {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		rep, err := core.RunMilgram(l.big, core.MilgramConfig{Pairs: 50, Seed: uint64(i + 1)})
		if err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
		sink += rep.MeanHops
	}
	l.vals["core.milgram50_ms"] = median(ms)
	return nil
}

// overlayPairs is the pass length of the overlay walk rung.
const overlayPairs = 256

// overlayRungs times the live-graph read path and its bookkeeping on the
// pre-churned n = 20 000 fixture.
func (l *ladder) overlayRungs() error {
	g := l.big.Graph
	_, ov, err := prechurn(g)
	if err != nil {
		return err
	}
	l.vals["graph.overlay_delta"] = float64(ov.DeltaSize())

	pl, onPath := drawLivePairs(l.big, ov, l.o.seed, overlayPairs)
	var (
		sc  route.Scratch
		out route.Result
	)
	ns, _, err := l.rung(0.05, len(pl.pairs), func(i int) time.Duration {
		p := pl.pairs[i]
		t0 := time.Now()
		route.GreedyCSROverlay(ov, int(p.t), int(p.s), route.Budget{}, &sc, &out)
		return time.Since(t0)
	})
	if err != nil {
		return err
	}
	l.vals["route.overlay_greedy_us"] = ns / 1e3

	var dirty []int
	for v := 0; v < g.N() && len(dirty) < 1024; v++ {
		if add, del := ov.Delta(v); len(add)+len(del) > 0 {
			dirty = append(dirty, v)
		}
	}
	l.vals["graph.overlay_neighbors_ns"] = l.micro(0.01, len(dirty), func(k int) {
		sink += float64(len(ov.Neighbors(dirty[k])))
	})

	// One mutation batch through graph.OverlayEdit: the graph's share of a
	// write (the stream's batches, chained as the log chains them).
	stream, err := newChurnStream(l.o.seed, ov, onPath)
	if err != nil {
		return err
	}
	cur, next := ov, 0
	ns, _, err = l.rung(0.02, 32, func(int) time.Duration {
		ops := stream.batch(next)
		next++
		t0 := time.Now()
		e := cur.Edit()
		err := applyOps(e, ops)
		cur = e.Finish()
		d := time.Since(t0)
		l.check(err, "graph.OverlayEdit")
		return d
	})
	l.vals["graph.overlay_edit_us"] = ns / 1e3
	return err
}
