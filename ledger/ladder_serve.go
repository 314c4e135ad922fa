package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
)

// recorder is the in-process reply sink of the handler rungs.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

func (r *recorder) reset() {
	r.hdr = make(http.Header, 4)
	r.status = http.StatusOK
	r.body.Reset()
}

// serveInProcess times h.ServeHTTP on one request body.
func serveInProcess(h http.Handler, path string, body []byte, rec *recorder) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	rec.reset()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(t0), nil
}

// codecRung times the JSON codec alone: what one request costs in encoding
// and decoding on both sides of the wire, without a handler or a socket.
func (l *ladder) codecRung() error {
	pairs := l.chainPairs.pairs
	var (
		buf  bytes.Buffer
		req  serve.RouteRequest
		resp serve.RouteResponse
	)
	ns, _, err := l.rung(0.02, len(pairs), func(i int) time.Duration {
		p := pairs[i]
		t0 := time.Now()
		b, _ := json.Marshal(serve.RouteRequest{S: int(p.s), T: int(p.t)})
		_ = json.NewDecoder(bytes.NewReader(b)).Decode(&req)
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(serve.RouteResponse{
			Graph: serve.DefaultGraph, Protocol: "greedy", S: req.S, T: req.T, Success: true,
			Moves: int(p.moves), Unique: int(p.unique), Attempts: 1, ElapsedMs: 0.5,
			Timings: &serve.Timings{QueueUs: 1, RouteUs: 500, TotalUs: 510},
		})
		_ = json.Unmarshal(buf.Bytes(), &resp)
		return time.Since(t0)
	})
	l.vals["serve.codec_us"] = ns / 1e3
	return err
}

// routeTally sums what POST /route replies report about themselves.
type routeTally struct {
	n, shed, unreachable, local int
	retries, forwards           int
	queueUs, forwardUs          int64
}

func (t *routeTally) add(status int, r *serve.RouteResponse) {
	t.n++
	switch {
	case status == http.StatusTooManyRequests:
		t.shed++
		return
	case r.Failure == string(route.FailShardUnreachable):
		t.unreachable++
	}
	t.retries += r.Attempts - 1
	t.forwards += r.Forwards
	if r.Forwards == 0 {
		t.local++
	}
	if tm := r.Timings; tm != nil {
		t.queueUs += tm.QueueUs
		t.forwardUs += tm.ForwardUs
	}
}

// postOp returns the rung operation that POSTs pair i's /route body
// round-robin over urls, times the call, checks the reply and tallies it,
// and the aux reading of the reply's own Timings.RouteUs.
func (l *ladder) postOp(cl *client, urls []string, pairs []pair, bodies [][]byte, tally *routeTally, what string) (op func(i int) time.Duration, routeUs func() float64) {
	var (
		buf  bytes.Buffer
		resp serve.RouteResponse
	)
	routeUs = func() float64 {
		if resp.Timings == nil {
			return 0
		}
		return float64(resp.Timings.RouteUs)
	}
	return func(i int) time.Duration {
		t0 := time.Now()
		status, err := cl.post(urls[i%len(urls)], bodies[i], &buf)
		d := time.Since(t0)
		if err == nil {
			err = checkRoute(status, buf.Bytes(), pairs[i], &resp)
		}
		tally.add(status, &resp)
		l.check(err, what)
		return d
	}, routeUs
}

func routeURLs(ds []*daemon) []string {
	urls := make([]string, len(ds))
	for i, d := range ds {
		urls[i] = d.url + "/route"
	}
	return urls
}

// chainRungs runs the chain — route, core, handler, loopback and, on the
// n = 2 000 fixture, the 3-shard and 3x2-replica requests — as one
// interleaved group, then the rungs that need the chain's daemon under more
// than one request in flight.
func (l *ladder) chainRungs() error {
	pairs := l.chainPairs.pairs
	bodies, err := routeBodies(l.chainPairs, false)
	if err != nil {
		return err
	}
	g := l.chain.Graph

	srv := serve.New(serve.Config{Logger: discardLogger(), RequestIDSalt: 1})
	srv.AddNetwork(serve.DefaultGraph, l.chain)
	h := srv.Handler()
	// The same handler with distributed phase spans sampled at rate 1: what
	// tracing costs when it is on (off, it must cost nothing).
	spanSrv := serve.New(serve.Config{
		Logger: discardLogger(), RequestIDSalt: 1,
		Spans: obs.NewSpanLog(obs.SpanLogConfig{Service: "ledger", Seed: 1, SampleRate: 1}),
	})
	spanSrv.AddNetwork(serve.DefaultGraph, l.chain)

	// Allocations of the handler call alone, before any daemon runs: the
	// same loop around a handler that does nothing is the bench's own share.
	var rec recorder
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	withHandler := allocsPerOp(len(pairs), func(i int) { serveInProcess(h, "/route", bodies[i], &rec) })
	benchOnly := allocsPerOp(len(pairs), func(i int) { serveInProcess(nop, "/route", bodies[i], &rec) })
	l.vals["serve.handler_allocs"] = withHandler - benchOnly

	// POST /route/batch bodies, 64 queries under one admission slot.
	const batch = 64
	var batchBodies [][]byte
	for at := 0; at+batch <= len(pairs); at += batch {
		items := make([]serve.BatchItem, batch)
		for k := range items {
			items[k] = serve.BatchItem{S: int(pairs[at+k].s), T: int(pairs[at+k].t)}
		}
		b, err := json.Marshal(serve.BatchRouteRequest{Items: items})
		if err != nil {
			return err
		}
		batchBodies = append(batchBodies, b)
	}

	// Every stack the group needs, up at once.
	cl := newClient()
	defer cl.close()
	single, err := startSingle(serve.Config{RequestIDSalt: 1}, l.chain)
	if err != nil {
		return err
	}
	defer single.close()
	var base *daemon
	if l.chain != l.small {
		if base, err = startSingle(serve.Config{RequestIDSalt: 1}, l.small); err != nil {
			return err
		}
		defer base.close()
	}
	shards, err := startCluster(serve.Config{}, l.small, 1)
	if err != nil {
		return err
	}
	defer closeAll(shards)
	replicated, err := startCluster(serve.Config{HedgeAfter: 100 * time.Millisecond}, l.small, 2)
	if err != nil {
		return err
	}
	defer closeAll(replicated)

	var (
		sc    route.Scratch
		out   route.Result
		resp  serve.RouteResponse
		bresp serve.BatchRouteResponse
		// chainTally is the chain's loopback rung; baseTally, shardTally and
		// replTally the n = 2 000 single-node, 3-shard and 3x2 requests.
		chainTally, baseTally, shardTally, replTally routeTally
	)
	handle := func(h http.Handler, what string) func(i int) time.Duration {
		return func(i int) time.Duration {
			d, err := serveInProcess(h, "/route", bodies[i], &rec)
			if err == nil {
				err = checkRoute(rec.status, rec.body.Bytes(), pairs[i], &resp)
			}
			l.check(err, what)
			return d
		}
	}
	smallBodies, err := routeBodies(l.smallPairs, false)
	if err != nil {
		return err
	}
	sp := l.smallPairs.pairs
	loopback, loopbackRouteUs := l.postOp(cl, []string{single.url + "/route"}, pairs, bodies, &chainTally, "POST /route")
	sharded, _ := l.postOp(cl, routeURLs(shards), sp, smallBodies, &shardTally, "POST /route, 3 shards")
	repl, _ := l.postOp(cl, routeURLs(replicated), sp, smallBodies, &replTally, "POST /route, 3 shards x 2 replicas")
	specs := []rungSpec{
		{n: len(pairs), op: func(i int) time.Duration {
			t0 := time.Now()
			route.GreedyCSR(g, int(pairs[i].t), int(pairs[i].s), route.Budget{}, &sc, &out)
			return time.Since(t0)
		}},
		{n: len(pairs), op: func(i int) time.Duration {
			p := pairs[i]
			t0 := time.Now()
			err := l.chain.RouteEpisodeInto(core.EpisodeConfig{S: int(p.s), T: int(p.t)}, &sc, &out)
			d := time.Since(t0)
			if err == nil {
				err = matchErr(p, out.Success, out.Moves, out.Unique)
			}
			l.check(err, "core.RouteEpisodeInto")
			return d
		}},
		{n: len(pairs), op: handle(h, "serve.Handler")},
		{n: len(pairs), op: handle(spanSrv.Handler(), "serve.Handler with spans")},
		{n: len(batchBodies), op: func(i int) time.Duration {
			d, err := serveInProcess(h, "/route/batch", batchBodies[i], &rec)
			if err == nil && rec.status != http.StatusOK {
				err = fmt.Errorf("status %d", rec.status)
			}
			if err == nil {
				bresp = serve.BatchRouteResponse{}
				err = json.Unmarshal(rec.body.Bytes(), &bresp)
			}
			for k := 0; err == nil && k < len(bresp.Items); k++ {
				if it := bresp.Items[k]; it.Status != http.StatusOK || !pairs[i*batch+k].matches(it.Success, it.Moves, it.Unique) {
					err = fmt.Errorf("item %d: status %d success=%v moves=%d", k, it.Status, it.Success, it.Moves)
				}
			}
			l.check(err, "POST /route/batch")
			return d
		}},
		{n: len(pairs), op: loopback, aux: loopbackRouteUs},
		{n: len(sp), op: sharded, before: func() { refreshMembership(shards) }},
		{n: len(sp), op: repl, before: func() { refreshMembership(replicated) }},
	}
	const (
		rGreedy = iota
		rEpisode
		rHandler
		rSpans
		rBatch
		rLoopback
		rShards
		rReplicated
		rBase
	)
	if base != nil {
		op, _ := l.postOp(cl, []string{base.url + "/route"}, sp, smallBodies, &baseTally, "POST /route, n=2000")
		specs = append(specs, rungSpec{n: len(sp), op: op})
	}
	// Connections open and pools sized before the first timed pass. On the
	// 3-shard rung that is one whole untimed pass of the list, which also
	// gives the exact forwarding counts of the list.
	for _, k := range []int{rLoopback, rReplicated, rBase} {
		for i := 0; k < len(specs) && i < 64; i++ {
			specs[k].op(i)
		}
	}
	shardTally = routeTally{}
	for i := range sp {
		sharded(i)
	}
	l.vals["cluster.forwards_per_query"] = float64(shardTally.forwards) / float64(shardTally.n)
	l.vals["cluster.local_share"] = float64(shardTally.local) / float64(shardTally.n)
	chainTally, baseTally, shardTally, replTally = routeTally{}, routeTally{}, routeTally{}, routeTally{}
	res, err := l.interleave(0.58, specs)
	if err != nil {
		return err
	}
	us := func(k int) float64 { return res[k].ns / 1e3 }

	l.vals["route.greedycsr_us"] = us(rGreedy)
	l.vals["route.greedycsr_p99_us"] = tail(res[rGreedy].lats, 0.99) / 1e3
	l.vals["route.scan_ns_per_neighbor"] = res[rGreedy].ns / l.vals["route.neighbors_scored_per_episode"]
	l.vals["core.episode_us"] = us(rEpisode)
	l.vals["core.episode_self_us"] = us(rEpisode) - us(rGreedy)
	l.vals["serve.handler_us"] = us(rHandler)
	l.vals["serve.handler_self_us"] = us(rHandler) - us(rEpisode)
	l.vals["obs.spans_on_handler_us"] = us(rSpans)
	l.vals["serve.batch64_us_per_query"] = us(rBatch) / batch
	l.vals["serve.loopback_us"] = us(rLoopback)
	l.vals["serve.wire_self_us"] = us(rLoopback) - us(rHandler)
	l.vals["serve.queue_us_mean"] = float64(chainTally.queueUs) / float64(chainTally.n)
	// The server's own account of its engine time, estimated like the rung it
	// is reconciled with (a plain mean over the rung follows one stalled pass).
	l.vals["serve.route_us_mean"] = res[rLoopback].aux

	// The cluster's tax is measured against the single-node request on the
	// same graph: the chain's loopback rung on cluster-hop, the extra rung
	// otherwise.
	baseUs := us(rLoopback)
	if base != nil {
		baseUs = us(rBase)
	}
	l.vals["cluster.request_us"] = us(rShards)
	l.vals["cluster.hop_self_us"] = us(rShards) - baseUs
	l.vals["cluster.tax_ratio"] = us(rShards) / baseUs
	l.vals["cluster.forward_us_per_forward"] = float64(shardTally.forwardUs) / float64(shardTally.forwards)
	l.vals["cluster.r2_request_us"] = us(rReplicated)
	l.vals["cluster.unreachable_ratio"] = float64(shardTally.unreachable+replTally.unreachable) / float64(shardTally.n+replTally.n)

	// Allocations of one 3-shard request, client and all three daemons (the
	// other stacks are idle and allocate nothing).
	refreshMembership(shards)
	var buf bytes.Buffer
	urls := routeURLs(shards)
	l.vals["cluster.request_allocs"] = allocsPerOp(len(sp), func(i int) {
		cl.post(urls[i%len(urls)], smallBodies[i], &buf)
	})
	node, nv := shards[0].node, l.small.Graph.N()
	l.vals["cluster.ownersof_ns"] = l.micro(0.01, 1024, func(k int) {
		sink += float64(len(node.OwnersOf(k % nv)))
	})

	// Concurrency above one and open-loop rates measure the scheduler on two
	// shared cores, so they explain p99_ms and gate nothing.
	url := single.url + "/route"
	c2, err := l.twoClients(cl, url, bodies, &chainTally, time.Duration(0.05*float64(l.budget)))
	if err != nil {
		return err
	}
	l.vals["serve.c2_qps"] = c2
	rate := 0.5 * 1e9 / res[rLoopback].ns
	if err := l.openLoop(cl, url, bodies, &chainTally, rate, time.Duration(0.08*float64(l.budget)), 5*time.Millisecond); err != nil {
		return err
	}
	l.vals["serve.shed_ratio"] = float64(chainTally.shed) / float64(chainTally.n)
	l.vals["serve.retries_per_query"] = float64(chainTally.retries) / float64(chainTally.n)
	l.host.maybe()
	return nil
}

// twoClients runs two closed-loop clients against url for d and returns the
// completed operations per second.
func (l *ladder) twoClients(cl *client, url string, bodies [][]byte, tally *routeTally, d time.Duration) (float64, error) {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		done int
	)
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				buf  bytes.Buffer
				resp serve.RouteResponse
			)
			for i := c * len(bodies) / 2; time.Since(start) < d && l.ctx.Err() == nil; i++ {
				k := i % len(bodies)
				status, err := cl.post(url, bodies[k], &buf)
				if err == nil {
					err = checkRoute(status, buf.Bytes(), l.chainPairs.pairs[k], &resp)
				}
				mu.Lock()
				tally.add(status, &resp)
				l.check(err, "POST /route, two clients")
				done++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if l.ctx.Err() != nil {
		return 0, errInterrupted
	}
	return float64(done) / time.Since(start).Seconds(), nil
}

// openLoop sends POST /route on a fixed schedule for d, whatever the replies
// do, and times each request from when it was due, which counts the wait a
// stall imposes on later requests. It reports how late the generator ran.
func (l *ladder) openLoop(cl *client, url string, bodies [][]byte, tally *routeTally, rate float64, d, limit time.Duration) error {
	n := int(d.Seconds() * rate)
	if n < 100 {
		n = 100
	}
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]int64, n)
	late := make([]int64, n)
	ok := make([]bool, n)
	// At most 32 requests in flight: when the daemon stalls for longer the
	// generator blocks, and its lateness shows it.
	inflight := make(chan struct{}, 32)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < n && l.ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		inflight <- struct{}{}
		late[i] = int64(time.Since(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var (
				buf  bytes.Buffer
				resp serve.RouteResponse
			)
			k := i % len(bodies)
			status, err := cl.post(url, bodies[k], &buf)
			lat[i] = int64(time.Since(due))
			if err == nil {
				err = checkRoute(status, buf.Bytes(), l.chainPairs.pairs[k], &resp)
			}
			ok[i] = err == nil
			mu.Lock()
			tally.add(status, &resp)
			l.check(err, "POST /route, open loop")
			mu.Unlock()
			<-inflight
		}(i)
	}
	wg.Wait()
	if l.ctx.Err() != nil {
		return errInterrupted
	}
	within := 0
	for i := range lat {
		if ok[i] && lat[i] <= int64(limit) {
			within++
		}
	}
	l.vals["serve.open_within_limit_ratio"] = float64(within) / float64(n)
	l.vals["serve.open_p50_ms"] = medianNs(lat) / 1e6
	l.vals["serve.open_p99_ms"] = tail(lat, 0.99) / 1e6
	l.vals["serve.open_late_p99_ms"] = tail(late, 0.99) / 1e6
	return nil
}
