package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// A workload is one closed loop with ONE operation in flight: the caller
// waits for each reply before it issues the next request, so generator and
// daemons together never need more than one core at a time and a neighbour
// taking the host's other core does not reorder the work (one client spread
// p50 by 8 % over five runs on this 2-core host, two clients by 24 %). The
// operation sequence is a pure function of the seed.
type workload interface {
	// window is the estimator window: every window must hold >= 1000
	// operations for its p99 to have ten samples beyond it.
	window() time.Duration
	// setup builds everything a run needs — fixture graph, giant component,
	// the seed's query list (filtered to delivered pairs), the stack — and
	// warms it up. Its wall time is one sample of setup_s.
	setup() error
	// op performs operation i and returns when the request was issued and
	// when the reply was complete. A non-nil error is a failed operation:
	// transport error, non-200, undelivered, or not the recorded episode.
	op(i int, tr *spanRec) (issued, replied time.Time, err error)
	// verify checks the run's outputs against references after the loop.
	verify() (failed int, err error)
	// teardown stops every server, drains connections and removes temp
	// files; it is safe to call after a failed setup and more than once.
	teardown()
	// ops is the number of operations performed so far (warm-up included).
	ops() int
	// names interns the workload's span names in a traced run's recorder.
	names(tr *spanRec)
}

func newWorkload(name string, seed uint64, dir string, fails *failLog) (workload, error) {
	switch name {
	case wlLibEpisodes:
		return &libEpisodes{seed: seed, fails: fails}, nil
	case wlClusterHop:
		return &clusterHop{seed: seed, fails: fails}, nil
	case wlLiveChurn:
		return &liveChurn{seed: seed, dir: dir, fails: fails}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// failLog keeps the first few failure messages for stderr; the count is what
// the result line reports.
type failLog struct {
	msgs []string
}

func (f *failLog) add(format string, args ...interface{}) {
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// warmup runs the first warmupOps operations of the workload's sequence
// untimed; the measured phase continues the sequence where it stops.
func warmup(w workload) error {
	for i := w.ops(); i < warmupOps; i++ {
		if _, _, err := w.op(i, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------- lib-episodes

// libEpisodes is the paper-reproduction user: one goroutine calling
// core.Network.RouteEpisodeInto (greedy, pooled Scratch/Result) on the
// n = 20 000 fixture. torus+route+core do all of the work, serve, cluster and
// mutate none: hub-scan and walk-unification work must show here, and a
// serve or cluster change must move nothing.
type libEpisodes struct {
	seed  uint64
	fails *failLog

	nw  *core.Network
	pl  pairList
	sc  route.Scratch
	out route.Result
	n   int

	spanOp, spanEpisode uint8
}

func (w *libEpisodes) window() time.Duration { return time.Second }
func (w *libEpisodes) ops() int              { return w.n }

func (w *libEpisodes) setup() error {
	nw, err := bigFixture.generate()
	if err != nil {
		return err
	}
	w.nw = nw
	w.pl = drawPairs(nw.Giant(), xrand.New(mix(w.seed, lanePairs)), pairCount, csrWalk(nw.Graph), nil)
	return warmup(w)
}

func (w *libEpisodes) names(tr *spanRec) {
	w.spanOp, w.spanEpisode = tr.name("op"), tr.name("core.RouteEpisodeInto")
}

func (w *libEpisodes) op(i int, tr *spanRec) (issued, replied time.Time, err error) {
	p := w.pl.pairs[i%len(w.pl.pairs)]
	w.n++
	root := tr.begin(w.spanOp, -1, i)
	issued = time.Now()
	sp := tr.begin(w.spanEpisode, root, i)
	err = w.nw.RouteEpisodeInto(core.EpisodeConfig{S: int(p.s), T: int(p.t)}, &w.sc, &w.out)
	tr.end(sp)
	replied = time.Now()
	if err == nil && !p.matches(w.out.Success, w.out.Moves, w.out.Unique) {
		err = fmt.Errorf("pair (%d, %d): success=%v moves=%d unique=%d failure=%q, recorded moves=%d unique=%d",
			p.s, p.t, w.out.Success, w.out.Moves, w.out.Unique, w.out.Failure, p.moves, p.unique)
	}
	tr.end(root)
	return issued, replied, err
}

// verify walks every pair once with the reference implementation —
// route.Greedy over the interface path and the NewStandard objective — and
// requires the recorded fast-path episode, path included.
func (w *libEpisodes) verify() (failed int, err error) {
	g := w.nw.Graph
	for _, p := range w.pl.pairs {
		ref := route.Greedy(g, route.NewStandard(g, int(p.t)), int(p.s))
		if !p.matches(ref.Success, ref.Moves, ref.Unique) || hashPath(ref.Path) != p.pathHash {
			failed++
			w.fails.add("reference walk (%d, %d): success=%v moves=%d unique=%d, fast path recorded moves=%d unique=%d",
				p.s, p.t, ref.Success, ref.Moves, ref.Unique, p.moves, p.unique)
		}
	}
	return failed, nil
}

func (w *libEpisodes) teardown() {}

// ----------------------------------------------------------------- cluster-hop

// clusterHop is the sharded daemon's client: POST /route round-robin over
// the three entry daemons of a 3-shard Morton cluster on the n = 2 000
// fixture. The engine is about a sixth of a request here, so serve, cluster
// forwarding, JSON and net/http dominate: the cluster-tax workload, on which
// an engine-only change predicts at most a sixth of its own gain.
type clusterHop struct {
	seed  uint64
	fails *failLog

	nw      *core.Network
	pl      pairList
	daemons []*daemon
	urls    []string
	cl      *client
	bodies  [][]byte
	buf     bytes.Buffer
	resp    serve.RouteResponse
	n       int

	spanOp, spanPost, spanCheck uint8
}

func (w *clusterHop) window() time.Duration { return time.Second }
func (w *clusterHop) ops() int              { return w.n }

func (w *clusterHop) setup() error {
	nw, err := smallFixture.generate()
	if err != nil {
		return err
	}
	w.nw = nw
	w.pl = drawPairs(nw.Giant(), xrand.New(mix(w.seed, lanePairs)), pairCount, csrWalk(nw.Graph), nil)
	if w.bodies, err = routeBodies(w.pl, false); err != nil {
		return err
	}
	if w.daemons, err = startCluster(serve.Config{}, nw, 1); err != nil {
		return err
	}
	for _, d := range w.daemons {
		w.urls = append(w.urls, d.url+"/route")
	}
	w.cl = newClient()
	return warmup(w)
}

func (w *clusterHop) names(tr *spanRec) {
	w.spanOp, w.spanPost, w.spanCheck = tr.name("op"), tr.name("POST /route (3 shards)"), tr.name("decode+check")
}

func (w *clusterHop) op(i int, tr *spanRec) (issued, replied time.Time, err error) {
	k := i % len(w.pl.pairs)
	w.n++
	root := tr.begin(w.spanOp, -1, i)
	issued = time.Now()
	sp := tr.begin(w.spanPost, root, i)
	status, err := w.cl.post(w.urls[i%len(w.urls)], w.bodies[k], &w.buf)
	tr.end(sp)
	replied = time.Now()
	if err == nil {
		sp = tr.begin(w.spanCheck, root, i)
		err = checkRoute(status, w.buf.Bytes(), w.pl.pairs[k], &w.resp)
		tr.end(sp)
	}
	tr.end(root)
	return issued, replied, err
}

// pathSample is how many pairs verify re-routes with include_path.
const pathSample = 256

// verify asks for the stitched path of a fixed sample of pairs and requires
// it bit-identical to the single-node GreedyCSR path.
func (w *clusterHop) verify() (failed int, err error) {
	refreshMembership(w.daemons)
	sample := pairList{pairs: w.pl.pairs[:pathSample]}
	bodies, err := routeBodies(sample, true)
	if err != nil {
		return 0, err
	}
	walk := csrWalk(w.nw.Graph)
	var ref route.Result
	for i, p := range sample.pairs {
		status, err := w.cl.post(w.urls[i%len(w.urls)], bodies[i], &w.buf)
		if err == nil {
			err = checkRoute(status, w.buf.Bytes(), p, &w.resp)
		}
		if err != nil {
			failed++
			w.fails.add("path sample %d: %v", i, err)
			continue
		}
		walk(int(p.s), int(p.t), &ref)
		if !equalPath(w.resp.Path, ref.Path) {
			failed++
			w.fails.add("pair (%d, %d): stitched path %v != single-node path %v", p.s, p.t, w.resp.Path, ref.Path)
		}
	}
	return failed, nil
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *clusterHop) teardown() {
	if w.cl != nil {
		w.cl.close()
		w.cl = nil
	}
	closeAll(w.daemons)
	w.daemons = nil
}

// ------------------------------------------------------------------ live-churn

// liveChurn is the mutable daemon's client: one daemon over the n = 20 000
// fixture with a journaled mutation log, pre-churned by 2 % joins and 2 %
// leaves; the loop is 31 x POST /route then 1 x POST /admin/mutate (one join
// wired to three contacts plus the leave of the vertex joined 64 batches
// earlier), repeated. Reads walk GreedyCSROverlay over merged adjacency,
// writes go validate -> journal fsync -> publish, so a read-path gain that
// costs the write path, or overlay bookkeeping that slows reads, shows in
// qps, p99_ms and cpu_ms_per_op. Writes are interleaved in the one closed
// loop, not fired by a ticker, which would couple read latency to fsync
// timing.
type liveChurn struct {
	seed  uint64
	dir   string
	fails *failLog

	nw     *core.Network
	mirror *graph.Overlay // the pre-churned overlay; verify replays the stream on it
	log    *mutate.Log
	tmp    string
	d      *daemon
	cl     *client
	pl     pairList
	stream *churnStream
	bodies [][]byte // POST /route bodies, one per pair
	writes [][]byte // POST /admin/mutate bodies, one per batch
	buf    bytes.Buffer
	resp   serve.RouteResponse
	n      int

	applied int        // batches the daemon acknowledged
	tail    []tailRead // reads issued since the last write

	spanOp, spanRead, spanWrite, spanCheck uint8
}

// tailRead is a read the daemon answered after the last write, re-routed on
// the mirror by verify.
type tailRead struct {
	pair          int
	moves, unique int
}

func (w *liveChurn) window() time.Duration { return 2 * time.Second }
func (w *liveChurn) ops() int              { return w.n }

func (w *liveChurn) setup() error {
	nw, err := bigFixture.generate()
	if err != nil {
		return err
	}
	w.nw = nw
	batches, mirror, err := prechurn(nw.Graph)
	if err != nil {
		return fmt.Errorf("pre-churn: %w", err)
	}
	w.mirror = mirror
	if w.tmp, err = mutlogDir(w.dir); err != nil {
		return err
	}
	if w.log, err = mutate.Open(w.tmp, nw.Graph, mutate.Config{}); err != nil {
		return err
	}
	for _, ops := range batches {
		if _, err := w.log.Apply(ops); err != nil {
			return fmt.Errorf("pre-churn: %w", err)
		}
	}
	if w.d, err = startDaemon(serve.Config{RequestIDSalt: 1}, func(d *daemon) error {
		return d.srv.EnableMutation(w.log, serve.DefaultGraph)
	}); err != nil {
		return err
	}
	w.cl = newClient()

	var onPath []bool
	w.pl, onPath = drawLivePairs(nw, mirror, w.seed, pairCount)
	if w.bodies, err = routeBodies(w.pl, false); err != nil {
		return err
	}
	if w.stream, err = newChurnStream(w.seed, mirror, onPath); err != nil {
		return err
	}
	return warmup(w)
}

func (w *liveChurn) names(tr *spanRec) {
	w.spanOp, w.spanRead = tr.name("op"), tr.name("POST /route (live overlay)")
	w.spanWrite, w.spanCheck = tr.name("POST /admin/mutate"), tr.name("decode+check")
}

// writeBody returns the encoded POST /admin/mutate request of batch b.
func (w *liveChurn) writeBody(b int) ([]byte, error) {
	for len(w.writes) <= b {
		body, err := json.Marshal(serve.MutateRequest{Ops: w.stream.batch(len(w.writes))})
		if err != nil {
			return nil, err
		}
		w.writes = append(w.writes, body)
	}
	return w.writes[b], nil
}

func (w *liveChurn) op(i int, tr *spanRec) (issued, replied time.Time, err error) {
	w.n++
	cycle := churnReads + 1
	if i%cycle == churnReads {
		return w.write(i, i/cycle, tr)
	}
	k := (i - i/cycle) % len(w.pl.pairs)
	root := tr.begin(w.spanOp, -1, i)
	issued = time.Now()
	sp := tr.begin(w.spanRead, root, i)
	status, err := w.cl.post(w.d.url+"/route", w.bodies[k], &w.buf)
	tr.end(sp)
	replied = time.Now()
	if err == nil {
		sp = tr.begin(w.spanCheck, root, i)
		err = checkRoute(status, w.buf.Bytes(), w.pl.pairs[k], &w.resp)
		tr.end(sp)
		w.tail = append(w.tail, tailRead{pair: k, moves: w.resp.Moves, unique: w.resp.Unique})
	}
	tr.end(root)
	return issued, replied, err
}

func (w *liveChurn) write(i, b int, tr *spanRec) (issued, replied time.Time, err error) {
	body, err := w.writeBody(b)
	if err != nil {
		return issued, replied, err
	}
	root := tr.begin(w.spanOp, -1, i)
	issued = time.Now()
	sp := tr.begin(w.spanWrite, root, i)
	status, err := w.cl.post(w.d.url+"/admin/mutate", body, &w.buf)
	tr.end(sp)
	replied = time.Now()
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = fmt.Errorf("batch %d: status %d: %s", b, status, bytes.TrimSpace(w.buf.Bytes()))
	default:
		w.applied = b + 1
		w.tail = w.tail[:0]
	}
	tr.end(root)
	return issued, replied, err
}

// verify replays the acknowledged batches through graph.OverlayEdit on the
// bench's mirror and requires (1) the daemon's live fingerprint on /readyz
// to match the mirror's, (2) the journal, reopened with Resume, to replay
// to the same fingerprint, and (3) every read answered after the last write
// to be the episode route.GreedyCSROverlay walks on the mirror.
func (w *liveChurn) verify() (failed int, err error) {
	// The pre-churned overlay's fingerprint is pinned by TestFixtureFingerprints
	// rather than asserted at set-up: digesting an overlay materializes it,
	// a transient as large as the graph that would count into setup_s and
	// rss_peak_mb. Here the mirror is digested once, and must agree with the
	// daemon and with the journal.
	ov := w.mirror
	for b := 0; b < w.applied; b++ {
		if ov, err = applyBatch(ov, w.stream.batch(b)); err != nil {
			return 0, fmt.Errorf("mirror replay of batch %d: %w", b, err)
		}
	}
	// Each of the three digests below materializes a graph-sized transient;
	// collecting in between keeps them from stacking in rss_peak_mb by the
	// luck of GC timing.
	debug.FreeOSMemory()
	want := fmt.Sprintf("%016x", ov.Fingerprint())

	debug.FreeOSMemory()
	resp, err := w.cl.hc.Get(w.d.url + "/readyz")
	if err != nil {
		return failed, err
	}
	var ready serve.ReadyResponse
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil {
		return failed, err
	}
	if live := ready.Graphs[serve.DefaultGraph].Live; live == nil || live.Fingerprint != want {
		failed++
		w.fails.add("daemon live graph %+v, mirror after %d batches is %s", live, w.applied, want)
	}

	walk := overlayWalk(ov)
	var ref route.Result
	for _, r := range w.tail {
		p := w.pl.pairs[r.pair]
		walk(int(p.s), int(p.t), &ref)
		if !ref.Success || ref.Moves != r.moves || ref.Unique != r.unique {
			failed++
			w.fails.add("read (%d, %d) after the last write: daemon moves=%d unique=%d, mirror success=%v moves=%d unique=%d",
				p.s, p.t, r.moves, r.unique, ref.Success, ref.Moves, ref.Unique)
		}
	}

	// Stop the daemon and reopen its journal as a restarted daemon would.
	w.stopDaemon()
	debug.FreeOSMemory()
	log, err := mutate.Open(w.tmp, w.nw.Graph, mutate.Config{Resume: true})
	if err != nil {
		return failed, fmt.Errorf("reopen journal: %w", err)
	}
	got := fmt.Sprintf("%016x", log.Fingerprint())
	if err := log.Close(); err != nil {
		return failed, err
	}
	if got != want {
		failed++
		w.fails.add("journal replays to %s, mirror after %d batches is %s", got, w.applied, want)
	}
	return failed, nil
}

func (w *liveChurn) stopDaemon() {
	if w.cl != nil {
		w.cl.close()
		w.cl = nil
	}
	if w.d != nil {
		w.d.close()
		w.d = nil
	}
	if w.log != nil {
		w.log.Close()
		w.log = nil
	}
}

func (w *liveChurn) teardown() {
	w.stopDaemon()
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
		w.tmp = ""
	}
}
