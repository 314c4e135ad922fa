package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/route"
	"repro/internal/xrand"
)

// The graphs are fixed fixtures: route cost differs about 3x between GIRG
// samples of one size (seed 5: 3.8k episodes/s, seed 6: 12k), so --seed must
// not reach the generator or the seed-to-seed spread would measure the
// sampler, not the code. The fingerprints are asserted on every set-up: a
// change to the generator that moves them re-bases the whole ledger and has
// to say so.
type graphFixture struct {
	n     float64
	seed  uint64
	fp    uint64
	edges int
}

var (
	// bigFixture is the n = 20 000 GIRG every root benchmark since PR 6 used.
	bigFixture = graphFixture{n: 20000, seed: 5, fp: 0x23c930abf0935648, edges: 702196}
	// smallFixture is the n = 2 000 GIRG of BenchmarkRouteCluster3Shard.
	smallFixture = graphFixture{n: 2000, seed: 11, fp: 0xb611b16907e3bf27, edges: 56086}
)

const (
	// pairCount is the length of the cycled (s, t) list.
	pairCount = 4096
	// warmupOps precede every timed phase: all code paths run, pooled state
	// is sized, keep-alive connections are open.
	warmupOps = 512

	// prechurnSeed pins the live-churn fixture overlay: 2 % joins wired to 3
	// contacts and 2 % leaves, as overlayBenchNetwork (bench_test.go) does.
	prechurnSeed = 77
	// prechurnFP is the fingerprint of bigFixture after the pre-churn.
	prechurnFP = 0x2721ee10d01ce410
	// churnLag is how many batches a vertex joined by the mutation stream
	// stays before the stream removes it again, which keeps the overlay's
	// delta stationary over a run of any length.
	churnLag = 64
	// churnReads is the number of POST /route between two POST /admin/mutate.
	churnReads = 31
)

// sample draws the fixture through the same constructor every daemon and
// experiment uses (girg.Generate plus the standard-phi Network around it).
func (f graphFixture) sample() (*core.Network, error) {
	p := girg.DefaultParams(f.n)
	p.FixedN = true
	return core.NewGIRG(p, f.seed, girg.Options{})
}

// generate samples the fixture and checks it is the graph the ledger was
// recorded on.
func (f graphFixture) generate() (*core.Network, error) {
	nw, err := f.sample()
	if err != nil {
		return nil, err
	}
	if err := f.check(nw.Graph); err != nil {
		return nil, err
	}
	return nw, nil
}

func (f graphFixture) check(g *graph.Graph) error {
	if g.Fingerprint() != f.fp || g.M() != f.edges {
		return fmt.Errorf("fixture GIRG(n=%g, seed=%d) is %016x with %d edges, the ledger was recorded on %016x with %d: the generator changed, re-base the fixtures",
			f.n, f.seed, g.Fingerprint(), g.M(), f.fp, f.edges)
	}
	return nil
}

// mix derives an independent stream seed from the run seed and a lane.
func mix(seed, lane uint64) uint64 {
	z := seed + lane*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	lanePairs = 1 + iota
	laneChurn
	laneLadder
)

// pair is one (s, t) query with the episode the fast path produced for it at
// set-up: every measured operation on the pair must reproduce moves and
// unique, and the reference walk must reproduce the path.
type pair struct {
	s, t     int32
	moves    int32
	unique   int32
	pathHash uint64
}

// pairList is the cycled query list of one run.
type pairList struct {
	pairs []pair
	// drawn counts the raw draws it took to find len(pairs) delivered ones;
	// len(pairs)/drawn is Theorem 3.1's success constant on this graph.
	drawn int
}

func hashPath(path []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range path {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// drawPairs draws count (s, t) pairs uniformly from pool with the given
// stream and keeps those greedy routing delivers, so that no measured
// operation fails. walk routes s -> t into out through the fast path of the
// graph the workload serves; visit, if set, sees every kept path.
func drawPairs(pool []int, rng *xrand.RNG, count int, walk func(s, t int, out *route.Result), visit func(path []int)) pairList {
	pl := pairList{pairs: make([]pair, 0, count)}
	var out route.Result
	for len(pl.pairs) < count {
		s, t := pool[rng.IntN(len(pool))], pool[rng.IntN(len(pool))]
		if s == t {
			continue
		}
		pl.drawn++
		walk(s, t, &out)
		if !out.Success {
			continue
		}
		if visit != nil {
			visit(out.Path)
		}
		pl.pairs = append(pl.pairs, pair{
			s: int32(s), t: int32(t),
			moves: int32(out.Moves), unique: int32(out.Unique),
			pathHash: hashPath(out.Path),
		})
	}
	return pl
}

// csrWalk is the walk of an immutable snapshot.
func csrWalk(g *graph.Graph) func(s, t int, out *route.Result) {
	var sc route.Scratch
	return func(s, t int, out *route.Result) {
		route.GreedyCSR(g, t, s, route.Budget{}, &sc, out)
	}
}

// overlayWalk is the walk of a live overlay.
func overlayWalk(ov *graph.Overlay) func(s, t int, out *route.Result) {
	var sc route.Scratch
	return func(s, t int, out *route.Result) {
		route.GreedyCSROverlay(ov, t, s, route.Budget{}, &sc, out)
	}
}

// drawLivePairs draws count delivered pairs over a live overlay — endpoints
// from the base graph's giant component that the overlay has not removed —
// and marks every vertex on any of their paths.
func drawLivePairs(nw *core.Network, ov *graph.Overlay, seed uint64, count int) (pl pairList, onPath []bool) {
	var pool []int
	for _, v := range nw.Giant() {
		if !ov.Tombstoned(v) {
			pool = append(pool, v)
		}
	}
	onPath = make([]bool, ov.N())
	pl = drawPairs(pool, xrand.New(mix(seed, lanePairs)), count, overlayWalk(ov), func(path []int) {
		for _, v := range path {
			onPath[v] = true
		}
	})
	return pl, onPath
}

// matches reports whether an episode is the one recorded for the pair.
func (p pair) matches(success bool, moves, unique int) bool {
	return success && moves == int(p.moves) && unique == int(p.unique)
}

// hash digests the list; equal seeds must give equal digests.
func (pl pairList) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range pl.pairs {
		binary.LittleEndian.PutUint64(b[:], uint64(uint32(p.s))<<32|uint64(uint32(p.t)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], p.pathHash)
		h.Write(b[:])
	}
	return h.Sum64()
}

// tmpSeq numbers the temporary mutation logs of one process.
var tmpSeq atomic.Int64

// mutlogDir names a fresh directory for a temporary mutation log under
// <dir>/out, inside the checkout; the caller removes it.
func mutlogDir(dir string) (string, error) {
	if err := os.MkdirAll(outDir(dir), 0o755); err != nil {
		return "", err
	}
	return filepath.Join(outDir(dir), fmt.Sprintf("mutlog-%d-%d", os.Getpid(), tmpSeq.Add(1))), nil
}

// applyOps replays one mutation batch on an overlay edit, as the mutation
// log does between validation and publish; the bench keeps its own mirror of
// the live graph with it.
func applyOps(e *graph.OverlayEdit, ops []mutate.Op) error {
	for i, op := range ops {
		var err error
		switch op.Op {
		case mutate.OpAddVertex:
			_, err = e.AddVertex(op.Pos, op.W)
		case mutate.OpRemoveVertex:
			err = e.RemoveVertex(op.V)
		case mutate.OpAddEdge:
			err = e.AddEdge(op.U, op.V)
		case mutate.OpRemoveEdge:
			err = e.RemoveEdge(op.U, op.V)
		default:
			err = fmt.Errorf("unknown op kind %q", op.Op)
		}
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Op, err)
		}
	}
	return nil
}

// applyBatch returns the overlay after one batch.
func applyBatch(ov *graph.Overlay, ops []mutate.Op) (*graph.Overlay, error) {
	e := ov.Edit()
	if err := applyOps(e, ops); err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

// prechurn builds the live-churn fixture: the two batches (joins, leaves)
// that turn the empty overlay over g into the churned one, and that overlay.
// The draws follow overlayBenchNetwork in bench_test.go step for step.
func prechurn(g *graph.Graph) (batches [][]mutate.Op, ov *graph.Overlay, err error) {
	rng := xrand.New(prechurnSeed)
	dim := g.Space().Dim()
	e := graph.NewOverlay(g).Edit()
	var joins []mutate.Op
	for i := 0; i < g.N()/50; i++ {
		pos := make([]float64, dim)
		for d := range pos {
			pos[d] = rng.Float64()
		}
		w := g.WMin() * (1 + rng.Float64())
		id, err := e.AddVertex(pos, w)
		if err != nil {
			return nil, nil, err
		}
		joins = append(joins, mutate.Op{Op: mutate.OpAddVertex, Pos: pos, W: w})
		for k := 0; k < 3; k++ {
			if u := rng.IntN(g.N()); !e.Tombstoned(u) && !e.HasEdge(id, u) {
				if err := e.AddEdge(id, u); err != nil {
					return nil, nil, err
				}
				joins = append(joins, mutate.Op{Op: mutate.OpAddEdge, U: id, V: u})
			}
		}
	}
	ov = e.Finish()
	e = ov.Edit()
	var leaves []mutate.Op
	for picked := 0; picked < g.N()/50; {
		if v := rng.IntN(g.N()); !e.Tombstoned(v) {
			if err := e.RemoveVertex(v); err != nil {
				return nil, nil, err
			}
			leaves = append(leaves, mutate.Op{Op: mutate.OpRemoveVertex, V: v})
			picked++
		}
	}
	return [][]mutate.Op{joins, leaves}, e.Finish(), nil
}

// churnStream generates the live-churn mutation batches: batch b joins one
// vertex wired to three live contacts and, from churnLag on, removes the
// vertex batch b-churnLag joined. Contacts are drawn from base vertices that
// lie on no path of the run's pair list: a walk only ever scores the
// neighbours of the vertices it visits, so the stream changes the overlay's
// bookkeeping (epoch, delta map, tombstones, journal) under the reads
// without ever changing a read's episode — every read keeps delivering, does
// the same work at every epoch, and is checked against one recorded episode.
type churnStream struct {
	rng      *xrand.RNG
	contacts []int32
	dim      int
	wmin     float64
	firstID  int // id the stream's first join is assigned
	batches  [][]mutate.Op
}

// newChurnStream prepares the stream over the pre-churned overlay; onPath
// marks the vertices on any path of the run's pair list.
func newChurnStream(seed uint64, ov *graph.Overlay, onPath []bool) (*churnStream, error) {
	base := ov.Base()
	cs := &churnStream{
		rng:     xrand.New(mix(seed, laneChurn)),
		dim:     base.Space().Dim(),
		wmin:    base.WMin(),
		firstID: ov.N(),
	}
	for v := 0; v < base.N(); v++ {
		if !onPath[v] && !ov.Tombstoned(v) {
			cs.contacts = append(cs.contacts, int32(v))
		}
	}
	if len(cs.contacts) < 3 {
		return nil, fmt.Errorf("only %d vertices lie off every path of the pair list; the mutation stream needs 3 contacts", len(cs.contacts))
	}
	return cs, nil
}

// batch returns batch b, generating the stream up to it on first use. The
// sequence is a pure function of the seed.
func (cs *churnStream) batch(b int) []mutate.Op {
	for len(cs.batches) <= b {
		i := len(cs.batches)
		id := cs.firstID + i
		pos := make([]float64, cs.dim)
		for d := range pos {
			pos[d] = cs.rng.Float64()
		}
		ops := []mutate.Op{{Op: mutate.OpAddVertex, Pos: pos, W: cs.wmin * (1 + cs.rng.Float64())}}
		var picked [3]int32
		for k := 0; k < 3; {
			c := cs.contacts[cs.rng.IntN(len(cs.contacts))]
			if (k > 0 && c == picked[0]) || (k > 1 && c == picked[1]) {
				continue
			}
			picked[k] = c
			ops = append(ops, mutate.Op{Op: mutate.OpAddEdge, U: id, V: int(c)})
			k++
		}
		if i >= churnLag {
			ops = append(ops, mutate.Op{Op: mutate.OpRemoveVertex, V: cs.firstID + i - churnLag})
		}
		cs.batches = append(cs.batches, ops)
	}
	return cs.batches[b]
}

// hash digests the first n batches; equal seeds must give equal digests.
func (cs *churnStream) hash(n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := 0; i < n; i++ {
		for _, op := range cs.batch(i) {
			h.Write([]byte(op.Op))
			put(uint64(op.U))
			put(uint64(op.V))
			put(math.Float64bits(op.W))
			for _, c := range op.Pos {
				put(math.Float64bits(c))
			}
		}
	}
	return h.Sum64()
}
