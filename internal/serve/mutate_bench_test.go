package serve

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/xrand"
)

// prechurnOps is the ledger's live-churn pre-churn (ledger/fixture.go, seed
// 77) as two mutation batches: 2 % joins wired to 3 contacts, 2 % leaves.
// It returns the churned overlay as well, for its tombstones and vertex ids.
func prechurnOps(tb testing.TB, g *graph.Graph) ([][]mutate.Op, *graph.Overlay) {
	tb.Helper()
	rng := xrand.New(77)
	e := graph.NewOverlay(g).Edit()
	var joins, leaves []mutate.Op
	for i := 0; i < g.N()/50; i++ {
		pos := []float64{rng.Float64(), rng.Float64()}
		w := g.WMin() * (1 + rng.Float64())
		id, err := e.AddVertex(pos, w)
		if err != nil {
			tb.Fatal(err)
		}
		joins = append(joins, mutate.Op{Op: mutate.OpAddVertex, Pos: pos, W: w})
		for k := 0; k < 3; k++ {
			if u := rng.IntN(g.N()); !e.Tombstoned(u) && !e.HasEdge(id, u) {
				if err := e.AddEdge(id, u); err != nil {
					tb.Fatal(err)
				}
				joins = append(joins, mutate.Op{Op: mutate.OpAddEdge, U: id, V: u})
			}
		}
	}
	e = e.Finish().Edit()
	for len(leaves) < g.N()/50 {
		if v := rng.IntN(g.N()); !e.Tombstoned(v) {
			if err := e.RemoveVertex(v); err != nil {
				tb.Fatal(err)
			}
			leaves = append(leaves, mutate.Op{Op: mutate.OpRemoveVertex, V: v})
		}
	}
	return [][]mutate.Op{joins, leaves}, e.Finish()
}

// BenchmarkMutateAck times POST /admin/mutate to its 200 on the ledger's
// live-churn fixture (n = 20 000 GIRG, pre-churned to a delta of 13 868) with
// the live-churn batch: one join wired to three contacts, the previous join
// leaving. single is a daemon with a mutation log; primary is replica 0 of a
// two-replica shard, which also advertises each new position and ships each
// batch to its replica — after the 200. The two must read alike: nothing
// O(n+m) is on the ack path.
func BenchmarkMutateAck(b *testing.B) {
	nw := testNetwork(b, 20000, 5)
	batches, churned := prechurnOps(b, nw.Graph)
	if fp := churned.Fingerprint(); fp != 0x2721ee10d01ce410 || churned.DeltaSize() != 13868 {
		b.Fatalf("pre-churned fixture is %016x with delta %d, the ledger pins 2721ee10d01ce410 with 13868", fp, churned.DeltaSize())
	}
	var contacts []int
	for v := 0; v < nw.Graph.N(); v++ {
		if !churned.Tombstoned(v) {
			contacts = append(contacts, v)
		}
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil)) // gap re-ships log at Info, into the result lines
	for _, mode := range []string{"single", "primary"} {
		b.Run(mode, func(b *testing.B) {
			var url, slot string
			var replicas []*replicaDaemon
			if mode == "single" {
				s := New(Config{Logger: quiet})
				log, err := mutate.Open(b.TempDir(), nw.Graph, mutate.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { log.Close() })
				if err := s.EnableMutation(log, ""); err != nil {
					b.Fatal(err)
				}
				ts := httptest.NewServer(s.Handler())
				b.Cleanup(ts.Close)
				url, slot = ts.URL, DefaultGraph
			} else {
				replicas = newReplicaSet(b, nw, 2, Config{RequestTimeout: 5 * time.Second, Logger: quiet}, nil)
				url, slot = replicas[0].ts.URL, "live"
			}
			post := func(ops []mutate.Op) {
				resp, _, bad := postMutate(b, url, MutateRequest{Graph: slot, Ops: ops})
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("mutate: status %d (%s)", resp.StatusCode, bad.Error)
				}
			}
			for _, ops := range batches {
				post(ops)
			}
			rng, next := xrand.New(1), churned.N()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops := []mutate.Op{{Op: mutate.OpAddVertex, Pos: []float64{rng.Float64(), rng.Float64()}, W: nw.Graph.WMin()}}
				for len(ops) < 4 { // three distinct contacts
					c := contacts[rng.IntN(len(contacts))]
					if (len(ops) > 1 && c == ops[1].V) || (len(ops) > 2 && c == ops[2].V) {
						continue
					}
					ops = append(ops, mutate.Op{Op: mutate.OpAddEdge, U: next, V: c})
				}
				if i > 0 {
					ops = append(ops, mutate.Op{Op: mutate.OpRemoveVertex, V: next - 1})
				}
				post(ops)
				next++
			}
			b.StopTimer()
			if replicas != nil {
				// Every acknowledged batch reaches the replica, bit for bit.
				waitPosition(b, replicas[1], replicas[0].log.Position())
			}
		})
	}
}
