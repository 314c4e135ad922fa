package mutate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/serve"
	"repro/internal/torus"
)

// digestReplica is one member of a two-replica shard whose log counts the
// live-fingerprint digests it runs.
type digestReplica struct {
	srv     *serve.Server
	ts      *httptest.Server
	node    *cluster.Node
	log     *mutate.Log
	digests atomic.Int64
}

// TestDigestOnlyWhenGossipAsks pins where a replicated log's live
// fingerprint is digested: never on the apply, import, ship or HTTP-ack
// path, and once on each side of one gossip exchange — the sender before its
// request goes out, the answerer before it answers.
func TestDigestOnlyWhenGossipAsks(t *testing.T) {
	p := girg.DefaultParams(200)
	p.FixedN = true
	g, err := girg.Generate(p, 4, girg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := torus.ParsePrefix("0")
	if err != nil {
		t.Fatal(err)
	}
	nw := &core.Network{Graph: g}
	reps := make([]*digestReplica, 2)
	for i := range reps {
		r := &digestReplica{srv: serve.New(serve.Config{RequestTimeout: 5 * time.Second, RequestIDSalt: uint64(i + 1)})}
		r.srv.AddNetwork(serve.DefaultGraph, nw)
		r.ts = httptest.NewServer(r.srv.Handler())
		t.Cleanup(r.ts.Close)
		t.Cleanup(r.srv.Close)
		if r.node, err = cluster.NewNode(g, prefix, strings.TrimPrefix(r.ts.URL, "http://"), cluster.Config{Seed: 1, Replica: i}); err != nil {
			t.Fatal(err)
		}
		r.srv.EnableCluster(r.node, nil)
		if r.log, err = mutate.Open(t.TempDir(), g, mutate.Config{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.log.Close() })
		if err := r.srv.EnableMutation(r.log, "live"); err != nil {
			t.Fatal(err)
		}
		mutate.SetDigest(r.log, func(ov *graph.Overlay) uint64 {
			r.digests.Add(1)
			return ov.Fingerprint()
		})
		reps[i] = r
	}
	primary, replica := reps[0], reps[1]
	primary.node.Members().Add(replica.node.Self())
	replica.node.Members().Add(primary.node.Self())
	join := func(id int) []mutate.Op {
		return []mutate.Op{
			{Op: mutate.OpAddVertex, Pos: []float64{0.25, 0.75}, W: 2 * g.WMin()},
			{Op: mutate.OpAddEdge, U: id, V: 0},
		}
	}
	counts := func() (int64, int64) { return primary.digests.Load(), replica.digests.Load() }

	// Apply and Import.
	if _, err := primary.log.Apply(join(g.N())); err != nil {
		t.Fatal(err)
	}
	pos := primary.log.Head()
	seg, err := primary.log.Export(pos.BaseFP, pos.Generation, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.log.Import(seg); err != nil {
		t.Fatal(err)
	}
	if p, r := counts(); p != 0 || r != 0 {
		t.Fatalf("Apply and Import digested %d and %d times, want 0", p, r)
	}

	// An HTTP ack and the ship to the replica it starts.
	body, _ := json.Marshal(serve.MutateRequest{Graph: "live", Ops: join(g.N() + 1)})
	resp, err := http.Post(primary.ts.URL+"/admin/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for replica.log.Head().Seq != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ship never landed: replica at %+v", replica.log.Head())
		}
		time.Sleep(time.Millisecond)
	}
	if p, r := counts(); p != 0 || r != 0 {
		t.Fatalf("an ack and its ship digested %d and %d times, want 0", p, r)
	}

	// One gossip exchange, primary to replica.
	gr, err := primary.srv.Exchange(context.Background(), replica.node.Self(),
		cluster.GossipRequest{From: primary.node.Self(), View: primary.node.Members().View()})
	if err != nil {
		t.Fatal(err)
	}
	if p, r := counts(); p != 1 || r != 1 {
		t.Fatalf("one exchange digested %d times at the sender and %d at the answerer, want 1 and 1", p, r)
	}
	if want := primary.log.Position(); gr.Self.Epoch != want.Epoch || gr.Self.LiveFP != want.LiveFP {
		t.Fatalf("answer advertises (epoch %d, fp %s), want the converged (%d, %s)",
			gr.Self.Epoch, gr.Self.LiveFP, want.Epoch, want.LiveFP)
	}
}
