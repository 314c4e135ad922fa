package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
)

// replayPost posts body to url+path under the request id and returns the
// answer's status and its body decoded, with the wall times (elapsed_ms and
// timings) removed at every depth: what is left is a function of the
// snapshot, the body, the request id and the retry seed. It may run on a
// client goroutine of its own, so it reports a failed exchange with Errorf
// and returns a nil body.
func replayPost(t *testing.T, url, path, id string, body any) (int, any) {
	t.Helper()
	b, _ := json.Marshal(body)
	req, _ := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(b))
	req.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("%s: %v", path, err)
		return 0, nil
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != id {
		t.Errorf("%s answered under request id %q, want %q", path, got, id)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Errorf("%s: status %d: %v", path, resp.StatusCode, err)
		return 0, nil
	}
	return resp.StatusCode, dropWallTimes(v)
}

// dropWallTimes deletes the elapsed_ms and timings fields of a decoded body
// at every depth, and returns it.
func dropWallTimes(v any) any {
	switch v := v.(type) {
	case map[string]any:
		delete(v, "elapsed_ms")
		delete(v, "timings")
		for _, x := range v {
			dropWallTimes(x)
		}
	case []any:
		for _, x := range v {
			dropWallTimes(x)
		}
	}
	return v
}

// batchItems returns the items of a decoded /route/batch body (nil for any
// other body).
func batchItems(v any) []any {
	env, _ := v.(map[string]any)
	items, _ := env["items"].([]any)
	return items
}

// canon is a decoded answer's bytes for comparison (map keys sorted).
func canon(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestRequestReplay pins the request id as a request's only identity: every
// draw a request makes — its default fault seeds, retry jitter and hedge
// delays — is keyed by its X-Request-ID, so a body posted again under the
// same id gets the same answer, wall times aside, from any daemon serving
// the same snapshot under the same retry seed. Each row runs at GOMAXPROCS 1
// and 8, and the models row posts from as many clients at once:
//
//   - models: every registered fault model at rate 0.5, over POST /route and
//     a two-item POST /route/batch, each replayed on a second daemon; a
//     /route answer equals the same query as the only item of a batch, and
//     under another id the edge-drop draws differ on most pairs;
//   - batch: under one id, 100 identical edge-drop items are independent
//     draws (keyed by their index), yet the batch replays item by item;
//   - fleet: a 3×2 fleet with HedgeAfter set replays its answers over
//     crossing pairs, and each crossing's hedge delay replays with the id and
//     differs under another id.
func TestRequestReplay(t *testing.T) {
	nw := testNetwork(t, 2000, 11)
	cfg := Config{
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		Workers:        8,
		QueueDepth:     64,
		RequestTimeout: 20 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond, MaxDelay: 100 * time.Microsecond, Seed: 5},
	}
	daemon := func(salt uint64) string {
		c := cfg
		c.RequestIDSalt = salt
		srv := New(c)
		srv.AddNetwork(DefaultGraph, nw)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	first, second := daemon(1), daemon(2)
	const pairs = 100

	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			// each runs f(0..n-1) on procs concurrent clients.
			each := func(n int, f func(i int)) {
				var wg sync.WaitGroup
				for w := 0; w < procs; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := w; i < n; i += procs {
							f(i)
						}
					}()
				}
				wg.Wait()
			}

			t.Run("models", func(t *testing.T) {
				for _, model := range faults.Registered() {
					fs := []faults.Spec{{Model: model, Rate: 0.5}}
					var mu sync.Mutex
					redrawn := 0
					each(pairs, func(i int) {
						s, tt := i, 1000+i
						id := fmt.Sprintf("replay-%s-%d", model, i)
						q := RouteRequest{S: s, T: tt, Faults: fs, IncludePath: true}
						batch := BatchRouteRequest{Items: []BatchItem{
							{S: s, T: tt, Faults: fs, IncludePath: true},
							{S: tt, T: s, Faults: fs, IncludePath: true},
						}}
						status, route := replayPost(t, first, "/route", id, q)
						if st, again := replayPost(t, second, "/route", id, q); st != status || canon(again) != canon(route) {
							t.Errorf("%s pair %d: /route replayed as %d %s, first %d %s", model, i, st, canon(again), status, canon(route))
						}
						_, items := replayPost(t, first, "/route/batch", id, batch)
						if _, again := replayPost(t, second, "/route/batch", id, batch); canon(again) != canon(items) {
							t.Errorf("%s pair %d: batch replayed as %s, first %s", model, i, canon(again), canon(items))
						}
						// POST /route is item 0 of a batch of one.
						_, one := replayPost(t, second, "/route/batch", id, BatchRouteRequest{Items: batch.Items[:1]})
						var item map[string]any
						if items := batchItems(one); len(items) == 1 {
							item, _ = items[0].(map[string]any)
						}
						if item["status"] != json.Number(fmt.Sprint(status)) {
							t.Errorf("%s pair %d: one-item batch answered %s, /route status %d", model, i, canon(one), status)
							return
						}
						delete(item, "status")
						item["graph"] = DefaultGraph
						if !reflect.DeepEqual(item, route) {
							t.Errorf("%s pair %d: one-item batch answered %s, /route %s", model, i, canon(item), canon(route))
						}
						if model == "edge-drop" {
							if _, other := replayPost(t, first, "/route", id+"-other", q); canon(other) != canon(route) {
								mu.Lock()
								redrawn++
								mu.Unlock()
							}
						}
					})
					if model == "edge-drop" && redrawn < pairs/2 {
						t.Errorf("edge-drop: only %d of %d pairs answered differently under another id", redrawn, pairs)
					}
				}
			})

			t.Run("batch", func(t *testing.T) {
				items := make([]BatchItem, 100)
				for i := range items {
					items[i] = BatchItem{S: 7, T: 1007, Faults: []faults.Spec{{Model: "edge-drop", Rate: 0.5}}, IncludePath: true}
				}
				body := BatchRouteRequest{Items: items}
				_, got := replayPost(t, first, "/route/batch", "replay-batch", body)
				_, again := replayPost(t, second, "/route/batch", "replay-batch", body)
				gotItems, againItems := batchItems(got), batchItems(again)
				if len(gotItems) != len(items) || len(againItems) != len(items) {
					t.Fatalf("batch of %d answered %d items, then %d", len(items), len(gotItems), len(againItems))
				}
				answers := map[string]bool{}
				for i := range gotItems {
					a := canon(gotItems[i])
					answers[a] = true
					if b := canon(againItems[i]); a != b {
						t.Errorf("item %d replayed as %s, first %s", i, b, a)
					}
				}
				if len(answers) < 2 {
					t.Errorf("100 identical edge-drop items all answered %v: items are not independent draws", answers)
				}
			})

			t.Run("fleet", func(t *testing.T) {
				c := cfg
				c.HedgeAfter = time.Minute
				daemons := newReplicatedCluster(t, nw, []replicaSpec{
					{"0", 0}, {"0", 1}, {"10", 0}, {"10", 1}, {"11", 0}, {"11", 1},
				}, c, cluster.Config{Seed: 4})
				// Every hedge timer records the delay it is asked for and
				// never fires, so the answers stay deterministic and each
				// request's hedge draws are observed. The fleet serves one
				// request at a time: the delays recorded during a request
				// are its own.
				var mu sync.Mutex
				var delays []time.Duration
				for _, d := range daemons {
					d.srv.hedgeTimer = func(d time.Duration) (<-chan time.Time, func()) {
						mu.Lock()
						delays = append(delays, d)
						mu.Unlock()
						return nil, func() {}
					}
				}
				answer := func(d *shardDaemon, id string, q RouteRequest) (string, []time.Duration) {
					mu.Lock()
					delays = nil
					mu.Unlock()
					status, body := replayPost(t, d.ts.URL, "/route", id, q)
					mu.Lock()
					defer mu.Unlock()
					return fmt.Sprint(status, " ", canon(body)), delays
				}
				n := nw.Graph.N()
				crossed, redrawn := 0, 0
				// Most walks stay on the entry's shard, which holds a copy
				// of the core; the loop runs until 20 pairs have crossed.
				for i := 0; crossed < 20 && i < 4*pairs; i++ {
					q := RouteRequest{S: (i * 7919) % n, T: (i*104729 + 13) % n, IncludePath: true}
					id := fmt.Sprintf("replay-fleet-%d", i)
					// The replay enters at the other replica of the same
					// shard: the same walk, crossing the same boundaries.
					entry, replica := daemons[i%len(daemons)], daemons[i%len(daemons)^1]
					got, hedges := answer(entry, id, q)
					again, hedgesAgain := answer(replica, id, q)
					if again != got || !reflect.DeepEqual(hedgesAgain, hedges) {
						t.Errorf("pair %d: replay answered %s with hedge delays %v, first %s with %v", i, again, hedgesAgain, got, hedges)
					}
					if len(hedges) == 0 {
						continue
					}
					crossed++
					other, hedgesOther := answer(entry, id+"-other", q)
					if other != got {
						t.Errorf("pair %d: a fault-free answer moved with the request id: %s, first %s", i, other, got)
					}
					if !reflect.DeepEqual(hedgesOther, hedges) {
						redrawn++
					}
				}
				if crossed < 20 || redrawn < crossed/2 {
					t.Errorf("%d pairs crossed a shard boundary, %d of them drew other hedge delays under another id", crossed, redrawn)
				}
			})
		})
	}
}
