package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/torus"
)

// testStream dials addr and upgrades the connection like a forwarding peer
// does, for tests that speak raw frames.
func testStream(t *testing.T, addr string) *hopStream {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	st := &hopStream{conn: conn, br: bufio.NewReader(conn)}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "POST /cluster/hop HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\nContent-Length: 0\r\n\r\n", addr, hopProto)
	hresp, err := http.ReadResponse(st.br, nil)
	if err != nil || hresp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("hop upgrade at %s: %v, %+v", addr, err, hresp)
	}
	return st
}

// frameHop is the frame front-end seen from outside: one request frame out,
// one reply frame in.
func frameHop(t *testing.T, st *hopStream, req HopRequest, budgetUs int64) (HopResponse, int, string) {
	t.Helper()
	frame := appendHopRequest(nil, req, budgetUs, "", "")
	st.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := st.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	p, err := readFrame(st.br, new([]byte), maxHopReply)
	if err != nil {
		t.Fatalf("read reply frame: %v", err)
	}
	resp, status, msg, err := decodeHopReply(p)
	if err != nil {
		t.Fatalf("decode reply frame: %v", err)
	}
	return resp, status, msg
}

// jsonHop is the JSON front-end seen from outside.
func jsonHop(t *testing.T, url string, req HopRequest) (HopResponse, int, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	hresp, err := http.Post(url+"/cluster/hop", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp HopResponse
	var er ErrorResponse
	if hresp.StatusCode == http.StatusOK {
		err = json.NewDecoder(hresp.Body).Decode(&resp)
	} else {
		err = json.NewDecoder(hresp.Body).Decode(&er)
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp, hresp.StatusCode, er.Error
}

// crossingPair finds a pair whose walk, started on d's shard, leaves it after
// at least one local move toward a vertex it does not own.
func crossingPair(t *testing.T, nw *core.Network, d *shardDaemon) (s, tt int) {
	t.Helper()
	var sc route.Scratch
	var res route.Result
	n := nw.Graph.N()
	for i := 0; i < 4*n; i++ {
		s, tt = (i*7919)%n, (i*104729+13)%n
		if s == tt || !d.node.Owned(s) || d.node.Owned(tt) {
			continue
		}
		if route.GreedyCSRPartial(nw.Graph, tt, s, d.node.OwnedMask(), route.Budget{}, &sc, &res) >= 0 {
			return s, tt
		}
	}
	t.Fatal("no pair crosses out of the shard")
	return 0, 0
}

// TestHopFrontEndsEquivalent pins the codec against its reference: for every
// outcome a hop can have, the frame front-end and the JSON front-end return
// the same HopResponse, status and message for the same HopRequest. A hop
// makes no outbound call, so the segment that ends at the next exit is the
// same with every peer down.
func TestHopFrontEndsEquivalent(t *testing.T) {
	nw := testNetwork(t, 600, 11)
	cfg := Config{
		RequestTimeout: 2 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 3},
	}
	daemons := newTestCluster(t, nw, []string{"0", "10", "11"}, cfg, cluster.Config{Seed: 1, Strikes: 1000})
	recv := daemons[0]
	recv.srv.AddNetwork("other", testNetwork(t, 64, 6))
	st := testStream(t, recv.addr)
	n := nw.Graph.N()

	local := -1 // a target on the receiver's shard
	for v := 1; v < n && local < 0; v++ {
		if recv.node.Owned(v) {
			local = v
		}
	}
	s, cross := crossingPair(t, nw, recv)
	var owned int
	for owned = 0; !recv.node.Owned(owned); owned++ {
	}

	cases := []struct {
		name string
		req  HopRequest
		want int
		prep func()
	}{
		{name: "delivered locally", req: HopRequest{S: owned, T: local}, want: 200},
		{name: "returns the unclassified segment at the next exit", req: HopRequest{S: s, T: cross, DeadlineMs: 1500}, want: 200},
		{name: "vertex out of range", req: HopRequest{S: owned, T: n}, want: 400},
		{name: "unknown graph", req: HopRequest{Graph: "nope", S: 0, T: 1}, want: 404},
		{name: "not the clustered snapshot", req: HopRequest{Graph: "other", S: 0, T: 1}, want: 409},
		{name: "the same segment with every peer down", req: HopRequest{S: s, T: cross, DeadlineMs: 1500}, want: 200,
			prep: func() { daemons[1].kill(); daemons[2].kill() }},
		{name: "draining", req: HopRequest{S: owned, T: local}, want: 503,
			prep: func() { recv.srv.Drain(context.Background()) }},
	}
	var segments []HopResponse
	for _, tc := range cases {
		if tc.prep != nil {
			tc.prep()
		}
		jr, jstatus, jmsg := jsonHop(t, recv.ts.URL, tc.req)
		fr, fstatus, fmsg := frameHop(t, st, tc.req, tc.req.DeadlineMs*1000)
		if jstatus != tc.want || fstatus != tc.want {
			t.Errorf("%s: status json %d frame %d, want %d", tc.name, jstatus, fstatus, tc.want)
		}
		if jmsg != fmsg || !reflect.DeepEqual(jr, fr) {
			t.Errorf("%s: front-ends disagree\n  json  %d %q %+v\n  frame %d %q %+v", tc.name, jstatus, jmsg, jr, fstatus, fmsg, fr)
		}
		if tc.want == 200 && len(fr.Path) == 0 {
			t.Errorf("%s: routed segment without a path", tc.name)
		}
		if tc.req.T == cross && len(fr.Path) > 0 {
			if x := fr.exit(); fr.Path[0] != s || x < 0 || recv.node.Owned(x) {
				t.Errorf("%s: got %+v, want an unclassified segment from %d to a vertex off the shard", tc.name, fr, s)
			}
			segments = append(segments, fr)
		}
	}
	if len(segments) != 2 || !reflect.DeepEqual(segments[0], segments[1]) {
		t.Errorf("segments to the next exit, peers up and down: %+v", segments)
	}
}

// TestHopCodecIdentity pins Decode∘Encode = id on both frame kinds, and the
// budget conversion of the sub-millisecond fix.
func TestHopCodecIdentity(t *testing.T) {
	reqs := []struct {
		req      HopRequest
		budgetUs int64
		rid, tp  string
	}{
		{HopRequest{S: 3, T: 99}, 300, "", ""},
		{HopRequest{Graph: "default", S: 0, T: 1 << 40, MaxScans: 1 << 20}, 1, "req-1.a_b", "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		{HopRequest{Graph: strings.Repeat("g", 255), S: -1, T: -7}, 0, strings.Repeat("r", 64), ""},
	}
	for _, c := range reqs {
		frame := appendHopRequest(nil, c.req, c.budgetUs, c.rid, c.tp)
		if len(frame) > maxHopRequest+8 {
			t.Fatalf("request frame of %d bytes exceeds the cap", len(frame))
		}
		p, err := readFrame(bytes.NewReader(frame), new([]byte), maxHopRequest)
		if err != nil {
			t.Fatal(err)
		}
		req, budgetUs, rid, tp, err := decodeHopRequest(p)
		if err != nil || req != c.req || budgetUs != c.budgetUs || rid != c.rid || tp != c.tp {
			t.Errorf("request round trip: got %+v %d %q %q (%v), want %+v", req, budgetUs, rid, tp, err, c)
		}
	}

	replies := []struct {
		status int
		resp   HopResponse
		msg    string
	}{
		{200, HopResponse{Success: true, Stuck: 0, Path: []int{5, 17, 1999}, Moves: 2}, ""},
		{200, HopResponse{Failure: string(route.FailDeadEnd), Stuck: 5, Path: []int{5}}, ""},
		{200, HopResponse{Stuck: -1, Path: []int{5, 17}, Moves: 1}, ""},
		{409, HopResponse{}, `graph "other" is not the clustered snapshot`},
		{503, HopResponse{}, ""},
	}
	for _, c := range replies {
		p, err := readFrame(bytes.NewReader(appendHopReply(nil, c.status, &c.resp, c.msg)), new([]byte), maxHopReply)
		if err != nil {
			t.Fatal(err)
		}
		resp, status, msg, err := decodeHopReply(p)
		if err != nil || status != c.status || msg != c.msg || !reflect.DeepEqual(resp, c.resp) {
			t.Errorf("reply round trip: got %d %q %+v (%v), want %+v", status, msg, resp, err, c)
		}
	}

	for d, want := range map[time.Duration]int64{
		time.Nanosecond: 1, 300 * time.Microsecond: 300, 1500 * time.Nanosecond: 2,
		time.Millisecond: 1000, 999999 * time.Nanosecond: 1000,
	} {
		if got := budgetMicros(d); got != want {
			t.Errorf("budgetMicros(%v) = %d, want %d", d, got, want)
		}
	}
}

// TestHopFrameBounds pins the framing guards: a claimed length is never
// allocated before its bytes arrive, an oversize or corrupt frame ends the
// stream, a well-framed payload that does not decode is answered 400 and the
// stream stays usable, and the JSON front-end refuses an oversize body.
func TestHopFrameBounds(t *testing.T) {
	var before, after runtime.MemStats
	hdr := binary.LittleEndian.AppendUint32(nil, maxHopReply)
	runtime.ReadMemStats(&before)
	if _, err := readFrame(bytes.NewReader(append(hdr, 1, 2, 3)), new([]byte), maxHopReply); err == nil {
		t.Fatal("a torn 8 MiB frame was accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a torn frame claiming 8 MiB allocated %d bytes", grew)
	}
	if _, err := readFrame(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, maxHopRequest+1)), new([]byte), maxHopRequest); err == nil {
		t.Fatal("a length over the cap was accepted")
	}

	nw := testNetwork(t, 64, 5)
	d := newTestCluster(t, nw, []string{"0", "1"}, Config{}, cluster.Config{Seed: 4})[0]
	var owned int
	for owned = 0; !d.node.Owned(owned); owned++ {
	}

	st := testStream(t, d.addr)
	st.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := st.conn.Write(appendFrame(nil, []int64{1}, nil, nil)); err != nil {
		t.Fatal(err)
	}
	p, err := readFrame(st.br, new([]byte), maxHopReply)
	if err != nil {
		t.Fatalf("undecodable payload: stream lost (%v), want a 400 frame", err)
	}
	if _, status, _, _ := decodeHopReply(p); status != http.StatusBadRequest {
		t.Fatalf("undecodable payload: status %d, want 400", status)
	}
	if _, status, _ := frameHop(t, st, HopRequest{S: owned, T: owned}, 0); status != http.StatusOK {
		t.Fatalf("stream unusable after a 400 frame: status %d", status)
	}

	good := appendHopRequest(nil, HopRequest{S: owned, T: owned}, 0, "", "")
	good[len(good)-1] ^= 0x40
	for name, frame := range map[string][]byte{
		"checksum mismatch": good,
		"oversize length":   binary.LittleEndian.AppendUint32(nil, maxHopRequest+1),
	} {
		st := testStream(t, d.addr)
		st.conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := st.conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := st.br.ReadByte(); err != io.EOF {
			t.Errorf("%s: read %v, want the stream closed", name, err)
		}
	}

	big := `{"graph":"` + strings.Repeat("g", 64<<10) + `"}`
	hresp, err := http.Post(d.ts.URL+"/cluster/hop", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize JSON body: status %d, want 413", hresp.StatusCode)
	}
}

// FuzzHopFrame feeds arbitrary bytes to the frame reader and both payload
// decoders: they never panic, never hold more than the bytes that arrived
// (plus one growth step), and whatever they accept re-encodes to the very
// bytes that were read.
func FuzzHopFrame(f *testing.F) {
	f.Add(appendHopRequest(nil, HopRequest{Graph: "default", S: 3, T: 99, MaxScans: 12}, 300, "rid-1", "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"))
	f.Add(appendHopReply(nil, 200, &HopResponse{Success: true, Path: []int{3, 17, 99}, Moves: 2}, ""))
	f.Add(appendHopReply(nil, 200, &HopResponse{Path: []int{3, 17}, Moves: 1}, ""))
	f.Add(appendHopReply(nil, 404, nil, `unknown graph "nope"`))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxHopReply))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int{maxHopRequest, maxHopReply} {
			p, err := readFrame(bytes.NewReader(data), new([]byte), limit)
			if err != nil {
				continue
			}
			if len(p) > limit || cap(p) > len(data)+64<<10 {
				t.Fatalf("frame of %d bytes (cap %d) from %d input bytes, limit %d", len(p), cap(p), len(data), limit)
			}
			frame := data[:len(p)+8]
			if req, budgetUs, rid, tp, err := decodeHopRequest(p); err == nil && limit == maxHopRequest {
				if again := appendHopRequest(nil, req, budgetUs, rid, tp); !bytes.Equal(again, frame) {
					t.Fatalf("request re-encodes to %x, read %x", again, frame)
				}
			}
			if resp, status, msg, err := decodeHopReply(p); err == nil {
				if again := appendHopReply(nil, status, &resp, msg); !bytes.Equal(again, frame) {
					t.Fatalf("reply re-encodes to %x, read %x", again, frame)
				}
			}
		}
	})
}

// TestHopSubMillisecondBudget pins the receiver half of the budget fix: a hop
// routes under the budget its frame carries in µs, not under the receiver's
// own RequestTimeout. A walk from the hub whose first scan alone outlasts a
// 1 µs budget comes back cut as deadline at its source; the same hop with a
// budget of 0, which reads "none", walks its whole segment.
func TestHopSubMillisecondBudget(t *testing.T) {
	nw := testNetwork(t, 2000, 11)
	g := nw.Graph
	recv := newReplicatedCluster(t, nw, []replicaSpec{{"0", 0}}, Config{RequestTimeout: 4 * time.Second},
		cluster.Config{Seed: 3})[0]
	mask := recv.node.OwnedMask()
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	if g.Degree(hub) < 500 {
		t.Fatalf("the hub has degree %d: its scan may not outlast 1 µs", g.Degree(hub))
	}
	// A target whose walk from the hub takes a second scan on this shard:
	// the first step lands on an owned vertex that is not the target.
	var ref route.Result
	tt := -1
	for v := 0; v < g.N() && tt < 0; v++ {
		route.GreedyCSRPartial(g, v, hub, mask, route.Budget{}, nil, &ref)
		if v != hub && len(ref.Path) > 1 && ref.Path[1] != v && mask[ref.Path[1]] {
			tt = v
		}
	}
	if tt < 0 {
		t.Fatal("no walk from the hub takes a second local scan")
	}

	st := testStream(t, recv.addr)
	cut, status, msg := frameHop(t, st, HopRequest{S: hub, T: tt}, 1)
	if status != http.StatusOK || cut.Failure != string(route.FailDeadline) || !reflect.DeepEqual(cut.Path, []int{hub}) {
		t.Fatalf("1 µs budget: status %d %q, got %+v, want a deadline cut at [%d]", status, msg, cut, hub)
	}
	full, status, msg := frameHop(t, st, HopRequest{S: hub, T: tt}, 0)
	if status != http.StatusOK || full.Failure != string(ref.Failure) || !reflect.DeepEqual(full.Path, ref.Path) {
		t.Fatalf("no budget: status %d %q, got %+v, want the walk %v", status, msg, full, ref.Path)
	}
}

// TestHopHangUpCancels pins cancellation across a forward: a client that
// hangs up on the entry daemon while its walk is forwarded — here to a peer
// that never answers — releases the forward at once, not when the budget runs
// out; and a receiver drops the stream of a sender that hung up.
func TestHopHangUpCancels(t *testing.T) {
	nw := testNetwork(t, 600, 11)
	const reqTimeout = 4 * time.Second
	entry := newReplicatedCluster(t, nw, []replicaSpec{{"0", 0}}, Config{RequestTimeout: reqTimeout},
		cluster.Config{Seed: 3, Strikes: 1000})[0]
	entered, released := make(chan struct{}, 1), make(chan struct{}, 1)
	tarpit := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-r.Context().Done()
		released <- struct{}{}
	}))
	defer tarpit.Close()
	entry.node.Members().Add(cluster.Peer{
		ID: strings.TrimPrefix(tarpit.URL, "http://"), Shard: "1",
		Fingerprint: entry.node.Self().Fingerprint,
	})
	s, tt := crossingPair(t, nw, entry)

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	body, _ := json.Marshal(RouteRequest{S: s, T: tt})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, entry.ts.URL+"/route", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(reqTimeout / 2):
		t.Fatal("the walk was never forwarded to the peer")
	}
	start := time.Now()
	hangUp()
	select {
	case <-released:
	case <-time.After(reqTimeout / 4):
		t.Fatalf("the forward still ran %v after its client hung up", time.Since(start))
	}
	<-done

	st := testStream(t, entry.addr)
	if _, status, msg := frameHop(t, st, HopRequest{S: s, T: tt}, 0); status != http.StatusOK {
		t.Fatalf("hop: status %d %q", status, msg)
	}
	st.conn.Close()
	deadline := time.Now().Add(reqTimeout / 4)
	for open := 1; open != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the receiver kept the stream of a sender that hung up")
		}
		entry.srv.hopMu.Lock()
		open = len(entry.srv.hopIn)
		entry.srv.hopMu.Unlock()
	}
}

// TestHopBadSegmentFailsForward pins the entry daemon's check on a peer's
// answer: a well-framed segment that does not start at the vertex forwarded,
// makes no move, or ends off the graph is never stitched or forwarded on. It
// is the peer's failure, and the episode is classified shard-unreachable.
func TestHopBadSegmentFailsForward(t *testing.T) {
	nw := testNetwork(t, 600, 11)
	n := nw.Graph.N()
	for _, bad := range []struct {
		name string
		path func(from int) []int
	}{
		{"starts elsewhere", func(from int) []int { return []int{(from + 1) % n, from} }},
		{"makes no move", func(from int) []int { return []int{from} }},
		{"ends off the graph", func(from int) []int { return []int{from, n + 5} }},
	} {
		entry := newReplicatedCluster(t, nw, []replicaSpec{{"0", 0}},
			Config{RequestTimeout: 2 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}},
			cluster.Config{Seed: 3, Strikes: 1000})[0]
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, brw, err := http.NewResponseController(w).Hijack()
			if err != nil {
				return
			}
			defer conn.Close()
			io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+hopProto+"\r\n\r\n")
			var buf []byte
			for {
				p, err := readFrame(brw.Reader, &buf, maxHopRequest)
				if err != nil {
					return
				}
				req, _, _, _, _ := decodeHopRequest(p)
				path := bad.path(req.S)
				seg := HopResponse{Stuck: -1, Path: path, Moves: len(path) - 1}
				if _, err := conn.Write(appendHopReply(nil, http.StatusOK, &seg, "")); err != nil {
					return
				}
			}
		}))
		t.Cleanup(peer.Close)
		entry.node.Members().Add(cluster.Peer{
			ID: strings.TrimPrefix(peer.URL, "http://"), Shard: "1",
			Fingerprint: entry.node.Self().Fingerprint,
		})
		s, tt := crossingPair(t, nw, entry)
		status, rr, er := clusterPost(t, entry.ts.URL, RouteRequest{S: s, T: tt, IncludePath: true})
		if status != http.StatusBadGateway || rr.Failure != string(route.FailShardUnreachable) {
			t.Errorf("%s: status %d (%s) failure %q path %v, want 502 shard-unreachable", bad.name, status, er.Error, rr.Failure, rr.Path)
		}
		if st := entry.srv.Stats().Cluster; st.Forwards != 1 || st.ForwardFails != 1 {
			t.Errorf("%s: %d forwards, %d failed, want 1 and 1", bad.name, st.Forwards, st.ForwardFails)
		}
	}
}

// startShard is one cluster member on a listener of the test's choosing, so
// that a killed daemon's address can be bound again.
func startShard(t *testing.T, nw *core.Network, shard, addr string, cfg Config, mcfg cluster.Config) *shardDaemon {
	t.Helper()
	p, err := torus.ParsePrefix(shard)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	srv.AddNetwork(DefaultGraph, nw)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	d := &shardDaemon{srv: srv, ts: ts, addr: ln.Addr().String()}
	t.Cleanup(d.kill)
	if d.node, err = cluster.NewNode(nw.Graph, p, d.addr, mcfg); err != nil {
		t.Fatal(err)
	}
	srv.EnableCluster(d.node, nil)
	return d
}

// TestHopStaleStreamRedials pins the restart rule: a peer that restarts
// between two forwards costs the sender one redial and nothing else — no
// forward failure, no breaker strike — and the stream gauges follow.
func TestHopStaleStreamRedials(t *testing.T) {
	nw := testNetwork(t, 600, 7)
	cfg := Config{RequestTimeout: 3 * time.Second}
	mcfg := cluster.Config{Seed: 2}
	a := startShard(t, nw, "0", "127.0.0.1:0", cfg, mcfg)
	b := startShard(t, nw, "1", "127.0.0.1:0", cfg, mcfg)
	a.node.Members().Add(b.node.Self())
	b.node.Members().Add(a.node.Self())
	s, tt := crossingPair(t, nw, a)

	forward := func(when string) {
		t.Helper()
		status, rr, er := clusterPost(t, a.ts.URL, RouteRequest{S: s, T: tt})
		if status != http.StatusOK || rr.Forwards == 0 {
			t.Fatalf("%s: status %d (%s), forwards %d", when, status, er.Error, rr.Forwards)
		}
	}
	forward("first forward")
	if in, out := len(b.srv.hopIn), a.srv.hopStreamsOut.Load(); in != 1 || out != 1 {
		t.Fatalf("after one forward: %d streams in at the peer, %d out at the sender, want 1 and 1", in, out)
	}

	b.kill()
	b2 := startShard(t, nw, "1", b.addr, cfg, mcfg)
	b2.node.Members().Add(a.node.Self())
	forward("forward after the peer restarted")

	st := a.srv.Stats().Cluster
	if st.ForwardFails != 0 || a.srv.hopRedials.Load() != 1 {
		t.Fatalf("restart cost %d forward failures and %d redials, want 0 and 1", st.ForwardFails, a.srv.hopRedials.Load())
	}
	pb := a.srv.peerBreakers.get(b.addr, DefaultGraph)
	pb.mu.Lock()
	fails := pb.fails
	pb.mu.Unlock()
	if fails != 0 || pb.State() != BreakerClosed {
		t.Fatalf("peer breaker took %d strikes (state %v) across a restart", fails, pb.State())
	}

	mresp, err := http.Get(a.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"# TYPE smallworld_cluster_hop_streams gauge\n",
		"smallworld_cluster_hop_streams{dir=\"in\"} 0\n",
		"smallworld_cluster_hop_streams{dir=\"out\"} 1\n",
		"# TYPE smallworld_cluster_hop_redials_total counter\n",
		"smallworld_cluster_hop_redials_total 1\n",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
}

// TestHopCrossingForwards pins the deadlock argument: two entry daemons
// forwarding into each other's shards at once, on walks A→B→A and B→A→B, all
// finish inside the deadline — every in-flight forward owns its stream, the
// peer answers it on that stream's own goroutine, and a receiver never
// forwards — and the walk back into the entry's shard, which continues there
// without an RPC, stitches to the single-node path.
func TestHopCrossingForwards(t *testing.T) {
	nw := testNetwork(t, 600, 1) // a graph with walks that re-enter their entry shard, both ways
	const reqTimeout = 5 * time.Second
	daemons := newTestCluster(t, nw, []string{"0", "1"},
		Config{Workers: 8, QueueDepth: 64, RequestTimeout: reqTimeout}, cluster.Config{Seed: 1})

	// Pairs whose walk leaves the entry shard and comes back: two forwards.
	// Every shard routes the core, so the climb into the hubs never crosses
	// and such walks are rare: one ordered pair in 7 000 to 9 000 per
	// direction. The scan runs the pair sequence past its first period —
	// each period shifts t by one, so n periods cover every ordered pair —
	// and asks in /route/batch requests of 256 items per entry shard.
	n := nw.Graph.N()
	var pairs [2][][2]int
	var pending [2][]BatchItem
	scan := func(e int) {
		resp, br, er := postBatch(t, daemons[e].ts.URL, BatchRouteRequest{Items: pending[e]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan batch via shard %d: status %d (%s)", e, resp.StatusCode, er.Error)
		}
		for _, it := range br.Items {
			if it.Forwards >= 2 && len(pairs[e]) < 4 {
				pairs[e] = append(pairs[e], [2]int{it.S, it.T})
			}
		}
		pending[e] = pending[e][:0]
	}
	for i := 0; i < n*n && (len(pairs[0]) < 4 || len(pairs[1]) < 4); i++ {
		s, tt := (i*7919)%n, (i*104729+13+i/n)%n
		e := 0
		if daemons[1].node.Owned(s) {
			e = 1
		}
		if s == tt || len(pairs[e]) >= 4 {
			continue
		}
		if pending[e] = append(pending[e], BatchItem{S: s, T: tt}); len(pending[e]) == 256 {
			scan(e)
		}
	}
	if len(pairs[0]) == 0 || len(pairs[1]) == 0 {
		t.Fatalf("no walk re-enters its entry shard in both directions (%d, %d)", len(pairs[0]), len(pairs[1]))
	}
	want := map[[2]int][]int{}
	var ref route.Result
	for _, ps := range pairs {
		for _, p := range ps {
			route.GreedyCSR(nw.Graph, p[1], p[0], route.Budget{}, nil, &ref)
			want[p] = append([]int(nil), ref.Path...)
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := w % 2
			for i := 0; i < 25; i++ {
				p := pairs[e][i%len(pairs[e])]
				status, rr, er := clusterPost(t, daemons[e].ts.URL, RouteRequest{S: p[0], T: p[1], IncludePath: true})
				if status != http.StatusOK || !rr.Success || rr.Forwards < 2 || !reflect.DeepEqual(rr.Path, want[p]) {
					t.Errorf("walk (%d,%d) via shard %d: status %d (%s) success %v forwards %d path %v, want %v",
						p[0], p[1], e, status, er.Error, rr.Success, rr.Forwards, rr.Path, want[p])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > reqTimeout {
		t.Fatalf("crossing walks took %v, past the %v deadline", elapsed, reqTimeout)
	}
}

// TestHopStreamsReleased is the lifecycle check: three shards behind plain
// http.Servers forward into each other, shut down with nothing but
// http.Server.Shutdown — what smallworldd and the benchmark call — and leave
// no stream open and no goroutine behind.
func TestHopStreamsReleased(t *testing.T) {
	nw := testNetwork(t, 600, 11)
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	// Settle what earlier tests left winding down before counting.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	base := runtime.NumGoroutine()

	type member struct {
		srv  *Server
		hs   *http.Server
		node *cluster.Node
		done chan error
	}
	var fleet []*member
	for _, spec := range []string{"0", "10", "11"} {
		p, err := torus.ParsePrefix(spec)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := &member{srv: New(Config{RequestTimeout: 3 * time.Second}), done: make(chan error, 1)}
		m.srv.AddNetwork(DefaultGraph, nw)
		if m.node, err = cluster.NewNode(nw.Graph, p, ln.Addr().String(), cluster.Config{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		m.srv.EnableCluster(m.node, nil)
		m.hs = &http.Server{Handler: m.srv.Handler()}
		go func() { m.done <- m.hs.Serve(ln) }()
		fleet = append(fleet, m)
	}
	for _, m := range fleet {
		for _, p := range fleet {
			if p != m {
				m.node.Members().Add(p.node.Self())
			}
		}
	}

	n := nw.Graph.N()
	forwards := 0
	for i := 0; i < 60; i++ {
		s, tt := (i*7919)%n, (i*104729+13)%n
		if s == tt {
			continue
		}
		body, _ := json.Marshal(RouteRequest{S: s, T: tt})
		hresp, err := client.Post("http://"+fleet[i%3].node.Self().ID+"/route", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr RouteResponse
		err = json.NewDecoder(hresp.Body).Decode(&rr)
		hresp.Body.Close()
		if err != nil || hresp.StatusCode != http.StatusOK {
			t.Fatalf("pair (%d,%d): status %d, %v", s, tt, hresp.StatusCode, err)
		}
		forwards += rr.Forwards
	}
	in, out := 0, int64(0)
	for _, m := range fleet {
		m.srv.hopMu.Lock()
		accepted := len(m.srv.hopIn)
		m.srv.hopMu.Unlock()
		if accepted == 0 {
			t.Fatalf("%s accepted no hop stream: the test exercised nothing there", m.node.Self().ID)
		}
		in += accepted
		out += m.srv.hopStreamsOut.Load()
	}
	if forwards == 0 || int64(in) != out {
		t.Fatalf("%d forwards over %d accepted and %d dialled streams", forwards, in, out)
	}

	tr.CloseIdleConnections()
	for _, m := range fleet {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := m.hs.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
		<-m.done
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		open := int64(0)
		for _, m := range fleet {
			m.srv.hopMu.Lock()
			open += int64(len(m.srv.hopIn))
			m.srv.hopMu.Unlock()
			open += m.srv.hopStreamsOut.Load()
		}
		now := runtime.NumGoroutine()
		if open == 0 && now <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after shutdown: %d streams open, %d goroutines (started with %d)\n%s",
				open, now, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHopFrameGoldenBytes pins one request frame and one reply frame byte for
// byte (`u32 payload length | payload | u32 CRC-32`, payloads as the hop
// wire's header comment lays them out). The codec tests above are round
// trips and cannot see a format change; this can. It must pass unedited
// across refactors.
func TestHopFrameGoldenBytes(t *testing.T) {
	for name, c := range map[string]struct {
		frame  []byte
		golden string
	}{
		"request": {
			appendHopRequest(nil, HopRequest{Graph: "default", S: 3, T: 99, MaxScans: 7}, 300, "rid-1", ""),
			"32000000" + // payload length
				"0300000000000000" + "6300000000000000" + "2c01000000000000" + "0700000000000000" + // s, t, budget µs, scans left
				"0700" + "64656661756c74" + "0500" + "7269642d31" + "0000" + // graph, request id, traceparent
				"69835c13", // CRC-32
		},
		"reply": {
			appendHopReply(nil, 200, &HopResponse{Success: true, Path: []int{3, 17, 99}, Moves: 2}, ""),
			"2e000000" + // payload length
				"c800000000000000" + "0100000000000000" + "0000000000000000" + "0200000000000000" + // status, success, stuck, moves
				"0000" + // failure
				"03000000" + "11000000" + "63000000" + // path
				"eb5b706b", // CRC-32
		},
	} {
		if got := hex.EncodeToString(c.frame); got != c.golden {
			t.Errorf("%s frame bytes changed:\n got %s\nwant %s", name, got, c.golden)
		}
	}
}
