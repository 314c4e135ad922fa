package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/torus"
)

// The stack under test runs in this process: daemons are serve.Server values
// behind real net/http servers on loopback listeners, so a request crosses
// the same code a smallworldd process runs, and one getrusage covers the
// generator and every daemon. The program's own settings stay at their
// defaults (Workers, queue, timeouts, retry, GOMAXPROCS, GOGC): the
// benchmark measures the program as shipped and must not tune it. Only the
// log destination (discarded, still formatted) and the request-id salt
// (pinned, so retry jitter is a function of the run) are set.

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// daemon is one in-process smallworldd: a serve.Server on a loopback port.
type daemon struct {
	srv  *serve.Server
	node *cluster.Node
	hs   *http.Server
	addr string
	url  string
	done chan error
}

// startDaemon listens on a fresh loopback port, lets wire finish the server
// (cluster mode needs the bound address before the first request), and
// serves.
func startDaemon(cfg serve.Config, wire func(d *daemon) error) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.Logger = discardLogger()
	d := &daemon{srv: serve.New(cfg), addr: ln.Addr().String(), done: make(chan error, 1)}
	d.url = "http://" + d.addr
	if err := wire(d); err != nil {
		ln.Close()
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the listener and every connection down and waits for the
// serve loop to end.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
}

// startSingle serves nw alone under the default graph name.
func startSingle(cfg serve.Config, nw *core.Network) (*daemon, error) {
	return startDaemon(cfg, func(d *daemon) error {
		d.srv.AddNetwork(serve.DefaultGraph, nw)
		return nil
	})
}

// shardSpecs is the Morton partition of the cluster workloads.
var shardSpecs = []string{"0", "10", "11"}

// startCluster serves nw behind one daemon per (shard, replica) with static
// full membership and no gossip loop: liveness is driven by forward
// successes, deterministically. cfg is shared; request-id salts are numbered
// from 1.
func startCluster(cfg serve.Config, nw *core.Network, replicas int) ([]*daemon, error) {
	var ds []*daemon
	fail := func(err error) ([]*daemon, error) {
		closeAll(ds)
		return nil, err
	}
	for _, spec := range shardSpecs {
		prefix, err := torus.ParsePrefix(spec)
		if err != nil {
			return fail(err)
		}
		for r := 0; r < replicas; r++ {
			c := cfg
			c.RequestIDSalt = uint64(len(ds) + 1)
			d, err := startDaemon(c, func(d *daemon) error {
				d.srv.AddNetwork(serve.DefaultGraph, nw)
				node, err := cluster.NewNode(nw.Graph, prefix, d.addr, cluster.Config{Seed: 1, Replica: r})
				if err != nil {
					return err
				}
				d.node = node
				d.srv.EnableCluster(node, nil)
				return nil
			})
			if err != nil {
				return fail(err)
			}
			ds = append(ds, d)
		}
	}
	refreshMembership(ds)
	return ds, nil
}

// refreshMembership (re-)introduces every daemon to every other as a
// statically configured peer. Without a gossip loop a peer that receives no
// forward for DownAfter (10 s) reads as down, so phases that leave a cluster
// idle call this before using it again.
func refreshMembership(ds []*daemon) {
	for _, d := range ds {
		for _, p := range ds {
			if p != d {
				d.node.Members().Add(p.node.Self())
			}
		}
	}
}

func closeAll(ds []*daemon) {
	for _, d := range ds {
		d.close()
	}
	// The daemons forward hops through http.DefaultClient's transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// client is the load generator's side of the wire: one keep-alive
// connection pool, reusable read buffer per caller.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	// The open-loop and two-client rungs hold several requests in flight
	// against one host; the default of 2 idle connections would churn them.
	tr.MaxIdleConnsPerHost = 16
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends body and reads the whole reply into buf.
func (c *client) post(url string, body []byte, buf *bytes.Buffer) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// routeBodies pre-encodes one POST /route body per pair, so the measured
// loop spends its client-side time on the wire, not on building requests.
func routeBodies(pl pairList, includePath bool) ([][]byte, error) {
	bodies := make([][]byte, len(pl.pairs))
	for i, p := range pl.pairs {
		b, err := json.Marshal(serve.RouteRequest{S: int(p.s), T: int(p.t), IncludePath: includePath})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// checkRoute decodes a POST /route reply and compares it with the pair's
// recorded episode.
func checkRoute(status int, body []byte, p pair, resp *serve.RouteResponse) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	*resp = serve.RouteResponse{}
	if err := json.Unmarshal(body, resp); err != nil {
		return err
	}
	if !p.matches(resp.Success, resp.Moves, resp.Unique) {
		return fmt.Errorf("pair (%d, %d): success=%v moves=%d unique=%d failure=%q, recorded moves=%d unique=%d",
			p.s, p.t, resp.Success, resp.Moves, resp.Unique, resp.Failure, p.moves, p.unique)
	}
	return nil
}
