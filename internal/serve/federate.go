package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// This file is the federation endpoint: GET /cluster/metrics scrapes every
// gossip-known routable peer's /metrics, parses each exposition, and
// re-emits the union as one exposition with an instance label naming the
// daemon each sample came from. One scrape of any daemon therefore answers
// cluster-wide questions ("which replica is behind", "which shard's breaker
// is open") without a Prometheus federation config — and because the merged
// output parses again with obs.ParseExposition, federations compose.

// fedScrape is one daemon's contribution to the federated exposition.
type fedScrape struct {
	inst obs.Instance
	err  error
}

// handleClusterMetrics serves GET /cluster/metrics. The local daemon is
// scraped in-process (writeMetricsTo, no loopback round-trip); peers are
// scraped concurrently over the cluster client, each bounded by the request
// timeout. A peer that fails to answer or to parse contributes nothing but a
// failure counter — federation degrades per-instance, it never 500s because
// one daemon is down.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, 0, "GET required")
		return
	}
	node := s.clusterNode
	if node == nil {
		writeError(w, http.StatusNotFound, 0, "not clustered")
		return
	}
	ctx := r.Context()

	// Self first, in-process. The instance name is the advertised peer id —
	// the same spelling peers use for this daemon — so a federated scrape
	// from any daemon labels a given instance identically.
	var buf bytes.Buffer
	selfErr := s.writeMetricsTo(&buf)
	instances := make([]obs.Instance, 0, 4)
	if selfErr == nil {
		fams, err := obs.ParseExposition(&buf)
		selfErr = err
		if err == nil {
			instances = append(instances, obs.Instance{Name: node.Self().ID, Families: fams})
		}
	}
	if selfErr != nil {
		s.logger.WarnContext(ctx, "federation: self scrape failed", "err", selfErr)
	}

	// Peers in parallel, deterministically ordered in the output: routable
	// peers sorted by id, each with its own deadline-bounded GET /metrics.
	peers := node.Members().Routable()
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	results := make([]fedScrape, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p cluster.Peer) {
			defer wg.Done()
			results[i] = s.scrapePeer(ctx, p)
		}(i, p)
	}
	wg.Wait()
	for i, res := range results {
		s.fedScrapes.Add(1)
		if res.err != nil {
			s.fedScrapeFails.Add(1)
			s.logger.WarnContext(ctx, "federation: peer scrape failed", "peer", peers[i].ID, "err", res.err)
			continue
		}
		instances = append(instances, res.inst)
	}

	w.Header().Set("Content-Type", obs.PromContentType)
	p := obs.NewPromWriter(w)
	obs.MergeExpositions(p, instances)
	if err := p.Err(); err != nil {
		s.logger.WarnContext(ctx, "federation: merged write failed", "err", err)
	}
}

// scrapePeer fetches and parses one peer's /metrics over peerCall.
func (s *Server) scrapePeer(ctx context.Context, peer cluster.Peer) fedScrape {
	var fams []*obs.PromFamily
	status, err := s.peerCall(ctx, peer, "/metrics", nil, "", 32<<20, func(r io.Reader) (err error) {
		fams, err = obs.ParseExposition(r)
		return err
	})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("peer %s answered /metrics with status %d", peer.ID, status)
	}
	if err != nil {
		return fedScrape{err: err}
	}
	return fedScrape{inst: obs.Instance{Name: peer.ID, Families: fams}}
}
