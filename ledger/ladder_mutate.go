package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/mutate"
	"repro/internal/serve"
)

// mutateRungs times the write path of the live graph layer by layer: batch
// encoding, Log.Apply (validate + journal append + fsync + publish), the
// acknowledged POST /admin/mutate, replay on reopen, and compaction.
func (l *ladder) mutateRungs() error {
	g := l.big.Graph
	batches, ov, err := prechurn(g)
	if err != nil {
		return err
	}
	onPath := make([]bool, ov.N()) // no reads in these rungs: every live base vertex may be a contact
	stream, err := newChurnStream(l.o.seed, ov, onPath)
	if err != nil {
		return err
	}
	ns, _, err := l.rung(0.01, 256, func(i int) time.Duration {
		ops := stream.batch(i)
		t0 := time.Now()
		b, err := mutate.EncodeBatch(ops)
		d := time.Since(t0)
		l.check(err, "mutate.EncodeBatch")
		sink += float64(len(b))
		return d
	})
	if err != nil {
		return err
	}
	l.vals["mutate.encode_us"] = ns / 1e3

	tmp, err := mutlogDir(l.o.dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	log, err := mutate.Open(tmp, g, mutate.Config{})
	if err != nil {
		return err
	}
	defer func() { log.Close() }()
	for _, ops := range batches {
		if _, err := log.Apply(ops); err != nil {
			return err
		}
	}
	next := 0
	ns, _, err = l.rung(0.04, 32, func(int) time.Duration {
		ops := stream.batch(next)
		next++
		t0 := time.Now()
		_, err := log.Apply(ops)
		d := time.Since(t0)
		l.check(err, "mutate.Log.Apply")
		return d
	})
	if err != nil {
		return err
	}
	l.vals["mutate.apply_us"] = ns / 1e3

	// Restart: close, reopen with Resume, replay the journal.
	if err := log.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	log, err = mutate.Open(tmp, g, mutate.Config{Resume: true})
	if err != nil {
		return err
	}
	l.vals["mutate.replay_s"] = time.Since(t0).Seconds()
	if got, want := int(log.Stats().Replayed), len(batches)+next; got != want {
		return fmt.Errorf("journal replayed %d batches, %d were acknowledged", got, want)
	}

	d, err := startDaemon(serve.Config{RequestIDSalt: 1}, func(d *daemon) error {
		return d.srv.EnableMutation(log, serve.DefaultGraph)
	})
	if err != nil {
		return err
	}
	cl := newClient()
	var buf bytes.Buffer
	ns, lats, err := l.rung(0.05, 32, func(int) time.Duration {
		body, err := json.Marshal(serve.MutateRequest{Ops: stream.batch(next)})
		next++
		var status int
		t0 := time.Now()
		if err == nil {
			status, err = cl.post(d.url+"/admin/mutate", body, &buf)
		}
		el := time.Since(t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
		}
		l.check(err, "POST /admin/mutate")
		return el
	})
	cl.close()
	d.close()
	if err != nil {
		return err
	}
	l.vals["mutate.http_ack_us"] = ns / 1e3
	l.vals["mutate.ack_p90_ms"] = tail(lats, 0.90) / 1e6

	t0 = time.Now()
	if err := log.Compact(); err != nil {
		return err
	}
	l.vals["mutate.compact_s"] = time.Since(t0).Seconds()
	st := log.Stats()
	l.vals["mutate.rejected_ratio"] = float64(st.Rejected) / float64(st.Rejected+st.Batches+st.Replayed)
	return nil
}
