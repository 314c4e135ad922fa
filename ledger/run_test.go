package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// Every workload, traced and untraced, prints one result line with exactly
// the metrics BENCHMARK.json lists for the mode, passes its own output
// checks, and leaves nothing behind but the trace file.
func TestRunPrintsTheContractsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end (about two minutes)")
	}
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			name, specs, flag := wl+"/untraced", endToEnd, "0"
			if traced {
				name, specs, flag = wl+"/traced", perLayer, "1"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := runWith(context.Background(), options{setupReps: 1},
					[]string{"--dir", dir, "--workload", wl, "--seed", "3", "--seconds", "2", "--trace", flag},
					&stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				res, err := parseResultLine(stdout.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, the contract lists %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit {
						t.Errorf("metric %s: %+v (present %v), want unit %s", s.Name, m, ok, s.Unit)
					}
				}
				if traced {
					if v := res.Metrics["route.allocs_per_episode"].Value; v != 0 {
						t.Errorf("route.allocs_per_episode = %v, must be 0", v)
					}
					if v := res.Metrics["bench.reconcile_route_ratio"].Value; v < 0.8 || v > 1.25 {
						t.Errorf("bench.reconcile_route_ratio = %v outside [0.8, 1.25]", v)
					}
				}

				// Temporary mutation logs are removed on the way out; only the
				// traced run's span file may remain under <dir>/out.
				left, err := filepath.Glob(filepath.Join(dir, "out", "*"))
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				if traced {
					want = 1
					if st, err := os.Stat(filepath.Join(dir, "out", "trace-"+wl+".jsonl")); err != nil || st.Size() == 0 {
						t.Errorf("no span file: %v", err)
					}
				}
				if len(left) != want {
					t.Errorf("run left %v under out/", left)
				}
			})
		}
	}
}

// A bad command line or an unknown workload exits non-zero without a result
// line.
func TestBadInvocationPrintsNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", wlLibEpisodes, "--seconds", "0"},
		{"--workload", wlLibEpisodes, "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), append([]string{"--dir", t.TempDir()}, args...), &stdout, &stderr); code == 0 {
			t.Errorf("%v exited 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed %q", args, stdout.String())
		}
	}
}
