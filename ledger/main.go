// Command ledger is the repository's benchmark: three closed-loop workloads
// with one operation in flight, six end-to-end metrics, and an outside-in
// ladder of per-layer metrics. BENCHMARK.json at the repository root names
// the command the driver runs; README.md in this directory defines every
// workload and metric.
//
//	bash ledger/run.sh --workload lib-episodes --seed 1 --seconds 32 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":61234,"failed":0,"metrics":{"qps":{"value":1701.5,"unit":"1/s"},...}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command line of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
	// setupReps, when set, replaces the set-up repetition rule of an untraced
	// run by exactly this many set-ups (tests only).
	setupReps int
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	return runWith(ctx, options{}, args, stdout, stderr)
}

// runWith is run over preset options, which the flags then fill in.
func runWith(ctx context.Context, o options, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		trace  = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced loop and the ladder")
		repeat = fs.Int("repeat", 0, "steadiness self-check: run this many seeds (seed, seed+1, ...) of the workload and judge the spread of every end-to-end metric against a third of its bound")
	)
	fs.StringVar(&o.workload, "workload", "", "one of lib-episodes, cluster-hop, live-churn")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the (s, t) pair list and the mutation stream")
	fs.Float64Var(&o.seconds, "seconds", 32, "length of the measured phase")
	fs.StringVar(&o.dir, "dir", "ledger", "the benchmark's directory; runs write under <dir>/out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0
	if fs.NArg() > 0 || o.seconds <= 0 || *trace < 0 || *trace > 1 || *repeat < 0 {
		fmt.Fprintln(stderr, "ledger: usage: --workload W --seed N --seconds S --trace 0|1 [--repeat K]")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(ctx, o, *repeat, stdout, stderr)
	}
	fails := &failLog{}
	var (
		res result
		err error
	)
	if o.trace {
		res, err = runTraced(ctx, o, fails)
	} else {
		res, err = runUntraced(ctx, o, fails)
	}
	for _, m := range fails.msgs {
		fmt.Fprintln(stderr, "ledger: failed:", m)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	line, err := res.encode(o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// result is the last line of a run.
type result struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// encode renders the result line: every end-to-end metric of an untraced
// run, every per-layer metric of a traced one, each with its unit and all
// its digits. A metric that was not measured or is not finite is an error,
// not a gap.
func (r result) encode(traced bool) (string, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	metrics := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured (%v)", s.Name, v)
		}
		metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(r.values) != len(specs) {
		return "", fmt.Errorf("measured %d metrics, the contract lists %d", len(r.values), len(specs))
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	return string(b), err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB is the process's peak resident set so far (ru_maxrss, KiB on
// Linux).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// loopResult is one timed phase of a workload's closed loop.
type loopResult struct {
	log    *opLog
	phase  time.Duration // nominal length: the windows tile it
	cpu    time.Duration
	failed int
}

// errInterrupted ends a run that was signalled; no result line is printed.
var errInterrupted = errors.New("interrupted")

// loop runs the workload's closed loop for the given time, continuing its
// operation sequence, and records every operation's completion time and
// latency. between, if set, runs between operations and its time is taken
// out of the phase (the traced run's host reference kernel).
func loop(ctx context.Context, w workload, d time.Duration, tr *spanRec, fails *failLog, between func() time.Duration) (loopResult, error) {
	res := loopResult{log: newOpLog(int(d.Seconds()*12000) + 1024), phase: d}
	cpu0, err := cpuTime()
	if err != nil {
		return res, err
	}
	start := time.Now()
	var paused time.Duration
	for i := w.ops(); ; i++ {
		if between != nil {
			paused += between()
		}
		issued, replied, err := w.op(i, tr)
		if err != nil {
			res.failed++
			fails.add("op %d: %v", i, err)
			if replied.IsZero() { // failed before anything was sent
				replied = time.Now()
				issued = replied
			}
		}
		done := replied.Sub(start) - paused
		res.log.add(int64(done), int64(replied.Sub(issued)))
		if done >= d {
			break
		}
		if i&63 == 0 && ctx.Err() != nil {
			return res, errInterrupted
		}
	}
	cpu1, err := cpuTime()
	res.cpu = cpu1 - cpu0
	return res, err
}

const (
	minSetupReps = 3
	maxSetupReps = 9
	minSetupTime = 2 * time.Second
)

// setupWorkload performs complete set-ups of the workload — fixture graph,
// giant component, pair draw and filter, stack, warm-up — until it has at
// least reps of them and minTime of set-up time (at most maxSetupReps),
// tearing down all but the last, and returns the last with every set-up's
// duration in seconds.
func setupWorkload(ctx context.Context, o options, reps int, minTime time.Duration, fails *failLog) (workload, []float64, error) {
	var (
		times []float64
		total time.Duration
	)
	for {
		w, err := newWorkload(o.workload, o.seed, o.dir, fails)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		err = w.setup()
		el := time.Since(t0)
		if err == nil && ctx.Err() != nil {
			err = errInterrupted
		}
		if err != nil {
			w.teardown()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, el.Seconds())
		total += el
		if len(times) >= reps && total >= minTime || len(times) >= maxSetupReps {
			return w, times, nil
		}
		w.teardown()
		w = nil
		// Each set-up starts from a collected heap, as the one set-up of a
		// real process does; what an earlier repetition left uncollected
		// would otherwise add to rss_peak_mb by the luck of GC timing.
		debug.FreeOSMemory()
	}
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(ctx context.Context, o options, fails *failLog) (result, error) {
	reps, minTime := minSetupReps, minSetupTime
	if o.setupReps > 0 {
		reps, minTime = o.setupReps, 0
	}
	w, setups, err := setupWorkload(ctx, o, reps, minTime, fails)
	if err != nil {
		return result{}, err
	}
	defer w.teardown()
	phase := time.Duration(o.seconds * float64(time.Second))
	lr, err := loop(ctx, w, phase, nil, fails, nil)
	if err != nil {
		return result{}, err
	}
	bad, err := w.verify()
	if err != nil {
		return result{}, fmt.Errorf("verify: %w", err)
	}
	w.teardown()
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	ws := windowStats(lr.log, phase, w.window(), 0.90)
	ops := len(lr.log.lat)
	return result{
		correct:   lr.failed == 0 && bad == 0,
		attempted: ops,
		failed:    lr.failed + bad,
		values: map[string]float64{
			"setup_s":       median(setups),
			"qps":           ws.qps,
			"p50_ms":        medianNs(lr.log.lat) / 1e6,
			"p90_ms":        ws.tailNs / 1e6,
			"cpu_ms_per_op": float64(lr.cpu) / 1e6 / float64(ops),
			"rss_peak_mb":   rss,
		},
	}, nil
}

// outDir is where a run writes: traces and temporary mutation logs.
func outDir(dir string) string { return filepath.Join(dir, "out") }
