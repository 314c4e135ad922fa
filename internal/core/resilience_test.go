package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/route"
)

// reportsIdentical is reportsEqual extended over the resilience fields: two
// reports are identical only if their failure taxonomies, partial flags and
// cancellation counts also match.
func reportsIdentical(a, b MilgramReport) bool {
	return reportsEqual(a, b) && a.Partial == b.Partial && a.Cancelled == b.Cancelled &&
		reflect.DeepEqual(a.Failures, b.Failures)
}

func TestRunMilgramMaxHopsClassifiesDeadline(t *testing.T) {
	nw := girgNet(t, 2000, 50)
	free, err := RunMilgram(nw, MilgramConfig{Pairs: 120, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := RunMilgram(nw, MilgramConfig{Pairs: 120, Seed: 51, MaxHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Attempts != 120 {
		t.Fatalf("attempts %d", capped.Attempts)
	}
	// One adjacency query buys at most one hop: multi-hop routes are cut off
	// and classified as deadline failures, not dead ends.
	if capped.Failures[route.FailDeadline] == 0 {
		t.Fatalf("no deadline failures under MaxHops=1: %+v", capped.Failures)
	}
	if capped.Success.P >= free.Success.P {
		t.Fatalf("hop budget did not reduce success: %v >= %v", capped.Success.P, free.Success.P)
	}
	for _, h := range capped.Hops {
		if h > 1 {
			t.Fatalf("successful episode took %v hops under a 1-query budget", h)
		}
	}
}

// slowProtocol simulates a hung plug-in: it queries adjacency forever. Only
// the engine's wall-time budget can terminate its episodes.
type slowProtocol struct{}

func (slowProtocol) Name() string { return "test-slow" }
func (slowProtocol) RouteInto(g route.Graph, _ route.Objective, s int, _ *route.Scratch, _ *route.Result) {
	for {
		g.Neighbors(s)
		time.Sleep(100 * time.Microsecond)
	}
}

func TestRunMilgramEpisodeTimeoutTurnsHangIntoFailure(t *testing.T) {
	plugIn(slowProtocol{})
	nw := girgNet(t, 600, 52)
	start := time.Now()
	rep, err := RunMilgram(nw, MilgramConfig{
		Pairs: 4, Seed: 53, Protocol: "test-slow", EpisodeTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("budgeted batch took %v", elapsed)
	}
	if rep.Attempts != 4 || rep.Failures[route.FailDeadline] != 4 {
		t.Fatalf("hung episodes not classified as deadline failures: %+v", rep)
	}
	if rep.Success.P != 0 {
		t.Fatalf("hung protocol delivered %v of letters", rep.Success.P)
	}
}

func TestRunMilgramFaultPlanCrash(t *testing.T) {
	nw := girgNet(t, 1500, 54)
	plan, err := faults.NewPlan(7, faults.Spec{Model: "crash-uniform", Rate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounters()
	before := c.Stats()
	rep, err := RunMilgram(nw, MilgramConfig{Pairs: 200, Seed: 55, Faults: plan, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 200 {
		t.Fatalf("attempts %d", rep.Attempts)
	}
	// With ~30% of vertices down, ~1-0.7^2 of pairs lose an endpoint.
	crashed := rep.Failures[route.FailCrashedTarget]
	if crashed < 50 || crashed > 150 {
		t.Fatalf("crashed-endpoint episodes %d, want roughly 0.51*200", crashed)
	}
	after := c.Stats()
	if d := after.FailureTaxonomy[string(route.FailCrashedTarget)] -
		before.FailureTaxonomy[string(route.FailCrashedTarget)]; d != int64(crashed) {
		t.Fatalf("engine crashed-target counter advanced by %d, report shows %d", d, crashed)
	}
}

func TestRunMilgramFaultPlanEdgeDrop(t *testing.T) {
	nw := girgNet(t, 1500, 56)
	plan, err := faults.NewPlan(8, faults.Spec{Model: "edge-drop", Rate: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	free, err := RunMilgram(nw, MilgramConfig{Pairs: 100, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := RunMilgram(nw, MilgramConfig{Pairs: 100, Seed: 57, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Success.P >= free.Success.P {
		t.Fatalf("90%% edge drop did not reduce success: %v >= %v", faulty.Success.P, free.Success.P)
	}
}

// TestFaultyBatchDeterministic is the golden determinism check of the chaos
// harness: a batch layering three fault models plus a hop budget must be
// bit-identical whether episodes run on one core or all of them, and across
// two same-seed runs. Fault decisions are pure functions of
// (seed, episode, query), so worker scheduling must not leak into the table.
func TestFaultyBatchDeterministic(t *testing.T) {
	nw := girgNet(t, 1500, 58)
	plan, err := faults.NewPlan(9,
		faults.Spec{Model: "edge-drop", Rate: 0.2},
		faults.Spec{Model: "crash-uniform", Rate: 0.1},
		faults.Spec{Model: "objective-noise", Rate: 0.2},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MilgramConfig{
		Pairs: 80, Seed: 59, Protocol: "phi-dfs", ComputeStretch: true,
		MaxHops: 50000, Faults: plan,
	}
	prev := runtime.GOMAXPROCS(1)
	seq, err := RunMilgram(nw, cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	parl, err := RunMilgram(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsIdentical(seq, parl) {
		t.Fatalf("faulty batch differs across worker counts:\nseq  %+v\npar  %+v", seq, parl)
	}
	again, err := RunMilgram(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsIdentical(parl, again) {
		t.Fatalf("faulty batch differs across same-seed runs:\n1st %+v\n2nd %+v", parl, again)
	}
	if math.IsNaN(parl.MeanHops) {
		t.Fatal("no successful episodes under moderate faults")
	}
}

func TestRunMilgramCtxPartialReportOnMidRunCancel(t *testing.T) {
	nw := girgNet(t, 800, 60)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	const pairs = 3000
	c := NewCounters()
	before := c.Stats()
	rep, err := RunMilgramCtx(ctx, nw, MilgramConfig{
		Pairs:    pairs,
		Seed:     61,
		Counters: c,
		Objective: func(tgt int) route.Objective {
			if calls.Add(1) == 64 {
				cancel()
			}
			return route.NewStandard(nw.Graph, tgt)
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !rep.Partial {
		t.Fatal("mid-run cancellation did not mark the report partial")
	}
	if rep.Attempts == 0 {
		t.Fatal("partial report dropped the completed episodes")
	}
	if rep.Cancelled == 0 {
		t.Fatal("partial report counts no cancelled episodes")
	}
	if rep.Attempts+rep.Cancelled != pairs {
		t.Fatalf("attempts %d + cancelled %d != %d pairs", rep.Attempts, rep.Cancelled, pairs)
	}
	after := c.Stats()
	if d := after.FailureTaxonomy[string(route.FailCancelled)] -
		before.FailureTaxonomy[string(route.FailCancelled)]; d != int64(rep.Cancelled) {
		t.Fatalf("engine cancelled counter advanced by %d, report shows %d", d, rep.Cancelled)
	}
	// Only the completed episodes routed.
	if d := after.Episodes - before.Episodes; d != int64(rep.Attempts) {
		t.Fatalf("engine routed %d episodes, report attempted %d", d, rep.Attempts)
	}
}

// panicFaultModel is a buggy fault model plug-in: every episode view panics.
type panicFaultModel struct{}

func (panicFaultModel) Name() string                          { return "test-panic-fault" }
func (panicFaultModel) Bind(route.Graph, uint64) faults.Bound { return panicFaultBound{} }

type panicFaultBound struct{}

func (panicFaultBound) View(route.Graph, route.Objective, int) (route.Graph, route.Objective) {
	panic("chaotic fault model")
}
func (panicFaultBound) Crashed(int) bool { return false }

func TestFaultModelPanicFailsOnlyBatch(t *testing.T) {
	nw := girgNet(t, 600, 62)
	plan := &faults.Plan{Seed: 10, Models: []faults.Model{panicFaultModel{}}}
	_, err := RunMilgram(nw, MilgramConfig{Pairs: 20, Seed: 63, Faults: plan})
	if err == nil {
		t.Fatal("panicking fault model returned no error")
	}
	if !strings.Contains(err.Error(), "episode") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error %q does not describe the panicking episode", err)
	}
	// The panic was contained to that batch: the engine still runs.
	rep, err := RunMilgram(nw, MilgramConfig{Pairs: 20, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 20 {
		t.Fatalf("engine broken after contained panic: %+v", rep)
	}
}

// stuckProtocol never moves and — like a hand-rolled external plug-in —
// returns its failed Result without setting the Failure classification.
type stuckProtocol struct{}

func (stuckProtocol) Name() string { return "test-stuck" }
func (stuckProtocol) RouteInto(_ route.Graph, _ route.Objective, s int, _ *route.Scratch, out *route.Result) {
	*out = route.Result{Path: []int{s}, Stuck: s, Unique: 1}
}

func TestEngineStatsTaxonomyKeysAlwaysPresent(t *testing.T) {
	c := NewCounters()
	s := c.Stats()
	for _, f := range route.Failures() {
		if _, ok := s.FailureTaxonomy[string(f)]; !ok {
			t.Fatalf("taxonomy key %q missing from EngineStats: %v", f, s.FailureTaxonomy)
		}
	}
	// An unclassified failure from an external protocol must be folded into
	// the taxonomy as a dead end, in the report and the engine counters alike.
	plugIn(stuckProtocol{})
	nw := girgNet(t, 900, 64)
	before := c.Stats()
	rep, err := RunMilgram(nw, MilgramConfig{Pairs: 60, Seed: 65, Protocol: "test-stuck", Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Failures[route.FailDeadEnd]; got != 60 {
		t.Fatalf("unclassified failures counted as %v, want 60 dead ends (map %v)", got, rep.Failures)
	}
	after := c.Stats()
	if d := after.FailureTaxonomy[string(route.FailDeadEnd)] -
		before.FailureTaxonomy[string(route.FailDeadEnd)]; d != 60 {
		t.Fatalf("dead-end counter advanced by %d, want 60", d)
	}
}
