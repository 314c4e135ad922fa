// tracestitch merges the span JSONL of several daemons into per-trace trees
// and attributes each request's wall-clock time to phases along its critical
// path.
//
// Input files are the daemons' -trace-out dumps (or GET /debug/trace
// captures): one phase span per line, local_route spans carrying the hops of
// their walk. A line that is not a span is counted as skipped.
//
// The critical path of a trace tiles the root span's interval: time covered
// by a child span recurses into that child, gaps belong to the enclosing
// span's own kind, and where children overlap (a hedged forward racing the
// primary) the one that ends later carries the path — the parallel loser is
// redundant work, not latency. Per-phase sums over those segments therefore
// add up to the end-to-end duration exactly.
//
// With -check, tracestitch is a CI gate: it exits nonzero when any line is
// not a span (the stream is corrupt), when any span is an orphan (its parent
// id is not in its trace), when a trace has no single root, or when no trace
// spans at least two daemons (with 2+ input files) — the signature of broken
// Traceparent propagation.
//
//	tracestitch -check -out report.json d1.jsonl d2.jsonl d3.jsonl
//	tracestitch -top 3 d*.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracestitch:", err)
		os.Exit(1)
	}
}

// Trace is one stitched request: every span sharing a trace id, tree-linked
// through parent ids, plus the derived attribution.
type Trace struct {
	ID string `json:"trace"`
	// Root is the single parentless span (the entry daemon's request span, or
	// an internal root for anti-entropy traces). Nil when the trace is broken.
	Root *obs.PhaseSpan `json:"-"`
	// Services are the distinct daemons that recorded spans, sorted.
	Services []string `json:"services"`
	Spans    int      `json:"spans"`
	// DurUs is the root span's duration.
	DurUs int64 `json:"dur_us"`
	// Phases is the critical-path attribution: per-kind microseconds that sum
	// to DurUs.
	Phases map[string]int64 `json:"phases_us"`
	// Orphans counts spans whose parent id is absent from the trace.
	Orphans int `json:"orphans,omitempty"`
	// DupIDs counts spans repeating an id already seen in the trace — a
	// daemon-side bug that would otherwise corrupt the tree into a cycle.
	DupIDs int `json:"duplicate_span_ids,omitempty"`
	// Roots counts parentless spans (1 in a well-formed trace).
	Roots int `json:"roots"`
}

// Report is the aggregate the -out flag writes.
type Report struct {
	Files        int              `json:"files"`
	Spans        int              `json:"spans"`
	Skipped      int              `json:"skipped_lines"`
	Traces       int              `json:"traces"`
	MultiService int              `json:"multi_service_traces"`
	Orphans      int              `json:"orphans"`
	DupIDs       int              `json:"duplicate_span_ids"`
	BadRoots     int              `json:"traces_without_single_root"`
	PhasesUs     map[string]int64 `json:"phases_us"`
	TotalUs      int64            `json:"total_us"`
	TracesOut    []*Trace         `json:"worst_traces,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracestitch", flag.ContinueOnError)
	var (
		check = fs.Bool("check", false, "gate mode: exit nonzero on non-span lines, orphan spans, multi-root traces, or (with 2+ files) zero multi-daemon traces")
		top   = fs.Int("top", 5, "print the critical path of the N slowest traces")
		outF  = fs.String("out", "", "write the aggregate report as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("usage: tracestitch [-check] [-top N] [-out report.json] <spans.jsonl>...")
	}

	var spans []obs.PhaseSpan
	skipped := 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		got, skip, err := readSpans(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, got...)
		skipped += skip
	}

	traces := stitch(spans)
	rep := &Report{
		Files:    len(files),
		Spans:    len(spans),
		Skipped:  skipped,
		Traces:   len(traces),
		PhasesUs: map[string]int64{},
	}
	for _, tr := range traces {
		rep.Orphans += tr.Orphans
		rep.DupIDs += tr.DupIDs
		if tr.Roots != 1 {
			rep.BadRoots++
		}
		if len(tr.Services) >= 2 {
			rep.MultiService++
		}
		for k, us := range tr.Phases {
			rep.PhasesUs[k] += us
		}
		rep.TotalUs += tr.DurUs
	}

	// Slowest traces first for the -top table and the report's worst list.
	sort.Slice(traces, func(i, j int) bool {
		if traces[i].DurUs != traces[j].DurUs {
			return traces[i].DurUs > traces[j].DurUs
		}
		return traces[i].ID < traces[j].ID
	})
	n := *top
	if n > len(traces) {
		n = len(traces)
	}
	rep.TracesOut = traces[:n]

	printReport(out, rep)
	if *outF != "" {
		write := func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		if err := atomicio.WriteFile(*outF, write); err != nil {
			return err
		}
	}

	if *check {
		var fails []string
		if rep.Skipped > 0 {
			fails = append(fails, fmt.Sprintf("%d line(s) are not phase spans: corrupt trace stream", rep.Skipped))
		}
		if rep.Orphans > 0 {
			fails = append(fails, fmt.Sprintf("%d orphan span(s): parent id missing from trace", rep.Orphans))
		}
		if rep.DupIDs > 0 {
			fails = append(fails, fmt.Sprintf("%d duplicate span id(s): colliding id lanes on a daemon", rep.DupIDs))
		}
		if rep.BadRoots > 0 {
			fails = append(fails, fmt.Sprintf("%d trace(s) without exactly one root", rep.BadRoots))
		}
		if len(files) >= 2 && rep.MultiService == 0 {
			fails = append(fails, "no trace spans 2+ daemons (Traceparent propagation broken?)")
		}
		if rep.Traces == 0 {
			fails = append(fails, "no traces found")
		}
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(out, "CHECK FAIL:", f)
			}
			return fmt.Errorf("%d check(s) failed", len(fails))
		}
		fmt.Fprintln(out, "CHECK OK")
	}
	return nil
}

// readSpans decodes the phase spans of one JSONL stream, skipping blank
// lines and counting every other line that is not a span — a daemon writes
// nothing else, so -check reads a counted line as corruption.
func readSpans(r io.Reader) ([]obs.PhaseSpan, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	var spans []obs.PhaseSpan
	skipped := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var sp obs.PhaseSpan
		// A span line always carries trace and span ids.
		if err := json.Unmarshal(line, &sp); err != nil || sp.Trace == "" || sp.ID == "" {
			skipped++
			continue
		}
		spans = append(spans, sp)
	}
	return spans, skipped, sc.Err()
}

// stitch groups spans by trace id, links trees, and computes each trace's
// critical-path attribution. Traces come back sorted by id (deterministic
// for tests; callers re-sort for display).
func stitch(spans []obs.PhaseSpan) []*Trace {
	byTrace := map[string][]*obs.PhaseSpan{}
	for i := range spans {
		sp := &spans[i]
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	ids := make([]string, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	out := make([]*Trace, 0, len(ids))
	for _, id := range ids {
		group := byTrace[id]
		// Stable span order: by start time, id as tiebreak, so children walk
		// deterministically regardless of input file order.
		sort.Slice(group, func(i, j int) bool {
			if group[i].Start != group[j].Start {
				return group[i].Start < group[j].Start
			}
			return group[i].ID < group[j].ID
		})
		byID := map[string]*obs.PhaseSpan{}
		children := map[string][]*obs.PhaseSpan{}
		services := map[string]bool{}
		tr := &Trace{ID: id, Spans: len(group), Phases: map[string]int64{}}
		for _, sp := range group {
			if byID[sp.ID] != nil {
				tr.DupIDs++
			} else {
				byID[sp.ID] = sp
			}
			services[sp.Service] = true
		}
		for _, sp := range group {
			switch {
			case sp.Parent == "":
				tr.Roots++
				if tr.Root == nil {
					tr.Root = sp
				}
			case byID[sp.Parent] == nil:
				tr.Orphans++
			default:
				children[sp.Parent] = append(children[sp.Parent], sp)
			}
		}
		for svc := range services {
			tr.Services = append(tr.Services, svc)
		}
		sort.Strings(tr.Services)
		if tr.Root != nil {
			tr.DurUs = tr.Root.Dur / 1e3
			ns := map[string]int64{}
			criticalPath(tr.Root, children, ns)
			for k, v := range ns {
				tr.Phases[k] = v / 1e3
			}
		}
		out = append(out, tr)
	}
	return out
}

// criticalPath attributes sp's interval to phase kinds: child-covered time
// recurses, gaps count as sp's own kind, and overlapping children are
// resolved to the later-ending one. Sums accumulate in nanoseconds — the
// caller converts once per phase, so truncation error is bounded by the
// number of phases, not the number of path segments.
func criticalPath(sp *obs.PhaseSpan, children map[string][]*obs.PhaseSpan, phases map[string]int64) {
	seen := map[*obs.PhaseSpan]bool{sp: true}
	attributeInterval(sp, sp.Start, sp.Start+sp.Dur, children, phases, seen)
}

// attributeInterval walks [from, to) of span sp. Children are clipped to the
// interval (clock skew across daemons cannot push time outside the parent),
// and seen guards the walk against parent cycles — duplicate span ids (a
// daemon bug, counted as DupIDs) must degrade the attribution, not hang it.
func attributeInterval(sp *obs.PhaseSpan, from, to int64, children map[string][]*obs.PhaseSpan, phases map[string]int64, seen map[*obs.PhaseSpan]bool) {
	if to <= from {
		return
	}
	cur := from
	for _, c := range children[sp.ID] {
		if seen[c] {
			continue
		}
		cs, ce := c.Start, c.Start+c.Dur
		if cs < cur {
			cs = cur
		}
		if ce > to {
			ce = to
		}
		if ce <= cs {
			continue // fully covered by an earlier sibling, or clipped away
		}
		if cs > cur {
			phases[sp.Kind] += cs - cur
		}
		// The child owns [cs, ce) of the path; its own children refine it.
		seen[c] = true
		attributeInterval(c, cs, ce, children, phases, seen)
		cur = ce
	}
	if cur < to {
		phases[sp.Kind] += to - cur
	}
}

// printReport renders the aggregate and the slowest traces as text.
func printReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "files %d  spans %d (skipped %d non-span lines)  traces %d  multi-daemon %d  orphans %d\n",
		rep.Files, rep.Spans, rep.Skipped, rep.Traces, rep.MultiService, rep.Orphans)
	if rep.Traces == 0 {
		return
	}
	fmt.Fprintf(w, "\nphase attribution across %d trace(s), %.3fms total:\n", rep.Traces, float64(rep.TotalUs)/1e3)
	kinds := make([]string, 0, len(rep.PhasesUs))
	for k := range rep.PhasesUs {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return rep.PhasesUs[kinds[i]] > rep.PhasesUs[kinds[j]] })
	for _, k := range kinds {
		us := rep.PhasesUs[k]
		pct := 0.0
		if rep.TotalUs > 0 {
			pct = 100 * float64(us) / float64(rep.TotalUs)
		}
		fmt.Fprintf(w, "  %-14s %10.3fms  %5.1f%%\n", k, float64(us)/1e3, pct)
	}
	if len(rep.TracesOut) > 0 {
		fmt.Fprintf(w, "\nslowest %d trace(s):\n", len(rep.TracesOut))
		for _, tr := range rep.TracesOut {
			fmt.Fprintf(w, "  %s  %.3fms  %d span(s)  %v\n", tr.ID, float64(tr.DurUs)/1e3, tr.Spans, tr.Services)
			kinds := make([]string, 0, len(tr.Phases))
			for k := range tr.Phases {
				kinds = append(kinds, k)
			}
			sort.Slice(kinds, func(i, j int) bool { return tr.Phases[kinds[i]] > tr.Phases[kinds[j]] })
			for _, k := range kinds {
				fmt.Fprintf(w, "    %-14s %10.3fms\n", k, float64(tr.Phases[k])/1e3)
			}
		}
	}
}
