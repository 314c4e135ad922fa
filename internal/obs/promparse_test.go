package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseExpositionRoundTrip pins the parser against the writer: an
// exposition produced by PromWriter (families, labels, a histogram) parses
// into the same families and samples.
func TestParseExpositionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("demo_total", "counter", "A counter with \"quotes\" and a\nnewline.")
	p.SampleInt("demo_total", nil, 42)
	p.Family("demo_state", "gauge", "Labeled gauge.")
	p.Sample("demo_state", []Label{{Name: "graph", Value: `a"b\c`}, {Name: "proto", Value: "greedy"}}, 1.5)
	var h LatencyHist
	h.Record(3 * time.Millisecond)
	h.Record(70 * time.Millisecond)
	p.Family("demo_seconds", "histogram", "A histogram.")
	h.WriteHistogramSamples(p, "demo_seconds", nil)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["demo_total"]; f == nil || f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Fatalf("demo_total parsed as %+v", f)
	}
	if !strings.Contains(byName["demo_total"].Help, `"quotes"`) {
		t.Fatalf("escaped help not unescaped: %q", byName["demo_total"].Help)
	}
	f := byName["demo_state"]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("demo_state parsed as %+v", f)
	}
	s := f.Samples[0]
	if len(s.Labels) != 2 || s.Labels[0].Value != `a"b\c` || s.Labels[1].Value != "greedy" {
		t.Fatalf("labels parsed as %+v", s.Labels)
	}
	hf := byName["demo_seconds"]
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("histogram family %+v", hf)
	}
	var count, sum bool
	for _, s := range hf.Samples {
		switch s.Name {
		case "demo_seconds_count":
			count = s.Value == 2
		case "demo_seconds_sum":
			sum = s.Value > 0.07 && s.Value < 0.08
		}
	}
	if !count || !sum {
		t.Fatalf("histogram _count/_sum not attached to base family: count=%v sum=%v", count, sum)
	}
}

// TestParseExpositionPermissive pins scraper tolerance: unknown comments,
// timestamps, blank lines and undeclared samples all parse.
func TestParseExpositionPermissive(t *testing.T) {
	in := `# some random comment
up 1 1700000000000

# TYPE go_goroutines gauge
go_goroutines 12 1700000000000
escaped{name="a\nb\\c\"d"} +Inf
`
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["up"]; f == nil || f.Type != "untyped" || f.Samples[0].Value != 1 {
		t.Fatalf("undeclared sample parsed as %+v", f)
	}
	if f := byName["go_goroutines"]; f == nil || f.Samples[0].Value != 12 {
		t.Fatalf("timestamped sample parsed as %+v", f)
	}
	esc := byName["escaped"]
	if esc == nil || esc.Samples[0].Labels[0].Value != "a\nb\\c\"d" {
		t.Fatalf("escaped label parsed as %+v", esc)
	}
}

// FuzzParseExposition pins federation's composability on arbitrary input:
// whatever ParseExposition accepts survives MergeExpositions and parses
// again to the same families, each sample keeping its name, its labels
// behind one leading instance label, and its raw value. Label values are the
// sharp edge: graph names reach breaker labels unvalidated from /admin/swap.
func FuzzParseExposition(f *testing.F) {
	f.Add(goldenEngineExposition)
	f.Add("# some comment\nup 1 1700000000000\n# TYPE g gauge\ng{name=\"a\\nb\\\\c\\\"d\"} +Inf\n")
	f.Add("0{0=\"\xff\"} 0\n")
	f.Add("m{graph=\"a\tb\",protocol=\"greedy\"} 1\n")
	f.Add("m{ =\"x\"} 1\n") // a label name that is all space trims to ""
	f.Fuzz(func(t *testing.T, in string) {
		fams, err := ParseExposition(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		MergeExpositions(NewPromWriter(&buf), []Instance{{Name: "i", Families: fams}})
		again, err := ParseExposition(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("merged exposition does not re-parse: %v\n%q", err, buf.String())
		}
		if len(again) != len(fams) {
			t.Fatalf("%d families re-parse as %d:\n%q", len(fams), len(again), buf.String())
		}
		for i, f := range fams {
			g := again[i]
			if g.Name != f.Name || g.Type != f.Type || g.Help != f.Help || len(g.Samples) != len(f.Samples) {
				t.Fatalf("family %q/%q/%q with %d samples re-parses as %q/%q/%q with %d",
					f.Name, f.Type, f.Help, len(f.Samples), g.Name, g.Type, g.Help, len(g.Samples))
			}
			for j, s := range f.Samples {
				r := g.Samples[j]
				want := append([]Label{{Name: "instance", Value: "i"}}, s.Labels...)
				if r.Name != s.Name || r.Raw != s.Raw || !reflect.DeepEqual(r.Labels, want) {
					t.Fatalf("sample %q %v %q re-parses as %q %v %q", s.Name, want, s.Raw, r.Name, r.Labels, r.Raw)
				}
			}
		}
	})
}

// TestMergeExpositions pins federation: instances merge into one exposition
// with a leading instance label per sample, family order is first-seen, and
// the result is itself parseable — composable federation.
func TestMergeExpositions(t *testing.T) {
	mk := func(v int64) []*PromFamily {
		var buf bytes.Buffer
		p := NewPromWriter(&buf)
		p.Family("demo_total", "counter", "A counter.")
		p.SampleInt("demo_total", []Label{{Name: "graph", Value: "default"}}, v)
		fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return fams
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	MergeExpositions(p, []Instance{
		{Name: "d1:8080", Families: mk(1)},
		{Name: "d2:8080", Families: mk(2)},
	})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged exposition does not re-parse: %v", err)
	}
	if len(fams) != 1 || fams[0].Name != "demo_total" || len(fams[0].Samples) != 2 {
		t.Fatalf("merged families %+v", fams)
	}
	for i, want := range []string{"d1:8080", "d2:8080"} {
		s := fams[0].Samples[i]
		if len(s.Labels) != 2 || s.Labels[0].Name != "instance" || s.Labels[0].Value != want {
			t.Fatalf("sample %d labels %+v, want leading instance=%s", i, s.Labels, want)
		}
		if s.Value != float64(i+1) {
			t.Fatalf("sample %d value %v", i, s.Value)
		}
	}

	// Second-level federation: merge the merged exposition again under a new
	// instance name; the sample keeps both labels.
	var buf2 bytes.Buffer
	p2 := NewPromWriter(&buf2)
	MergeExpositions(p2, []Instance{{Name: "region-a", Families: fams}})
	fams2, err := ParseExposition(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := fams2[0].Samples[0]
	if len(s.Labels) != 3 || s.Labels[0].Value != "region-a" || s.Labels[1].Value != "d1:8080" {
		t.Fatalf("re-federated labels %+v", s.Labels)
	}
}
