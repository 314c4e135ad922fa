package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must list exactly the workloads and metrics the program
// prints, inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "bash ledger/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "ledger" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, the program has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the program prints %d", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		name(m.Name)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program's is %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range doc.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}

	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the program prints %d (limit 128)", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer[%d] = %+v, the program's is %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// The result line carries exactly the contract's keys and every metric of
// the mode, and a metric that was not measured is an error, not a gap.
func TestResultLineShape(t *testing.T) {
	for _, traced := range []bool{false, true} {
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		r := result{correct: true, attempted: 12, values: map[string]float64{}}
		for i, s := range specs {
			r.values[s.Name] = 1.5 + float64(i)/7
		}
		line, err := r.encode(traced)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(line, "\n") {
			t.Error("result spans more than one line")
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Errorf("result keys = %v, want exactly correct, attempted, failed, metrics", keys)
		}
		got, err := parseResultLine([]byte("build noise\n" + line + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted != 12 || got.Failed != 0 || len(got.Metrics) != len(specs) {
			t.Errorf("decoded %+v", got)
		}
		for i, s := range specs {
			if m := got.Metrics[s.Name]; m.Unit != s.Unit || m.Value != 1.5+float64(i)/7 {
				t.Errorf("%s = %+v", s.Name, m)
			}
		}

		r.values[specs[0].Name] = math.NaN()
		if _, err := r.encode(traced); err == nil {
			t.Error("a NaN metric was encoded")
		}
		delete(r.values, specs[0].Name)
		if _, err := r.encode(traced); err == nil {
			t.Error("a missing metric was encoded")
		}
		r.values[specs[0].Name] = 1
		r.values["stray"] = 1
		if _, err := r.encode(traced); err == nil {
			t.Error("a metric outside the contract was encoded")
		}
	}
}
