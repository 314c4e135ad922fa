// Package expt defines one registered experiment per table/figure of the
// reproduction (DESIGN.md Section 4): the workload, the parameter sweep, any
// baselines, and a text table matching what the paper's claims predict.
// F1, E2, E4 and E12 also draw their figure from the same run. Experiments
// are run by cmd/smallworld, drawn by cmd/figures and wrapped by the
// root-level benchmarks.
package expt

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/plot"
)

// Config controls the cost of an experiment run.
type Config struct {
	// Seed drives all randomness of the run.
	Seed uint64
	// Scale multiplies workload sizes: 1 reproduces the full table (the
	// numbers recorded in EXPERIMENTS.md); small values like 0.05 give
	// smoke-test versions for tests and quick benchmarks.
	Scale float64
	// Ctx, when non-nil, cancels the run: experiments thread it through
	// the batch routing engine (core.RunMilgramCtx), so Ctrl-C on
	// cmd/smallworld aborts within a few episodes instead of finishing the
	// table. A nil Ctx means context.Background().
	Ctx context.Context
	// FaultModels restricts which registered fault models the chaos sweep
	// (E16) exercises; empty means the experiment's default set. Names are
	// validated against the faults registry when the sweep builds its plans,
	// so an unknown name fails with the registered list.
	FaultModels []string
}

// Context returns the run's context, defaulting to context.Background().
func (c Config) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// scaled returns max(lo, round(base*Scale)).
func (c Config) scaled(base, lo int) int {
	v := int(float64(base)*c.Scale + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

// scaledN scales a graph size with a floor of 300 vertices.
func (c Config) scaledN(base int) int { return c.scaled(base, 300) }

// Table is the formatted outcome of an experiment.
type Table struct {
	// ID is the experiment id (E1..E16, F1).
	ID string
	// Title restates what the table shows.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the formatted data cells.
	Rows [][]string
	// Notes carry derived findings (fit constants, verdicts).
	Notes []string
	// Metrics exposes headline numbers for benchmarks (name -> value).
	Metrics map[string]float64
	// Figure, when non-nil, plots the values the rows print (cmd/figures
	// renders it). Format, FormatCSV and FormatJSON leave it out.
	Figure *plot.Plot
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// SetMetric records a headline number.
func (t *Table) SetMetric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[name] = v
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment couples an id with its runner.
type Experiment struct {
	// ID is the experiment identifier (E1..E16, F1).
	ID string
	// Title is a one-line description.
	Title string
	// Claim is the paper statement the experiment reproduces.
	Claim string
	// Run executes the experiment.
	Run func(cfg Config) (Table, error)
}

var registry = map[string]Experiment{}

// register adds an experiment to the registry; it panics on duplicate ids
// (a programming error caught at test time).
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("expt: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns the experiments sorted by id (E1..E16 then F1).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

// lessID orders E2 before E10 (numeric suffix) and E* before F*.
func lessID(a, b string) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	var na, nb int
	fmt.Sscanf(a[1:], "%d", &na)
	fmt.Sscanf(b[1:], "%d", &nb)
	return na < nb
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[strings.ToUpper(id)]
	return e, ok
}

// sparseLambda is the kernel prefactor the routing experiments use for
// GIRGs: it brings average degrees down to ~10 (like the networks the
// experimental literature routes on) while keeping condition (EP3)
// (saturation at c1 = lambda^{1/alpha}). The dense lambda = 1 kernel makes
// every routing question trivially easy.
const sparseLambda = 0.02

// formatters shared by the experiment files.

func fmtF(v float64) string   { return fmt.Sprintf("%.3f", v) }
func fmtF2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func fmtInt(v int) string     { return fmt.Sprintf("%d", v) }
func fmtProp(p, lo, hi float64) string {
	return fmt.Sprintf("%.3f [%.3f, %.3f]", p, lo, hi)
}
