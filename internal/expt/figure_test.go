package expt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/plot"
	"repro/internal/stats"
)

// TestFiguresPlotTheirTables checks that a figure draws the run its table
// reports: every plotted point, formatted the way its row formats it, is the
// number the row prints, and every fit line is the one the table's note
// states.
func TestFiguresPlotTheirTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four experiments")
	}
	checks := map[string]func(t *testing.T, tb Table){
		"F1":  checkTrajectoryFigure,
		"E4":  checkHopsFigure,
		"E2":  checkFailureFigure,
		"E12": checkRobustnessFigure,
	}
	for id, check := range checks {
		id, check := id, check
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, _ := ByID(id)
			tb, err := e.Run(Config{Seed: 1, Scale: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			if tb.Figure == nil {
				t.Fatalf("%s carries no figure", id)
			}
			if _, err := tb.Figure.SVG(); err != nil {
				t.Fatal(err)
			}
			check(t, tb)
		})
	}
}

// firstField is a proportion cell's point estimate: "0.812 [0.75, 0.86]" →
// "0.812".
func firstField(cell string) string { return strings.Fields(cell)[0] }

func wantCell(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: figure has %s, table prints %s", what, got, want)
	}
}

func wantNote(t *testing.T, tb Table, note string) {
	t.Helper()
	for _, n := range tb.Notes {
		if strings.Contains(n, note) {
			return
		}
	}
	t.Errorf("no note states %q: %q", note, tb.Notes)
}

func checkTrajectoryFigure(t *testing.T, tb Table) {
	if len(tb.Figure.Series) != 2 {
		t.Fatalf("%d series, want weight and objective", len(tb.Figure.Series))
	}
	w, phi := tb.Figure.Series[0], tb.Figure.Series[1]
	if len(w.X) != len(tb.Rows) || len(phi.X) != len(tb.Rows) {
		t.Fatalf("%d/%d points for %d rows", len(w.X), len(phi.X), len(tb.Rows))
	}
	last := len(tb.Rows) - 1
	for i, row := range tb.Rows {
		what := fmt.Sprintf("hop %d", i)
		wantCell(t, what, fmtInt(int(w.X[i])), row[0])
		wantCell(t, what, fmtInt(int(phi.X[i])), row[0])
		wantCell(t, what+" weight", fmtF2(w.Y[i]), row[1])
		if i < last {
			wantCell(t, what+" objective", fmtScientific(phi.Y[i]), row[2])
		}
	}
	// The target's +Inf is drawn a decade above its predecessor.
	wantCell(t, "target objective", "inf", tb.Rows[last][2])
	if phi.Y[last] != 10*phi.Y[last-1] {
		t.Errorf("target plotted at %g, want 10 x %g", phi.Y[last], phi.Y[last-1])
	}
}

func checkHopsFigure(t *testing.T, tb Table) {
	betas := len(tb.Figure.Series) / 2
	if betas == 0 || len(tb.Figure.Series) != 2*betas || len(tb.Rows)%betas != 0 {
		t.Fatalf("%d series for %d rows", len(tb.Figure.Series), len(tb.Rows))
	}
	perBeta := len(tb.Rows) / betas
	for b := 0; b < betas; b++ {
		meas, line := tb.Figure.Series[2*b], tb.Figure.Series[2*b+1]
		rows := tb.Rows[b*perBeta : (b+1)*perBeta]
		if len(meas.X) != len(rows) {
			t.Fatalf("beta %d: %d points for %d rows", b, len(meas.X), len(rows))
		}
		for i, row := range rows {
			what := fmt.Sprintf("beta %s n %s", row[0], row[1])
			wantCell(t, what+" lnln n", fmtF2(meas.X[i]), row[2])
			wantCell(t, what+" mean hops", fmtF2(meas.Y[i]), row[3])
		}
		fit := stats.FitLine(meas.X, meas.Y)
		checkFitLine(t, line, meas.X[0], meas.X[len(meas.X)-1], func(x float64) float64 {
			return fit.Intercept + fit.Slope*x
		})
		wantNote(t, tb, fmt.Sprintf("beta=%s: hops ~ %.2f * lnln n + %.2f", rows[0][0], fit.Slope, fit.Intercept))
	}
}

func checkFailureFigure(t *testing.T, tb Table) {
	meas := tb.Figure.Series[0]
	var rows [][]string // the rows with a failure, the ones a log axis can show
	for _, row := range tb.Rows {
		if row[3] != "inf" {
			rows = append(rows, row)
		}
	}
	if len(meas.X) != len(rows) {
		t.Fatalf("%d points for %d rows with failures", len(meas.X), len(rows))
	}
	for i, row := range rows {
		wantCell(t, "wmin", fmtF2(meas.X[i]), row[0])
		wantCell(t, "wmin "+row[0]+" failure", fmtF(meas.Y[i]), firstField(row[2]))
	}
	if len(meas.X) < 3 {
		if len(tb.Figure.Series) != 1 {
			t.Errorf("fit line drawn through %d points", len(meas.X))
		}
		return
	}
	if len(tb.Figure.Series) != 2 {
		t.Fatalf("%d series, want measured and fit", len(tb.Figure.Series))
	}
	rate, pre, _ := stats.FitExpDecay(meas.X, meas.Y)
	checkFitLine(t, tb.Figure.Series[1], meas.X[0], meas.X[len(meas.X)-1], func(x float64) float64 {
		return pre * math.Exp(-rate*x)
	})
	wantNote(t, tb, fmt.Sprintf("failure ~ %.2f * exp(-%.2f * wmin)", pre, rate))
}

func checkRobustnessFigure(t *testing.T, tb Table) {
	if len(tb.Figure.Series) != 1 {
		t.Fatalf("%d series, want one", len(tb.Figure.Series))
	}
	s := tb.Figure.Series[0]
	if len(s.X) != len(tb.Rows) {
		t.Fatalf("%d points for %d rows", len(s.X), len(tb.Rows))
	}
	for i, row := range tb.Rows {
		wantCell(t, "fail prob", fmtF2(s.X[i]), row[0])
		wantCell(t, "fail prob "+row[0]+" success", fmtF(s.Y[i]), firstField(row[1]))
	}
}

// checkFitLine checks that a dashed series spans [lo, hi] and lies on f.
func checkFitLine(t *testing.T, line plot.Series, lo, hi float64, f func(x float64) float64) {
	t.Helper()
	if !line.Dashed || len(line.X) < 2 || line.X[0] != lo || line.X[len(line.X)-1] != hi {
		t.Fatalf("fit line %q does not span the measured points [%g, %g]: %v", line.Name, lo, hi, line.X)
	}
	for i, x := range line.X {
		if line.Y[i] != f(x) {
			t.Errorf("fit line %q at x=%g is %g, want %g", line.Name, x, line.Y[i], f(x))
		}
	}
}
