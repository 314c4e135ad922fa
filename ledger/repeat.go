package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// repeatRuns is the steadiness self-check (--repeat K; the driver never uses
// it): it runs K seeds of one workload, each in a fresh process as the
// driver does, and prints for every end-to-end metric the median, the
// quartiles (Python's statistics.quantiles(n=4), the driver's definition),
// the spread IQR/median and a third of the metric's bound. It exits non-zero
// when a run fails or a spread exceeds a third of its bound; setup_s is
// reported but, as in the driver, not judged on spread.
func repeatRuns(ctx context.Context, o options, k int, stdout, stderr io.Writer) int {
	if k < 2 {
		fmt.Fprintln(stderr, "ledger: --repeat needs at least 2 runs")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	values := map[string][]float64{}
	for i := 0; i < k; i++ {
		seed := o.seed + uint64(i)
		cmd := exec.CommandContext(ctx, exe,
			"--dir", o.dir, "--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "ledger: seed %d: %v\n", seed, err)
			return 1
		}
		res, err := parseResultLine(out)
		if err != nil {
			fmt.Fprintf(stderr, "ledger: seed %d: %v\n", seed, err)
			return 1
		}
		if !res.Correct || res.Failed != 0 {
			fmt.Fprintf(stderr, "ledger: seed %d: correct=%v failed=%d of %d\n", seed, res.Correct, res.Failed, res.Attempted)
			return 1
		}
		fmt.Fprintf(stderr, "seed %d: %d ops", seed, res.Attempted)
		for _, s := range endToEnd {
			v := res.Metrics[s.Name].Value
			values[s.Name] = append(values[s.Name], v)
			fmt.Fprintf(stderr, "  %s=%.4g", s.Name, v)
		}
		fmt.Fprintln(stderr)
	}

	fmt.Fprintf(stdout, "%s, %d seeds from %d, %g s each\n", o.workload, k, o.seed, o.seconds)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tIQR/median\tbound/3\t")
	steady := true
	for _, s := range endToEnd {
		q1, q2, q3 := quartiles(values[s.Name])
		spread := (q3 - q1) / q2
		verdict := "ok"
		switch {
		case s.Name == "setup_s":
			verdict = "not judged"
		case spread > s.Bound/3:
			verdict = "UNSTEADY"
			steady = false
		}
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%.4f\t%.4f\t%s\n", s.Name, s.Unit, q2, q1, q3, spread, s.Bound/3, verdict)
	}
	tw.Flush()
	if !steady {
		return 1
	}
	return 0
}

// resultLine is the wire form of a run's last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// parseResultLine decodes the last non-empty line of a run's standard
// output, rejecting any key the contract does not list.
func parseResultLine(out []byte) (resultLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
