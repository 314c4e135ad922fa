// girgen generates instances of the network models (GIRG, hyperbolic random
// graph, Kleinberg lattice, Kleinberg continuum) and writes them as
// attributed graph files (text or checksummed binary) or bare edge lists,
// optionally printing structural statistics. Output files are written via a
// temp file and an atomic rename, so a crash mid-write never leaves a
// truncated snapshot under the target name.
//
// Examples:
//
//	girgen -model girg -n 100000 -beta 2.5 -alpha 2 -out g.girg -stats
//	girgen -model girg -n 100000 -format girgb -out g.girgb
//	girgen -model hrg -n 20000 -alphaH 0.75 -T 0.5 -format edges -out g.tsv
//	girgen -model kgrid -L 256 -q 1 -r 2 -stats
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"

	"repro/internal/atomicio"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/hrg"
	"repro/internal/kleinberg"
	"repro/internal/obs"
	"repro/internal/xrand"
)

func main() {
	// Ctrl-C during a large generation aborts with a partial-progress
	// message instead of leaving the user to kill -9 a silent process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "girgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runCtx(context.Background(), args) }

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("girgen", flag.ContinueOnError)
	var (
		model  = fs.String("model", "girg", "model: girg | hrg | kgrid | kcont")
		out    = fs.String("out", "", "output file (default stdout)")
		format = fs.String("format", "girg", "output format: girg (attributed text) | girgb (checksummed binary) | edges (bare edge list) | none")
		stats  = fs.Bool("stats", false, "print structural statistics to stderr")
		seed   = fs.Uint64("seed", 1, "random seed")

		// GIRG flags.
		n       = fs.Float64("n", 10000, "girg/hrg/kcont: (expected) vertex count")
		dim     = fs.Int("dim", 2, "girg: torus dimension")
		beta    = fs.Float64("beta", 2.5, "girg: weight power-law exponent")
		alpha   = fs.Float64("alpha", 2, "girg: decay parameter (<= 0 means threshold model)")
		wmin    = fs.Float64("wmin", 1, "girg: minimum weight")
		lambda  = fs.Float64("lambda", 1, "girg: kernel prefactor")
		poisson = fs.Bool("poisson", false, "girg: Poisson(n) vertices instead of exactly n")

		// HRG flags.
		alphaH = fs.Float64("alphaH", 0.75, "hrg: radial density parameter")
		ch     = fs.Float64("C", 1, "hrg: disk radius shift R = 2 ln n + C")
		temp   = fs.Float64("T", 0, "hrg: temperature (0 = threshold)")

		// Kleinberg flags.
		side  = fs.Int("L", 128, "kgrid: grid side length")
		q     = fs.Int("q", 1, "kgrid/kcont: long-range edges per node")
		r     = fs.Float64("r", 2, "kgrid: long-range decay exponent")
		decay = fs.Float64("decay", 1, "kcont: alpha of the dist^(-2 alpha) law")
	)
	logCfg := obs.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logCfg.NewLogger(os.Stderr)
	if err != nil {
		return err
	}

	// Generation runs in its own goroutine so SIGINT can abort a large
	// instance mid-build; the samplers themselves are not context-aware, so
	// an abandoned generation finishes in the background while the process
	// exits with a partial-progress message.
	type genResult struct {
		g   *graph.Graph
		err error
	}
	done := make(chan genResult, 1)
	go func() {
		var (
			g   *graph.Graph
			err error
		)
		switch *model {
		case "girg":
			p := girg.Params{
				N: *n, Dim: *dim, Beta: *beta, Alpha: *alpha,
				WMin: *wmin, Lambda: *lambda, FixedN: !*poisson,
			}
			if *alpha <= 0 {
				p.Alpha = math.Inf(1)
			}
			g, err = girg.Generate(p, *seed, girg.Options{})
		case "hrg":
			p := hrg.Params{N: int(*n), AlphaH: *alphaH, CH: *ch, TH: *temp}
			gen := hrg.Generate
			if p.N > 30000 {
				gen = hrg.GenerateFast // same distribution, near-linear time
			}
			g, err = gen(p, *seed)
		case "kgrid":
			var gr *kleinberg.Grid
			gr, err = kleinberg.GenerateGrid(kleinberg.GridParams{L: *side, Q: *q, R: *r}, *seed)
			if err == nil {
				g = gr.Graph()
			}
		case "kcont":
			g, err = kleinberg.GenerateContinuum(kleinberg.ContinuumParams{
				N: int(*n), Q: *q, AlphaDecay: *decay,
			}, *seed)
		default:
			err = fmt.Errorf("unknown model %q", *model)
		}
		done <- genResult{g, err}
	}()
	var g *graph.Graph
	select {
	case r := <-done:
		if r.err != nil {
			return r.err
		}
		g = r.g
	case <-ctx.Done():
		return fmt.Errorf("interrupted while generating %s instance (n=%g, seed=%d): no output written", *model, *n, *seed)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted after generating %s instance: no output written", *model)
	}
	logger.Debug("generated", "model", *model, "n", g.N(), "m", g.M(), "seed", *seed,
		"fingerprint", fmt.Sprintf("%016x", g.Fingerprint()))

	if *stats {
		s := graph.Summarize(g, 2000, xrand.New(*seed+1))
		fmt.Fprintf(os.Stderr, "n=%d m=%d avg_deg=%.2f max_deg=%d isolated=%d components=%d giant=%.1f%% clustering=%.3f\n",
			s.N, s.M, s.AvgDegree, s.MaxDegree, s.Isolated, s.Components, 100*s.GiantFraction, s.Clustering)
		if fit := graph.PowerLawExponentFit(g, 50); !math.IsNaN(fit) {
			fmt.Fprintf(os.Stderr, "degree power-law exponent (k >= 50): %.2f\n", fit)
		}
	}

	var write func(w io.Writer) error
	switch *format {
	case "girg":
		write = func(w io.Writer) error { return graphio.Write(w, g) }
	case "girgb":
		write = func(w io.Writer) error { return graphio.WriteBinary(w, g) }
	case "edges":
		write = func(w io.Writer) error { return graphio.WriteEdgeList(w, g) }
	case "none":
		return nil
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if *out == "" {
		return write(os.Stdout)
	}
	// Atomic replace: a crash (or a failing disk) mid-write leaves any
	// existing file untouched instead of half a snapshot under its name.
	if err := atomicio.WriteFile(*out, write); err != nil {
		return err
	}
	if *stats {
		logger.Info("wrote snapshot", "path", *out, "format", *format,
			"fingerprint", fmt.Sprintf("%016x", g.Fingerprint()))
	}
	return nil
}
