// figures renders the reproduction's figures as standalone SVG files. Each
// one plots the run its experiment's table reports (internal/expt), so with
// the default -scale 1 -seed 1 the points are the numbers in EXPERIMENTS.md:
//
//	fig_f1_trajectory.svg  — F1, Figure 1: weight and objective along one greedy path
//	fig_e4_hops.svg        — E4, Theorem 3.3: mean hops vs log log n per beta
//	fig_e2_failure.svg     — E2, Theorem 3.2(i): failure decay in wmin (log scale)
//	fig_e12_failures.svg   — E12, robustness: delivery vs per-hop edge failure rate
//
// Usage: figures [-out figures/] [-scale 1] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"repro/internal/expt"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runCtx(context.Background(), args) }

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		out   = fs.String("out", "figures", "output directory")
		scale = fs.Float64("scale", 1, "workload scale")
		seed  = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, f := range []struct{ id, file string }{
		{"F1", "fig_f1_trajectory.svg"},
		{"E4", "fig_e4_hops.svg"},
		{"E2", "fig_e2_failure.svg"},
		{"E12", "fig_e12_failures.svg"},
	} {
		e, ok := expt.ByID(f.id)
		if !ok {
			return fmt.Errorf("%s: experiment %s is not registered", f.file, f.id)
		}
		t, err := e.Run(expt.Config{Seed: *seed, Scale: *scale, Ctx: ctx})
		if err != nil {
			return fmt.Errorf("%s: %w", f.file, err)
		}
		if t.Figure == nil {
			return fmt.Errorf("%s: %s returned no figure", f.file, f.id)
		}
		svg, err := t.Figure.SVG()
		if err != nil {
			return fmt.Errorf("%s: %w", f.file, err)
		}
		path := filepath.Join(*out, f.file)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}
