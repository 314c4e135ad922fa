// smallworld runs the paper-reproduction experiments (DESIGN.md Section 4)
// and prints their tables. Each experiment regenerates one claim of
// "Greedy Routing and the Algorithmic Small-World Phenomenon".
//
// Examples:
//
//	smallworld -list
//	smallworld -e E4                # one experiment at full scale
//	smallworld -e all -scale 0.1    # quick pass over everything
//	smallworld -e E4 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/obs"
)

func main() {
	// Ctrl-C cancels the running experiment via the engine's context
	// support instead of waiting for the table to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "smallworld:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runCtx(context.Background(), args) }

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("smallworld", flag.ContinueOnError)
	var (
		list   = fs.Bool("list", false, "list experiments and exit")
		id     = fs.String("e", "", "experiment id (E1..E17, F1) or 'all'")
		scale  = fs.Float64("scale", 1, "workload scale (1 = full tables of EXPERIMENTS.md)")
		seed   = fs.Uint64("seed", 1, "random seed")
		format = fs.String("format", "text", "output format: text | csv | json")
		// Usage text derives from the fault-model registry, like -proto on
		// cmd/route derives from the protocol registry.
		models = fs.String("fault-models", "", "comma-separated fault models for the E16 chaos sweep (default: its built-in set); registered: "+strings.Join(faults.RegisteredSorted(), " | "))
		ckdir  = fs.String("checkpoint", "", "checkpoint directory: journal completed sweep batches there so a crashed run can -resume (checkpoint-aware experiments only)")
		resume = fs.Bool("resume", false, "resume from the journal in -checkpoint, skipping finished batches; the resumed table is bit-identical to an uninterrupted run")
		cpuOut = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memOut = fs.String("memprofile", "", "write a heap profile to this file after the sweep")
	)
	logCfg := obs.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logCfg.NewLogger(os.Stderr)
	if err != nil {
		return err
	}
	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memOut != "" {
		defer func() {
			f, err := os.Create(*memOut)
			if err != nil {
				logger.Error("memprofile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				logger.Error("memprofile", "err", err)
			}
		}()
	}
	if *resume && *ckdir == "" {
		return fmt.Errorf("-resume requires -checkpoint DIR")
	}
	var faultModels []string
	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			faultModels = append(faultModels, strings.TrimSpace(m))
		}
	}
	if *list || *id == "" {
		fmt.Println("experiments:")
		for _, e := range expt.All() {
			fmt.Printf("  %-4s %s\n       claim: %s\n", e.ID, e.Title, e.Claim)
		}
		if *id == "" && !*list {
			fmt.Println("\nrun one with: smallworld -e <id> [-scale 0.1]")
		}
		return nil
	}
	cfg := expt.Config{Seed: *seed, Scale: *scale, Ctx: ctx, FaultModels: faultModels}
	var selected []expt.Experiment
	if strings.EqualFold(*id, "all") {
		selected = expt.All()
	} else {
		e, ok := expt.ByID(*id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *id)
		}
		selected = []expt.Experiment{e}
	}
	for _, e := range selected {
		start := time.Now()
		// One journal per experiment, its manifest key bound to everything
		// that shapes the sweep's results: resuming with different
		// parameters fails loudly instead of mixing incompatible batches.
		if *ckdir != "" {
			dir := filepath.Join(*ckdir, e.ID)
			if !*resume && ckpt.Exists(dir) {
				return fmt.Errorf("%s: checkpoint journal already exists in %s; pass -resume to continue it or remove the directory", e.ID, dir)
			}
			key := fmt.Sprintf("repro-ckpt-v1 e=%s seed=%d scale=%g fault-models=%s",
				e.ID, *seed, *scale, strings.Join(faultModels, ","))
			j, err := ckpt.Open(dir, key)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			if *resume && j.Reused() > 0 {
				logger.Info("resuming from checkpoint", "experiment", e.ID, "reused_batches", j.Reused())
			}
			cfg.Checkpoint = j
		}
		table, err := e.Run(cfg)
		if cfg.Checkpoint != nil {
			if cerr := cfg.Checkpoint.Close(); cerr != nil && err == nil {
				err = cerr
			}
			cfg.Checkpoint = nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch *format {
		case "text":
			fmt.Printf("claim: %s\n", e.Claim)
			fmt.Print(table.Format())
			fmt.Printf("(%s in %v, seed %d, scale %g)\n\n", e.ID, time.Since(start).Round(time.Millisecond), *seed, *scale)
		case "csv":
			out, err := table.FormatCSV()
			if err != nil {
				return err
			}
			fmt.Print(out)
		case "json":
			out, err := table.FormatJSON()
			if err != nil {
				return err
			}
			fmt.Print(out)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}
	return nil
}
