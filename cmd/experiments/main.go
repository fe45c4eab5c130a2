// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-fig all|fig1|...|fig13|table1] [-n instr] [-workers n]
//	            [-bench BT,CG,...] [-seed s] [-cold] [-par p] [-list]
//	            [-store DIR]
//
// Each figure prints as an aligned text table whose rows/series match
// the paper's plot. In text format, figures whose rows complete one
// benchmark at a time (Figs 7-11) print each row as soon as its design
// points complete; -format csv and json print whole tables.
// Simulations fan out across -par goroutines (default: all cores);
// Ctrl-C aborts the remaining design points cleanly. With -store DIR
// results persist across invocations in an on-disk run store, so
// regenerating a figure against a warm store simulates nothing.
// Figures that share each I-cache among 8 workers need a -workers count
// divisible by 8; any other is refused before the first figure runs.
// The paper-vs-measured record is in ROADMAP.md until its
// EXPERIMENTS.md ledger lands.
//
// The §II workload characterisation (Figures 2-4) walks synthetic
// traces without cycle simulation, over max(-n, 2M) master
// instructions per benchmark:
//
//	experiments -fig fig2,fig3,fig4 -bench FT,UA
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

// cliFlags is cmd/experiments' full flag set; registerFlags declares
// it so the usage golden test can pin the -h output run parses.
type cliFlags struct {
	fig, bench, backend, format string
	out                         sweep.OutputConfig
	n, seed                     uint64
	workers, par, chart         int
	cold, list                  bool
}

func registerFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.StringVar(&f.fig, "fig", "all", "experiment id (fig1..fig13, table1) or 'all'")
	fs.Uint64Var(&f.n, "n", 0, "master-thread instructions per benchmark (0 = default)")
	fs.IntVar(&f.workers, "workers", 0, "worker core count (0 = default 8)")
	fs.StringVar(&f.bench, "bench", "", "comma-separated benchmark subset (default: all 24)")
	fs.Uint64Var(&f.seed, "seed", 0, "workload synthesis seed (0 = default)")
	fs.BoolVar(&f.cold, "cold", false, "disable steady-state cache prewarming for timing runs")
	fs.IntVar(&f.par, "par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	fs.StringVar(&f.backend, "backend", "", "simulation backend: detailed (default) or analytical")
	fs.StringVar(&f.format, "format", "text", "output format: text, csv, json")
	fs.IntVar(&f.chart, "chart", -1, "also render column N (0-based) as an ASCII bar chart")
	fs.StringVar(&f.out.Store, "store", "", "persistent run-store directory (second cache tier)")
	fs.BoolVar(&f.list, "list", false, "list experiment ids and exit")
	f.out.RegisterFlags(fs)
	return f
}

func main() { sweep.Main("experiments", run) }

// run is the whole driver: it parses args, renders the selected
// figures to stdout and writes progress and cache accounting to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := registerFlags(fs)
	if err := sweep.ParseFlags(fs, args); err != nil {
		return err
	}
	switch f.format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (text, csv, json)", f.format)
	}

	// The runtime: the -store run store, whole-run pprof captures
	// (docs/PERFORMANCE.md has the recipe), the -trace timeline (one
	// parent span per figure, point/store spans nested under it by the
	// runner) and the -report collection (one microarchitectural report
	// per executed or store-replayed point).
	out, err := sweep.StartOutputs("experiments", f.out, stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.Close()) }()

	if f.list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	// Zero-valued flags keep the campaign defaults.
	opts := experiments.DefaultOptions()
	opts.Instructions = cmp.Or(f.n, opts.Instructions)
	opts.Workers = cmp.Or(f.workers, opts.Workers)
	opts.Seed = cmp.Or(f.seed, opts.Seed)
	opts.Prewarm = !f.cold
	opts.Parallelism = f.par
	if f.bench != "" {
		opts.Benchmarks = strings.Split(f.bench, ",")
	}
	opts.Backend = f.backend

	runner, err := experiments.NewRunner(opts)
	if err != nil {
		return err
	}
	out.Attach(runner)

	var selected []experiments.Experiment
	if f.fig == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(f.fig, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		if err := e.CheckWorkers(opts.Workers); err != nil {
			return err
		}
	}

	for _, e := range selected {
		start := time.Now()
		// Each figure is one parent span; the runner's point spans nest
		// under it through ectx. No-ops when -trace is off.
		ectx, span := out.Tracer.Start(ctx, "experiment", tracing.A("id", e.ID))
		// Text output renders incrementally: a figure that emits rows
		// prints each one the moment its design points complete, under
		// a title line printed at the first row. A figure that emits
		// nothing prints its batch table once it finishes.
		var emit experiments.RowEmit
		streamed := false
		if f.format == "text" {
			emit = func(label string, cells ...string) {
				if !streamed {
					fmt.Fprintf(stdout, "%s: %s\n", e.ID, e.Title)
					streamed = true
				}
				fmt.Fprintf(stdout, "%-12s", label)
				for _, c := range cells {
					fmt.Fprintf(stdout, "  %14s", c)
				}
				fmt.Fprintln(stdout)
			}
		}
		res, err := e.Run(ectx, runner, emit)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		tbl := res.Table()
		switch {
		case streamed:
			fmt.Fprintln(stdout)
		case f.format == "text":
			fmt.Fprintln(stdout, tbl.String())
		case f.format == "csv":
			fmt.Fprint(stdout, tbl.CSV())
			fmt.Fprintln(stdout)
		case f.format == "json":
			raw, err := tbl.JSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(raw))
		}
		if f.chart >= 0 {
			fmt.Fprintln(stdout, tbl.Bars(f.chart, 50, 1.0))
		}
		fmt.Fprintf(stderr, "[%s done in %v, %d cached runs]\n\n",
			e.ID, time.Since(start).Round(time.Millisecond), runner.CachedRuns())
	}

	// Final cache accounting: how much work the campaign actually did
	// versus resolved from the in-memory and persistent tiers.
	if f.backend != "" {
		by := runner.BackendRuns()
		fmt.Fprintf(stderr, "backend %s: %d simulated (detailed %d)\n",
			f.backend, runner.Simulations(), by["detailed"])
	}
	if out.Local != nil {
		s := out.Local.Stats()
		fmt.Fprintf(stderr, "cache: %d simulated, %d store hits, %d store misses, %d store writes\n",
			runner.Simulations(), s.Hits, s.Misses, s.Writes)
	} else {
		fmt.Fprintf(stderr, "cache: %d simulated, %d distinct points in memory\n",
			runner.Simulations(), runner.CachedRuns())
	}
	return nil
}
