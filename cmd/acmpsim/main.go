// Command acmpsim runs one benchmark on one ACMP configuration and
// prints a full result report: execution time, per-section IPC, worker
// MPKI, access ratio, CPI stack, bus and DRAM statistics.
//
// Usage:
//
//	acmpsim -bench FT -org worker-shared -cpc 8 -icache 16 -lb 4 -buses 2
//
// Traces are synthesised in-process by default and run through the
// experiments engine (so Ctrl-C aborts cleanly); pass -traces DIR to
// replay binary trace files produced by cmd/tracegen instead (the
// paper's Fig 6 flow: trace once, simulate many configurations).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
	"sharedicache/internal/tracing"
)

// cliFlags is cmd/acmpsim's full flag set; registerFlags declares it
// so the usage golden test can pin the -h output run parses.
type cliFlags struct {
	// sf holds the workload and campaign flags (-bench, -n, -workers,
	// -seed, -cold, -backend) under this driver's defaults and help.
	sf                     sweep.Flags
	out                    sweep.OutputConfig
	org, traces            string
	cpc, icache, lb, buses int
	list                   bool
}

func registerFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.StringVar(&f.sf.Bench, "bench", "FT", "benchmark name (see -listbench)")
	fs.StringVar(&f.org, "org", "private", "I-cache organization: private, worker-shared, all-shared")
	fs.IntVar(&f.cpc, "cpc", 8, "worker cores per shared I-cache (worker-shared only)")
	fs.IntVar(&f.icache, "icache", 32, "I-cache size in KB")
	fs.IntVar(&f.lb, "lb", 4, "line buffers per core")
	fs.IntVar(&f.buses, "buses", 1, "buses per shared I-cache (1 or 2)")
	fs.IntVar(&f.sf.Workers, "workers", 8, "worker core count")
	fs.Uint64Var(&f.sf.N, "n", 200_000, "master-thread instruction budget")
	fs.Uint64Var(&f.sf.Seed, "seed", 1, "workload synthesis seed")
	fs.BoolVar(&f.sf.Cold, "cold", false, "start with cold caches instead of steady state")
	fs.StringVar(&f.traces, "traces", "", "directory of <bench>.tNN.trace files from cmd/tracegen (replaces synthesis)")
	fs.StringVar(&f.out.Store, "store", "", "persistent run-store directory (synthesised runs only)")
	fs.StringVar(&f.sf.Backend, "backend", "", "simulation backend: detailed (default) or analytical (synthesised runs only)")
	f.out.RegisterTraceFlag(fs)
	fs.BoolVar(&f.list, "listbench", false, "list benchmark names and exit")
	return f
}

func main() { sweep.Main("acmpsim", run) }

// run is the whole driver: it parses args, simulates the one point and
// prints its report to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("acmpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := registerFlags(fs)
	if err := sweep.ParseFlags(fs, args); err != nil {
		return err
	}

	if f.traces != "" {
		switch {
		case f.sf.Backend != "":
			return errors.New("-backend applies to synthesised runs only; trace replay is always cycle-level")
		case f.out.Store != "":
			return errors.New("-store applies to synthesised runs only; trace replay bypasses the run store")
		}
	}

	// -trace: spans come from the experiments engine on the synthesised
	// path, or a single replay span on the trace-replay path.
	out, err := sweep.StartOutputs("acmpsim", f.out, stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.Close()) }()

	if f.list {
		for _, p := range synth.Profiles() {
			fmt.Fprintf(stdout, "%-10s %-8s serial=%.1f%% BBser=%dB BBpar=%dB\n",
				p.Name, p.Suite, 100*p.SerialFrac, p.SerialBB, p.ParallelBB)
		}
		return nil
	}

	p, ok := synth.ProfileByName(f.sf.Bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (try -listbench)", f.sf.Bench)
	}

	var cfg core.Config
	switch f.org {
	case "private":
		cfg = core.PrivateConfig(f.sf.Workers)
		cfg.ICache.SizeBytes, cfg.LineBuffers, cfg.Buses = f.icache<<10, f.lb, f.buses
	case "worker-shared":
		cfg = core.WorkerSharedConfig(f.sf.Workers, f.cpc, f.icache, f.lb, f.buses)
	case "all-shared":
		cfg = core.AllSharedConfig(f.sf.Workers, f.icache, f.lb, f.buses)
	default:
		return fmt.Errorf("unknown organization %q", f.org)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	if f.traces == "" {
		// The synthesised path is a one-point campaign through the
		// experiments engine: the Runner synthesises the workload,
		// prewarms and simulates, and ctx aborts cleanly on Ctrl-C.
		opts, err := f.sf.Options()
		if err != nil {
			return err
		}
		runner, err := experiments.NewRunner(opts)
		if err != nil {
			return err
		}
		out.Attach(runner)
		results, err := runner.RunAll(ctx, experiments.Point{Bench: f.sf.Bench, Cfg: cfg})
		if err != nil {
			return err
		}
		report(stdout, results[0])
		return nil
	}

	w, err := synth.New(p, synth.Config{Workers: f.sf.Workers, MasterInstructions: f.sf.N, Seed: f.sf.Seed})
	if err != nil {
		return err
	}
	srcs := make([]trace.Source, w.NumThreads())
	ic := make([][]uint64, w.NumThreads())
	l2 := make([][]uint64, w.NumThreads())
	for i := range srcs {
		path := filepath.Join(f.traces, fmt.Sprintf("%s.t%02d.trace", f.sf.Bench, i))
		tf, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("trace replay: %w (generate with cmd/tracegen)", err)
		}
		defer tf.Close()
		srcs[i] = trace.NewReader(bufio.NewReaderSize(tf, 1<<20))
		ic[i] = w.WarmLines(i, cfg.ICache.LineBytes)
		l2[i] = w.L2WarmLines(i, cfg.Mem.L2.LineBytes)
	}
	sim, err := core.New(cfg, srcs)
	if err != nil {
		return err
	}
	if !f.sf.Cold {
		sim.Prewarm(ic, l2)
	}
	_, span := out.Tracer.Start(ctx, "replay",
		tracing.A("bench", f.sf.Bench), tracing.A("org", f.org))
	res, err := sim.Run()
	span.End()
	if err != nil {
		return err
	}
	report(stdout, res)
	return nil
}

func report(w io.Writer, r *core.Result) {
	fmt.Fprintf(w, "benchmark run: %s I-cache, %d workers\n",
		r.Config.Organization, r.Config.Workers)
	fmt.Fprintf(w, "  cycles              %d\n", r.Cycles)
	fmt.Fprintf(w, "  instructions        %d (master %d, workers %d)\n",
		r.TotalInstructions(), r.Cores[0].Instructions, r.WorkerInstructions())
	fmt.Fprintf(w, "  worker MPKI         %.4f\n", r.WorkerMPKI())
	fmt.Fprintf(w, "  master MPKI         %.4f\n", r.MasterICache.MPKI(r.Cores[0].Instructions))
	fmt.Fprintf(w, "  access ratio        %.1f%%\n", 100*r.WorkerAccessRatio())
	fmt.Fprintf(w, "  merged fills        %d\n", r.MergedFills)
	fmt.Fprintf(w, "  bus: submitted=%d granted=%d avg wait=%.2f cyc\n",
		r.Bus.Submitted, r.Bus.Granted, r.Bus.AvgWait())
	fmt.Fprintf(w, "  DRAM: accesses=%d row hits=%d conflicts=%d\n",
		r.DRAM.Accesses, r.DRAM.RowHits, r.DRAM.RowConflicts)
	fmt.Fprintf(w, "  runtime: regions=%d barriers=%d acquires=%d contended=%d\n",
		r.Runtime.Regions, r.Runtime.Barriers, r.Runtime.Acquires, r.Runtime.Contended)

	stack := r.WorkerStack()
	total := float64(stack.Total())
	fmt.Fprintf(w, "  worker CPI stack:\n")
	pct := func(v uint64) float64 { return 100 * float64(v) / total }
	fmt.Fprintf(w, "    busy        %6.2f%%\n", pct(stack.Busy))
	fmt.Fprintf(w, "    branch      %6.2f%%\n", pct(stack.Branch))
	fmt.Fprintf(w, "    bus queue   %6.2f%%\n", pct(stack.BusQueue))
	fmt.Fprintf(w, "    bus latency %6.2f%%\n", pct(stack.BusLatency))
	fmt.Fprintf(w, "    cache hit   %6.2f%%\n", pct(stack.CacheHit))
	fmt.Fprintf(w, "    cache miss  %6.2f%%\n", pct(stack.CacheMiss))
	fmt.Fprintf(w, "    sync        %6.2f%%\n", pct(stack.Sync))
	fmt.Fprintf(w, "    drain       %6.2f%%\n", pct(stack.Drain))

	fmt.Fprintf(w, "  per-core:\n")
	for i, c := range r.Cores {
		role := "worker"
		if i == 0 {
			role = "master"
		}
		cyc := c.SerialCycles + c.ParallelCycles
		ipc := 0.0
		if cyc > 0 {
			ipc = float64(c.Instructions) / float64(cyc)
		}
		fmt.Fprintf(w, "    core %d (%s): instr=%d ipc=%.3f serial=%d par=%d mispredicts=%d\n",
			i, role, c.Instructions, ipc, c.SerialInstructions, c.ParallelInstructions,
			c.FE.Mispredicts)
	}
}
