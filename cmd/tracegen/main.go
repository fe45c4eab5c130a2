// Command tracegen synthesises per-thread trace files for one
// benchmark and writes them in the library's binary trace format (one
// file per thread, master first), mirroring the paper's step 1: the
// PinTool producing a trace file per thread.
//
// Usage:
//
//	tracegen -bench FT -n 1000000 -workers 8 -out /tmp/traces
//
// The produced files round-trip through trace.Reader and can be fed to
// the simulator via cmd/acmpsim-style drivers or the library API.
//
// With -arrivals MODE the command instead synthesises a campaign
// arrival trace: the design space the axis flags describe is expanded
// in sweep order and scheduled onto the mode's RPS curve, and the
// resulting (arrival offset, design point, backend) rows are written
// as CSV to stdout for `sweep -replay` to submit open-loop against a
// serving campaignd coordinator:
//
//	tracegen -arrivals burst -bench UA,FT -start-rps 50 -burst-factor 4 > trace.csv
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"time"

	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
	"sharedicache/internal/tracing"
)

// cliFlags is cmd/tracegen's full flag set; registerFlags declares it
// so the usage golden test can pin the -h output run parses.
type cliFlags struct {
	// sf holds the workload flags and, with -arrivals, the design-space
	// axes, under this driver's own defaults and help text.
	sf                           sweep.Flags
	out                          sweep.OutputConfig
	dir, arrivals                string
	verify                       bool
	startRPS, targetRPS, stepRPS float64
	burstFactor                  float64
	burstEvery                   int
	slot                         time.Duration
}

func registerFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.StringVar(&f.sf.Bench, "bench", "FT", "benchmark name")
	fs.Uint64Var(&f.sf.N, "n", 1_000_000, "master-thread instruction budget")
	fs.IntVar(&f.sf.Workers, "workers", 8, "worker core count")
	fs.Uint64Var(&f.sf.Seed, "seed", 1, "synthesis seed")
	fs.StringVar(&f.dir, "out", ".", "output directory")
	fs.BoolVar(&f.verify, "verify", true, "read files back and compare record counts")
	f.out.RegisterTraceFlag(fs)

	// Arrival-trace mode: the design-space axes mirror cmd/sweep's
	// flags so a replayed campaign expands to the same rows a local
	// sweep would, and the load-shape flags mirror the invitro
	// generator's knobs.
	fs.StringVar(&f.arrivals, "arrivals", "", "synthesise a campaign arrival trace instead of instruction traces: steady, sweep or burst (CSV on stdout)")
	fs.StringVar(&f.sf.CPCs, "cpc", "2,4,8", "with -arrivals: sharing degrees to sweep")
	fs.StringVar(&f.sf.Sizes, "size", "16,32", "with -arrivals: shared I-cache sizes in KB")
	fs.StringVar(&f.sf.LineBuffers, "lb", "4", "with -arrivals: line-buffer counts")
	fs.StringVar(&f.sf.Buses, "buses", "1,2", "with -arrivals: bus counts")
	fs.StringVar(&f.sf.Backend, "backend", "", "with -arrivals: simulation backend stamped on every row (empty keeps the service default)")
	fs.Float64Var(&f.startRPS, "start-rps", 10, "with -arrivals: slot-0 request rate")
	fs.Float64Var(&f.targetRPS, "target-rps", 100, "with -arrivals sweep: rate ceiling")
	fs.Float64Var(&f.stepRPS, "step-rps", 10, "with -arrivals sweep: per-slot rate increment")
	fs.Float64Var(&f.burstFactor, "burst-factor", 4, "with -arrivals burst: burst-slot amplification")
	fs.IntVar(&f.burstEvery, "burst-every", 3, "with -arrivals burst: every n-th slot bursts")
	fs.DurationVar(&f.slot, "slot", time.Second, "with -arrivals: slot duration")
	return f
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(sweep.ExitCode("tracegen", err, os.Stderr))
}

// run is the whole driver: it parses args and writes either the
// per-thread trace files (listing each on stdout) or, with -arrivals,
// the arrival-trace CSV to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := registerFlags(fs)
	if err := sweep.ParseFlags(fs, args); err != nil {
		return err
	}

	// -trace: a root span over the whole generation with one child span
	// per thread file, written as Chrome trace-event JSON at exit.
	out, err := sweep.StartOutputs("tracegen", f.out, stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.Close()) }()

	if f.arrivals != "" {
		return runArrivals(f, stdout, stderr)
	}

	p, ok := synth.ProfileByName(f.sf.Bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", f.sf.Bench)
	}
	w, err := synth.New(p, synth.Config{Workers: f.sf.Workers, MasterInstructions: f.sf.N, Seed: f.sf.Seed})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}

	ctx, root := out.Tracer.Start(ctx, "generate",
		tracing.A("bench", f.sf.Bench),
		tracing.AInt("threads", w.NumThreads()))
	defer root.End()

	for t := 0; t < w.NumThreads(); t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		path := filepath.Join(f.dir, fmt.Sprintf("%s.t%02d.trace", f.sf.Bench, t))
		_, span := out.Tracer.Start(ctx, "thread", tracing.AInt("thread", t))
		count, instr, err := writeThread(path, w.Source(t))
		if err == nil && f.verify {
			err = verifyThread(path, count)
		}
		if err != nil {
			span.End()
			return err
		}
		span.SetAttr("records", strconv.FormatUint(count, 10))
		span.SetAttr("instructions", strconv.FormatUint(instr, 10))
		span.End()
		fmt.Fprintf(stdout, "%s: %d records, %d instructions\n", path, count, instr)
	}
	return nil
}

// runArrivals expands the design space exactly as cmd/sweep does
// (sweep.Space.Build over the same flag semantics), schedules the
// resulting rows onto the requested RPS curve and writes the arrival
// trace CSV to stdout. Rows carry the raw -backend flag value — not
// the resolved backend name — so a replayed campaign adds the CSV
// backend column under exactly the rule `sweep -backend` follows.
func runArrivals(f *cliFlags, stdout, stderr io.Writer) error {
	mode, err := synth.ParseArrivalMode(f.arrivals)
	if err != nil {
		return err
	}
	rows, err := f.sf.Rows()
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("design space expands to zero valid rows")
	}
	points := make([]synth.ArrivalPoint, len(rows))
	for i, r := range rows {
		points[i] = synth.ArrivalPoint{
			Bench: r.Bench, CPC: r.CPC, KB: r.KB, LB: r.LB, Bus: r.Bus,
			Backend: f.sf.Backend,
		}
	}
	spec := synth.ArrivalSpec{
		Mode: mode, StartRPS: f.startRPS, TargetRPS: f.targetRPS,
		StepRPS: f.stepRPS, BurstFactor: f.burstFactor,
		BurstEvery: f.burstEvery, Slot: f.slot,
	}
	arr, err := synth.SynthesizeArrivals(spec, points)
	if err != nil {
		return err
	}
	if err := synth.WriteArrivals(stdout, arr); err != nil {
		return err
	}
	last := arr[len(arr)-1].Offset
	fmt.Fprintf(stderr, "tracegen: arrivals: %d rows over %s (%s mode)\n",
		len(arr), last.Round(time.Millisecond), mode)
	return nil
}

func writeThread(path string, src trace.Source) (records, instructions uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	tw := trace.NewWriter(bw)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(rec); err != nil {
			return 0, 0, err
		}
		records++
		if rec.Kind == trace.KindFetchBlock {
			instructions += uint64(rec.NumInstr)
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	return records, instructions, f.Close()
}

// verifyThread reads path back and checks it holds want records.
func verifyThread(path string, want uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	defer f.Close()
	r := trace.NewReader(bufio.NewReaderSize(f, 1<<20))
	var got uint64
	for _, ok := r.Next(); ok; _, ok = r.Next() {
		got++
	}
	switch {
	case r.Err() != nil:
		return fmt.Errorf("verify %s: %w", path, r.Err())
	case got != want:
		return fmt.Errorf("verify %s: wrote %d records, read back %d", path, want, got)
	}
	return nil
}
