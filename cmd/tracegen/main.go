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
	"strconv"

	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
	"sharedicache/internal/tracing"
)

// cliFlags is cmd/tracegen's full flag set; registerFlags declares it
// so the usage golden test can pin the -h output run parses.
type cliFlags struct {
	// sf holds the workload flags under this driver's own defaults and
	// help text.
	sf     sweep.Flags
	out    sweep.OutputConfig
	dir    string
	verify bool
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
	return f
}

func main() { sweep.Main("tracegen", run) }

// run is the whole driver: it parses args and writes the per-thread
// trace files, listing each on stdout.
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
