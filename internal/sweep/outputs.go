package sweep

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"sharedicache/internal/simreport"
	"sharedicache/internal/tracing"
)

// OutputConfig names the exit-time files a driver's flags asked for.
// An empty path starts nothing.
type OutputConfig struct {
	Trace, Report, CPUProfile, MemProfile string
	// Process names the tracer's process in the timeline; empty means
	// the driver's name.
	Process string
}

// RegisterTraceFlag declares -trace on fs.
func (c *OutputConfig) RegisterTraceFlag(fs *flag.FlagSet) {
	fs.StringVar(&c.Trace, "trace", "", "write a Chrome trace-event JSON span timeline to this file at exit (load in Perfetto)")
}

// RegisterFlags declares -trace, -report, -cpuprofile and -memprofile
// on fs, as the local campaign drivers (cmd/sweep, cmd/experiments)
// document them.
func (c *OutputConfig) RegisterFlags(fs *flag.FlagSet) {
	c.RegisterTraceFlag(fs)
	fs.StringVar(&c.Report, "report", "", "write per-point simulation telemetry (stall stacks, cache/bus stats, host cost) as JSON to this file at exit")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
}

// Outputs is the exit-time output lifecycle every driver shares: the
// span tracer behind -trace, the simulation-report collector behind
// -report, and the whole-run -cpuprofile/-memprofile captures.
// StartOutputs starts only what the config asks for; one deferred
// Close writes every requested file on success, on error and on
// interrupt alike, so an aborted run still leaves a loadable profile,
// timeline and report behind.
type Outputs struct {
	// Tracer and Reporter are nil unless -trace / -report asked for
	// them; both are nil-safe, so drivers pass them on unconditionally.
	Tracer   *tracing.Tracer
	Reporter *simreport.Collector

	driver string
	cfg    OutputConfig
	cpu    *os.File
	stderr io.Writer
}

// StartOutputs starts the CPU profile and creates the tracer and
// collector that cfg requests; driver prefixes the stderr lines
// ("sweep: trace: ..."). The caller must Close the result.
func StartOutputs(driver string, cfg OutputConfig, stderr io.Writer) (*Outputs, error) {
	o := &Outputs{driver: driver, cfg: cfg, stderr: stderr}
	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		o.cpu = f
	}
	if cfg.Trace != "" {
		o.Tracer = tracing.New(tracing.Config{Process: cmp.Or(cfg.Process, driver)})
	}
	if cfg.Report != "" {
		o.Reporter = simreport.NewCollector()
	}
	return o, nil
}

// Close stops the CPU profile and writes every requested file, noting
// each on stderr. It returns the write failures joined.
func (o *Outputs) Close() error {
	var errs []error
	done := func(what string, err error, format string, args ...any) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", what, err))
			return
		}
		fmt.Fprintf(o.stderr, o.driver+": "+format+"\n", args...)
	}
	if o.cpu != nil {
		pprof.StopCPUProfile()
		done("cpuprofile", o.cpu.Close(), "cpu profile written to %s", o.cfg.CPUProfile)
	}
	if o.Tracer != nil {
		n, err := tracing.WriteFile(o.cfg.Trace, o.Tracer)
		done("trace", err, "trace: %d spans written to %s", n, o.cfg.Trace)
	}
	if o.Reporter != nil {
		n, err := simreport.WriteFile(o.cfg.Report, o.Reporter)
		done("report", err, "report: %d reports written to %s", n, o.cfg.Report)
	}
	if o.cfg.MemProfile != "" {
		done("memprofile", writeHeapProfile(o.cfg.MemProfile), "heap profile written to %s", o.cfg.MemProfile)
	}
	return errors.Join(errs...)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle live-heap accounting before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ExitCode maps a driver's run error to its process exit status,
// printing the error on stderr: 0 for success and -h, 130 with
// "<driver>: interrupted" for a cancelled run, 1 otherwise.
func ExitCode(driver string, err error, stderr io.Writer) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, driver+": interrupted")
		return 130
	default:
		fmt.Fprintln(stderr, driver+":", err)
		return 1
	}
}
