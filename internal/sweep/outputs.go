package sweep

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/tracing"
)

// OutputConfig names what a driver's flags ask of its runtime: the
// exit-time files, the run store and the metrics listener. An empty
// field starts nothing.
type OutputConfig struct {
	Trace, Report, CPUProfile, MemProfile string
	// Process names the tracer's process in the timeline; empty means
	// the driver's name.
	Process string
	// Store is the -store run-store directory.
	Store string
	// Metrics is the -metrics address serving GET /metrics for the
	// run's duration.
	Metrics string
	// Pprof mounts net/http/pprof under /debug/pprof/: on the Metrics
	// listener, or on a driver's own through Handler.
	Pprof bool
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

// Outputs is the runtime every driver shares. It owns the process's
// metrics registry (runtime gauges on it), a structured logger on
// stderr, the run store behind -store, the -metrics listener, the
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
	// Registry is the process's one metrics registry.
	Registry *metrics.Registry
	// Logger writes structured records to the driver's stderr.
	Logger *slog.Logger
	// Local is the run store opened from -store, nil without one.
	Local *runstore.Store
	// Store is the persistent tier Attach hands a runner: Local, or
	// what the driver assigns before Attach (cmd/sweep's -remote store
	// plane). Nil attaches none.
	Store experiments.ResultStore

	driver string
	cfg    OutputConfig
	cpu    *os.File
	ln     net.Listener
	stderr io.Writer
}

// StartOutputs opens the store, starts the CPU profile, creates the
// tracer and collector and serves the metrics listener that cfg
// requests; driver prefixes the stderr lines ("sweep: trace: ...").
// The caller must Close the result.
func StartOutputs(driver string, cfg OutputConfig, stderr io.Writer) (*Outputs, error) {
	o := &Outputs{
		Registry: metrics.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(stderr, nil)),
		driver:   driver, cfg: cfg, stderr: stderr,
	}
	metrics.RegisterRuntime(o.Registry)
	if cfg.Store != "" {
		st, err := runstore.Open(cfg.Store)
		if err != nil {
			return nil, err
		}
		st.SetLogger(o.Logger)
		st.RegisterMetrics(o.Registry)
		o.Local, o.Store = st, st
	}
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
	if cfg.Metrics != "" {
		ln, err := net.Listen("tcp", cfg.Metrics)
		if err != nil {
			return nil, errors.Join(err, o.Close())
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", o.Registry.Handler())
		go http.Serve(ln, o.Handler(mux))
		o.ln = ln
		fmt.Fprintf(stderr, "%s: serving metrics on http://%s/metrics\n", driver, ln.Addr())
	}
	return o, nil
}

// Attach gives r the runtime's store, registry, tracer and collector.
func (o *Outputs) Attach(r *experiments.Runner) {
	if o.Store != nil {
		r.SetStore(o.Store)
	}
	r.SetMetrics(o.Registry)
	r.SetTracer(o.Tracer)
	r.SetReporter(o.Reporter)
}

// Handler returns h, with net/http/pprof mounted under /debug/pprof/
// in front of it when the config asks for -pprof.
func (o *Outputs) Handler(h http.Handler) http.Handler {
	if !o.cfg.Pprof {
		return h
	}
	mux := http.NewServeMux()
	metrics.RegisterPprof(mux)
	mux.Handle("/", h)
	return mux
}

// Close shuts the metrics listener, stops the CPU profile and writes
// every requested file, noting each on stderr. It returns the write
// failures joined.
func (o *Outputs) Close() error {
	if o.ln != nil {
		o.ln.Close()
	}
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

// UsageError marks a command-line parse error. The flag package has
// already printed it above the usage listing, so ExitCode maps it to
// status 2 without printing it again.
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// ParseFlags parses a driver's args into fs, wrapping a failure in
// *UsageError.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return &UsageError{Err: err}
	}
	return nil
}

// Main runs a driver's run function as the process: over os.Args,
// stdout and stderr, cancelled by an interrupt, exiting with ExitCode.
func Main(driver string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(ExitCode(driver, err, os.Stderr))
}

// ExitCode maps a driver's run error to its process exit status,
// printing the error on stderr: 0 for success and -h, 2 for a flag
// parse error (already printed by the flag package), 130 with
// "<driver>: interrupted" for a cancelled run, 1 otherwise. The error
// is printed behind "<driver>: " unless it already starts with it (the
// internal package named like the driver prefixes its own errors).
func ExitCode(driver string, err error, stderr io.Writer) int {
	var usage *UsageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &usage):
		return 2
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, driver+": interrupted")
		return 130
	default:
		msg := err.Error()
		if !strings.HasPrefix(msg, driver+": ") {
			msg = driver + ": " + msg
		}
		fmt.Fprintln(stderr, msg)
		return 1
	}
}
