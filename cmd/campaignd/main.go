// Command campaignd coordinates a distributed design-space campaign:
// it owns the sweep plan, serves the run store over HTTP, leases
// batches of design points to remote workers with TTL-based work
// stealing, and streams the merged CSV to stdout in plan order as
// results arrive — byte-identical to the CSV a single-process
// `sweep` with the same flags would produce.
//
// Coordinator (emits the merged CSV, then exits):
//
//	campaignd -addr :8417 -store /tmp/rs -bench UA,FT -cpc 2,4,8 > sweep.csv
//
// Workers, on any machine that can reach it (no shared filesystem):
//
//	sweep -remote http://coordinator:8417 -worker
//	campaignd -join http://coordinator:8417
//
// Workers fetch the campaign options from the coordinator, so store
// keys agree by construction; a worker that dies mid-batch simply
// stops heartbeating and its points are re-leased to the survivors.
// Restarting the coordinator over the same -store resumes the
// campaign: points already in the store are complete.
//
// With -refine (and the selector flags shared with cmd/sweep), the
// coordinator prepares the auto-refine campaign before serving: it
// calibrates and triages locally — the analytical phase is the cheap
// one — then serves the resulting mixed plan, so workers lease exactly
// the expensive part: the frontier's detailed points. The merged CSV
// carries the phase and backend columns and is byte-identical to a
// single-process `sweep -refine` with the same flags. See
// docs/REFINE.md.
//
// While serving, the coordinator exposes its status at /v1/statsz
// (JSON, or an HTML page for browsers) and the same counters in
// Prometheus text form at GET /metrics — store traffic, queue depth,
// lease health and per-backend campaign progress; see the metrics
// reference in docs/ARCHITECTURE.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/refine"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

func main() {
	// The design-space and campaign flags are shared with cmd/sweep
	// (internal/sweep), so the two drivers cannot drift apart — which
	// the byte-identical-CSV guarantee depends on.
	sf := sweep.RegisterFlags(flag.CommandLine)
	rf := refine.RegisterFlags(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8417", "listen address for the store and dispatch planes")
		storeDir  = flag.String("store", "", "run-store directory backing the store plane (required)")
		join      = flag.String("join", "", "run as a worker against the coordinator at this URL instead of serving")
		serve     = flag.Bool("serve", false, "persistent service mode: start with no plan and accept campaigns over POST /v1/campaign until interrupted (design-space flags are ignored)")
		ttl       = flag.Duration("ttl", campaignd.DefaultTTL, "lease TTL; a worker missing heartbeats this long forfeits its batch")
		batch     = flag.Int("lease-batch", 0, "max design points per lease; 0 derives the batch from the observed mean point latency")
		grace     = flag.Duration("grace", 2*time.Second, "keep serving this long after completion so polling workers see the campaign finish")
		par       = flag.Int("par", 0, "worker mode: max concurrent simulations (0 = GOMAXPROCS)")
		id        = flag.String("id", "", "worker mode: worker name in leases (default host-pid)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON span timeline to this file at exit (coordinator mode also serves it at GET /v1/trace)")
		reportOut = flag.String("report", "", "write per-point simulation telemetry as JSON to this file at exit (coordinator mode collects the workers' reports and serves GET /v1/simstatsz)")
		pprofOn   = flag.Bool("pprof", false, "coordinator mode: also serve net/http/pprof under /debug/pprof/ on -addr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// -trace: record a span timeline and export it as Chrome
	// trace-event JSON at exit; in coordinator mode the same buffer —
	// merged with the spans workers send — also serves GET /v1/trace.
	var tracer *tracing.Tracer
	writeTrace := func(proc string) {
		n, err := tracing.WriteFile(*traceOut, tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaignd: trace:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "campaignd: trace: %d spans written to %s (%s)\n", n, *traceOut, proc)
	}

	// -report: collect per-point simulation telemetry and write it as
	// JSON at exit. In worker mode the collector stays local (an
	// explicit collector is never sent to the coordinator); in
	// coordinator mode it aggregates the reports workers send with each
	// batch completion and backs GET /v1/simstatsz.
	var reporter *simreport.Collector
	if *reportOut != "" {
		reporter = simreport.NewCollector()
	}
	writeReport := func(proc string) {
		n, err := simreport.WriteFile(*reportOut, reporter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaignd: report:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "campaignd: report: %d reports written to %s (%s)\n", n, *reportOut, proc)
	}

	// -join: thin worker mode, identical to `sweep -remote URL -worker`.
	if *join != "" {
		if *traceOut != "" {
			tracer = tracing.New(tracing.Config{Process: "worker"})
		}
		w := campaignd.Worker{URL: *join, ID: *id, Parallelism: *par, Log: os.Stderr, Tracer: tracer, Reports: reporter}
		rep, err := w.Run(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "campaignd: worker done: %d points over %d leases (%d lost, %d forfeited), %d simulated, %d store hits\n",
			rep.Points, rep.Leases, rep.LostLeases, rep.Forfeited, rep.Simulations, rep.Store.Hits)
		if *traceOut != "" {
			writeTrace("worker")
		}
		if *reportOut != "" {
			writeReport("worker")
		}
		return
	}

	if *storeDir == "" {
		fatal(errors.New("-store is required (it backs the store plane)"))
	}
	opts, err := sf.Options()
	if err != nil {
		fatal(err)
	}
	runner, err := experiments.NewRunner(opts)
	if err != nil {
		fatal(err)
	}
	// Structured coordinator logging: slog for progress and store
	// warnings; the campaign accounting lines the smoke tests pin stay
	// plain Fprintf below.
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	store, err := runstore.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	store.SetLogger(logger)
	runner.SetStore(store)
	// One registry for the whole process, created before any refine prep
	// so the calibration and triage simulations are on it too; the server
	// serves it at GET /metrics next to /v1/statsz. Runtime gauges
	// (goroutines, heap, GC pauses) ride along.
	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	runner.SetMetrics(reg)
	if *traceOut != "" {
		tracer = tracing.New(tracing.Config{Process: "coordinator"})
		runner.SetTracer(tracer)
	}
	if reporter != nil {
		// Any simulations the coordinator itself runs (refine prep's
		// calibration and triage) report into the same collector the
		// workers send to.
		runner.SetReporter(reporter)
	}

	space, err := sf.Space()
	if err != nil {
		fatal(err)
	}

	// With -refine, the coordinator prepares the mixed campaign before
	// serving: calibration and analytical triage run locally (they are
	// the cheap phases, and the triage results land in the store, so
	// the dispatch plane marks them done at startup); what workers
	// lease is the frontier's detailed points. Without it, the plan is
	// the plain design-space sweep. With -serve, there is no initial
	// plan at all: campaigns arrive over POST /v1/campaign.
	var (
		plan *experiments.Plan
		rows []sweep.Row
		ref  *refine.Result
	)
	if *serve {
		if rf.Enabled() {
			fatal(errors.New("-serve accepts campaigns over the API; drop -refine"))
		}
	} else if rf.Enabled() {
		if sf.Backend != "" {
			fatal(errors.New("-refine assigns backends per phase; drop -backend"))
		}
		sel, err := rf.Selector()
		if err != nil {
			fatal(err)
		}
		ref, err = refine.Prepare(ctx, refine.Config{
			Space: space, Runner: runner, Store: store,
			Selector: sel, GoldenMax: rf.Golden, Log: os.Stderr,
			Tracer: tracer,
		})
		if err != nil {
			fatal(err)
		}
		plan, rows = ref.Plan, ref.Rows
	} else {
		plan, rows = space.Build(runner)
	}

	var points []experiments.Point
	if plan != nil {
		points = plan.Points()
	}
	srv, err := campaignd.New(campaignd.ServerConfig{
		Runner: runner, Store: store, Points: points,
		TTL: *ttl, Batch: *batch, Metrics: reg, Tracer: tracer,
		Reports: reporter,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		metrics.RegisterPprof(mux)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Handler: handler}
	go httpSrv.Serve(ln)

	// -serve: persistent service. Campaigns are enqueued, tracked and
	// merged entirely over the API (POST /v1/campaign and friends); the
	// process runs until interrupted, then reports the whole service
	// lifetime's accounting in the same duplicates=... grammar the
	// one-shot coordinator uses, so smoke tests can pin both.
	if *serve {
		batchDesc := fmt.Sprintf("batch %d", *batch)
		if *batch == 0 {
			batchDesc = "adaptive batch"
		}
		logger.Info("campaignd: serving campaigns",
			"addr", ln.Addr().String(), "ttl", *ttl, "batch", batchDesc,
			"pprof", *pprofOn, "trace", *traceOut != "", "report", *reportOut != "")
		<-ctx.Done()
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "campaignd: service stopped: campaigns=%d points=%d writes=%d duplicates=%d expired_leases=%d\n",
			st.Dispatch.Campaigns-1, st.Dispatch.Points, st.Store.Writes,
			max64(0, st.Store.Writes-int64(st.Dispatch.Done)), st.Dispatch.ExpiredLeases)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
		if *traceOut != "" {
			writeTrace("coordinator")
		}
		if *reportOut != "" {
			writeReport("coordinator")
		}
		return
	}

	// Snapshot before serving: points already done (a warm store, or
	// the refine prep's local phases) and writes already booked, so the
	// completion accounting below describes only the served campaign.
	pre := srv.Stats().Dispatch.Done
	preWrites := srv.Stats().Store.Writes
	batchDesc := fmt.Sprintf("batch %d", *batch)
	if *batch == 0 {
		batchDesc = "adaptive batch"
	}
	logger.Info("campaignd: serving",
		"addr", ln.Addr().String(), "points", plan.Len(), "in_store", pre,
		"ttl", *ttl, "batch", batchDesc, "pprof", *pprofOn, "trace", *traceOut != "", "report", *reportOut != "")

	// Merge: stream results in plan order as workers publish them —
	// EmitStream is the same emission loop a single-process sweep runs,
	// which is what keeps the two outputs byte-identical.
	csvw := sweep.NewCSV(os.Stdout, sf.Workers)
	if sf.Backend != "" {
		// Mirror cmd/sweep: an explicit -backend adds the CSV column on
		// both drivers, preserving their byte-identity.
		csvw.IncludeBackendColumn()
	}
	if ref != nil {
		// Mirror cmd/sweep -refine: phase + backend columns, calibration
		// applied to triage rows.
		csvw.IncludePhaseColumn()
		csvw.IncludeBackendColumn()
		csvw.SetAdjust(ref.Adjust)
	}
	if err := csvw.Header(); err != nil {
		fatal(err)
	}
	if err := csvw.EmitStream(srv.Stream(ctx), rows, plan.Len()); err != nil {
		fatal(err)
	}

	st := srv.Stats()
	writes := st.Store.Writes - preWrites
	fmt.Fprintf(os.Stderr, "campaignd: campaign complete: points=%d writes=%d duplicates=%d expired_leases=%d\n",
		st.Dispatch.Points, writes,
		max64(0, writes-int64(st.Dispatch.Points-pre)), st.Dispatch.ExpiredLeases)
	if ref != nil {
		by := runner.BackendRuns()
		fmt.Fprintf(os.Stderr, "campaignd: refine: coordinator ran %d detailed simulations (calibration), %d analytical (triage); workers ran the frontier\n",
			by["detailed"], by["analytical"])
	}

	// Let polling workers observe Done before the listener goes away.
	// The grace window also collects the final worker completions, so
	// the exported timeline is the complete merged one.
	select {
	case <-time.After(*grace):
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	if *traceOut != "" {
		writeTrace("coordinator")
	}
	if *reportOut != "" {
		// Like the trace, the report writes after the grace window so the
		// final worker completions are in it.
		writeReport("coordinator")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "campaignd: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "campaignd:", err)
	os.Exit(1)
}
