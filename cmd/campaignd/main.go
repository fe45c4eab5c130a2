// Command campaignd coordinates distributed design-space campaigns: it
// serves the run store over HTTP, leases batches of design points to
// remote workers with TTL-based work stealing, and merges each
// campaign's results in plan order as they arrive.
//
// Plain campaignd enqueues one campaign built from its flags, streams
// that campaign's merged CSV to stdout — byte-identical to the CSV a
// single-process `sweep` with the same flags would produce — and exits
// when it completes:
//
//	campaignd -addr :8417 -store /tmp/rs -bench UA,FT -cpc 2,4,8 > sweep.csv
//
// Workers, on any machine that can reach it (no shared filesystem):
//
//	sweep -remote http://coordinator:8417 -worker
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
// one — then enqueues the resulting mixed plan, so workers lease
// exactly the expensive part: the frontier's detailed points. The
// merged CSV carries the phase and backend columns and is
// byte-identical to a single-process `sweep -refine` with the same
// flags. See docs/REFINE.md.
//
// With -serve, the same server enqueues no campaign from its flags:
// campaigns arrive over POST /v1/campaign (`sweep -remote URL -submit`)
// until the process is interrupted, and its workers keep
// polling for the next one until they are interrupted too. A plain
// coordinator seals after enqueueing its one campaign, so its workers
// exit once that campaign is done.
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
	"io"
	"net"
	"net/http"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/experiments"
	"sharedicache/internal/refine"
	"sharedicache/internal/sweep"
)

// cliFlags is cmd/campaignd's full flag set; registerFlags declares
// it so the usage golden test can pin the -h output run parses.
type cliFlags struct {
	sf *sweep.Flags
	rf *refine.Flags

	out        sweep.OutputConfig
	addr       string
	ttl, grace time.Duration
	batch      int
	serve      bool
}

// registerFlags declares every cmd/campaignd flag on fs. The
// design-space and campaign flags are shared with cmd/sweep
// (internal/sweep, internal/refine), so the two drivers cannot drift
// apart — which the byte-identical-CSV guarantee depends on.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{sf: sweep.RegisterFlags(fs), rf: refine.RegisterFlags(fs)}
	fs.StringVar(&f.addr, "addr", ":8417", "listen address for the store and dispatch planes")
	fs.StringVar(&f.out.Store, "store", "", "run-store directory backing the store plane (required)")
	fs.BoolVar(&f.serve, "serve", false, "persistent service mode: enqueue no campaign from the flags and accept campaigns over POST /v1/campaign until interrupted (design-space flags are ignored)")
	fs.DurationVar(&f.ttl, "ttl", campaignd.DefaultTTL, "lease TTL; a worker missing heartbeats this long forfeits its batch")
	fs.IntVar(&f.batch, "lease-batch", 0, "max design points per lease; 0 derives the batch from the observed mean point latency")
	fs.DurationVar(&f.grace, "grace", 2*time.Second, "keep serving this long after completion so polling workers see the campaign finish")
	fs.StringVar(&f.out.Trace, "trace", "", "write the merged Chrome trace-event JSON span timeline to this file at exit (also served at GET /v1/trace)")
	fs.StringVar(&f.out.Report, "report", "", "collect the workers' per-point simulation telemetry, serve it at GET /v1/simstatsz, and write it as JSON to this file at exit")
	fs.BoolVar(&f.out.Pprof, "pprof", false, "also serve net/http/pprof under /debug/pprof/ on -addr")
	return f
}

func main() { sweep.Main("campaignd", run) }

// run is the whole driver: it parses args, serves until the flags'
// campaign completes (or, with -serve, until ctx is cancelled), and
// writes the merged CSV to stdout and the accounting lines to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cf := registerFlags(fs)
	if err := sweep.ParseFlags(fs, args); err != nil {
		return err
	}
	switch {
	case cf.out.Store == "":
		return errors.New("-store is required (it backs the store plane)")
	case cf.serve && cf.rf.Enabled():
		return errors.New("-serve accepts campaigns over the API; drop -refine")
	}
	opts, err := cf.sf.Options()
	if err != nil {
		return err
	}
	// The runtime opens the store, builds the one registry every
	// instrument lands on (served at GET /metrics next to /v1/statsz)
	// and, before any refine prep, gives the runner both, so the
	// calibration and triage simulations are on them too. -trace
	// records a span timeline; the same buffer, merged with the spans
	// workers send, serves GET /v1/trace. -report aggregates the
	// reports the server builds from each campaign point's stored entry
	// and backs GET /v1/simstatsz; simulations the coordinator itself
	// runs (refine prep) report into the same collector. The tracer's
	// process is "coordinator", the pid the Chrome-trace exporter pins
	// first.
	cf.out.Process = "coordinator"
	out, err := sweep.StartOutputs("campaignd", cf.out, stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.Close()) }()
	runner, err := experiments.NewRunner(opts)
	if err != nil {
		return err
	}
	out.Attach(runner)
	srv, err := campaignd.New(campaignd.ServerConfig{
		Runner: runner, Store: out.Local,
		TTL: cf.ttl, Batch: cf.batch, Metrics: out.Registry, Tracer: out.Tracer,
		Reports: out.Reporter,
	})
	if err != nil {
		return err
	}

	// Enqueue the flags' campaign before listening, so the snapshot
	// below already counts what enqueueing resolved locally: the plain
	// sweep, or with -refine the mixed plan whose calibration and
	// triage ran here (the cheap phases, whose results land in the
	// store, so workers lease only the frontier's detailed points).
	// Under -serve no campaign exists yet and the server never seals;
	// workers that join keep polling for submissions until interrupted.
	var (
		id      int
		refined bool
	)
	if !cf.serve {
		c, err := cf.rf.Campaign(ctx, cf.sf, runner, stderr)
		if err != nil {
			return err
		}
		name := "campaignd"
		if refined = c.Refine != nil; refined {
			name += "-refine"
		}
		if id, err = srv.Enqueue(name, c.Plan.Points(), c.Rows, c.Shape); err != nil {
			return err
		}
		// One-shot: no campaign follows, so workers may exit once
		// this one is done.
		srv.Seal()
	}
	// Snapshot before serving: points already done (a warm store, or the
	// refine prep's local phases) and writes already booked, so the
	// completion accounting below describes only the served part.
	pre := srv.Stats()
	ln, err := net.Listen("tcp", cf.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: out.Handler(srv.Handler())}
	go httpSrv.Serve(ln)
	// Registered after out.Close, so it runs first: the exit-time files
	// are written once the listener has drained, with the worker spans
	// and PUT-built reports of the grace window merged in.
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()
	batchDesc := fmt.Sprintf("batch %d", cf.batch)
	if cf.batch == 0 {
		batchDesc = "adaptive batch"
	}
	out.Logger.Info("campaignd: serving",
		"addr", ln.Addr().String(), "points", pre.Dispatch.Points, "in_store", pre.Dispatch.Done,
		"ttl", cf.ttl, "batch", batchDesc, "pprof", cf.out.Pprof, "trace", cf.out.Trace != "", "report", cf.out.Report != "")

	if cf.serve {
		// The service runs until interrupted, then reports its whole
		// lifetime's accounting in the one-shot coordinator's grammar.
		<-ctx.Done()
		st := srv.Stats()
		fmt.Fprintf(stderr, "campaignd: service stopped: campaigns=%d points=%d writes=%d duplicates=%d expired_leases=%d\n",
			st.Dispatch.Campaigns, st.Dispatch.Points, st.Store.Writes,
			max(0, st.Store.Writes-int64(st.Dispatch.Done)), st.Dispatch.ExpiredLeases)
	} else {
		// Merge: stream the campaign's rows in plan order as workers
		// publish them.
		if err := srv.WriteCSV(ctx, stdout, id); err != nil {
			httpSrv.Close()
			return err
		}
		st := srv.Stats()
		writes := st.Store.Writes - pre.Store.Writes
		fmt.Fprintf(stderr, "campaignd: campaign complete: points=%d writes=%d duplicates=%d expired_leases=%d\n",
			st.Dispatch.Points, writes,
			max(0, writes-int64(st.Dispatch.Points-pre.Dispatch.Done)), st.Dispatch.ExpiredLeases)
		if refined {
			by := runner.BackendRuns()
			fmt.Fprintf(stderr, "campaignd: refine: coordinator ran %d detailed simulations (calibration), %d analytical (triage); workers ran the frontier\n",
				by["detailed"], by["analytical"])
		}
		// Let polling workers observe Done before the listener goes away.
		// The grace window also collects the final worker completions, so
		// the exported timeline and report are the complete merged ones.
		select {
		case <-time.After(cf.grace):
		case <-ctx.Done():
		}
	}

	return nil
}
