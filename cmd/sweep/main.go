// Command sweep explores the shared-I-cache design space for a set of
// benchmarks and emits one CSV row per (benchmark, design point):
// normalised execution time, worker MPKI, access ratio, bus wait, and
// the area/energy ratios from the power model. The output is meant for
// plotting or spreadsheet analysis.
//
// The whole sweep is declared as one batch plan and fanned out across
// -par goroutines (default: all cores); rows stream to stdout as their
// design points complete, and Ctrl-C aborts the remaining points
// cleanly.
//
// With -store DIR, results persist in an on-disk run store: a repeated
// sweep re-simulates nothing, and several processes (or hosts sharing
// a filesystem) can split one sweep with -shard:
//
//	sweep -store /tmp/rs -shard 1/4 &   # each shard simulates its
//	...                                 # quarter of the design space
//	sweep -store /tmp/rs -shard 4/4 &
//	wait
//	sweep -store /tmp/rs -merge > sweep.csv
//
// -merge renders the CSV purely from the store (zero simulations) and
// fails if any shard has not finished, so the merged output is
// byte-identical to an unsharded run. -storeop index lists the store's
// entries; -storeop gc sweeps corrupt or stale ones.
//
// -backend analytical swaps the cycle-level simulator for the
// Hill & Marty + first-order-cache estimator: the same design space
// resolves orders of magnitude faster at triage fidelity, the CSV
// gains a backend column, and the run store keeps the two backends'
// entries strictly apart.
//
// -refine automates the triage-then-refine flow end to end (see
// docs/REFINE.md): a calibration pass runs a small golden slice of the
// space on both backends and fits per-metric corrections (free on a
// warm -store, whose hits supply the golden results), the full space
// then runs analytically with the corrections applied, a frontier
// selector (-refine-top K, -refine-pareto, -refine-band lo:hi) picks
// the points worth full fidelity, and those re-run on the detailed
// backend — one merged CSV, with phase and backend columns:
//
//	sweep -bench UA,FT -refine -refine-top 8 -store /tmp/rs > refined.csv
//
// With -remote URL the persistent tier is a campaignd coordinator's
// store plane instead of a local directory — no shared filesystem
// needed — and -worker turns this process into a lease-based campaign
// worker: it fetches the campaign from the coordinator, simulates
// leased batches on the backends this binary registers, and publishes
// results back, so the sweep's own design-space flags are ignored. A
// worker exits once a one-shot coordinator's campaign is done; on a
// `campaignd -serve` coordinator it runs until interrupted:
//
//	sweep -remote http://coordinator:8417 -worker
//
// Usage:
//
//	sweep -bench UA,FT -cpc 2,4,8 -size 16,32 -lb 4 -buses 1,2 > sweep.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/refine"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
)

// cliFlags is cmd/sweep's full flag set; registerFlags declares it so
// the usage golden test can pin the -h output run parses.
type cliFlags struct {
	sf *sweep.Flags
	rf *refine.Flags

	out                    sweep.OutputConfig
	remote, shard, storeop string
	par                    int
	worker, submit, merge  bool
}

// registerFlags declares every cmd/sweep flag on fs. The design-space
// and campaign flags are shared with cmd/campaignd (internal/sweep,
// internal/refine), so the two drivers cannot drift apart.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{sf: sweep.RegisterFlags(fs), rf: refine.RegisterFlags(fs)}
	fs.IntVar(&f.par, "par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	fs.StringVar(&f.out.Store, "store", "", "persistent run-store directory (second cache tier)")
	fs.StringVar(&f.remote, "remote", "", "campaignd coordinator URL serving the run store (replaces -store)")
	fs.BoolVar(&f.worker, "worker", false, "with -remote: lease and simulate the coordinator's campaign instead of this sweep")
	fs.BoolVar(&f.submit, "submit", false, "with -remote: enqueue this sweep on a serving coordinator (campaignd -serve), wait, and print its merged CSV")
	fs.StringVar(&f.shard, "shard", "", "simulate only shard i/N of the design space into -store; no CSV")
	fs.BoolVar(&f.merge, "merge", false, "render the CSV from the store without simulating")
	fs.StringVar(&f.storeop, "storeop", "", "run-store maintenance: 'index' or 'gc', then exit")
	fs.StringVar(&f.out.Metrics, "metrics", "", "serve Prometheus text metrics at this address (GET /metrics) for the run's duration")
	fs.BoolVar(&f.out.Pprof, "pprof", false, "with -metrics: also serve net/http/pprof under /debug/pprof/ on the metrics address")
	f.out.RegisterFlags(fs)
	return f
}

func main() { sweep.Main("sweep", run) }

// run is the whole driver: it parses args, runs the mode the flags
// select, and writes the CSV to stdout and the accounting to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cf := registerFlags(fs)
	if err := sweep.ParseFlags(fs, args); err != nil {
		return err
	}
	sf := cf.sf

	local := cf.shard != "" || cf.merge || cf.storeop != ""
	switch {
	case cf.out.Store != "" && cf.remote != "":
		return errors.New("-store and -remote are mutually exclusive")
	case cf.out.Pprof && cf.out.Metrics == "":
		return errors.New("-pprof requires -metrics (it mounts on the metrics listener)")
	case cf.submit && cf.remote == "":
		return errors.New("-submit requires -remote URL (a campaignd -serve coordinator)")
	case cf.submit && (cf.worker || local || cf.rf.Enabled()):
		return errors.New("-submit drives a remote campaign; it does not compose with -worker, -shard, -merge, -storeop or -refine")
	case cf.worker && cf.remote == "":
		return errors.New("-worker requires -remote URL")
	case cf.worker && local:
		return errors.New("-worker runs the coordinator's campaign; it does not compose with -shard, -merge or -storeop")
	case cf.shard != "" && cf.merge:
		return errors.New("-shard and -merge are mutually exclusive")
	}
	if cf.rf.Enabled() {
		// Refine is a whole campaign shape of its own; the flags that
		// reinterpret a plain sweep do not compose with it.
		switch {
		case cf.remote != "" || cf.worker:
			return errors.New("-refine runs locally (use campaignd -refine to lease the frontier to workers)")
		case cf.shard != "" || cf.merge:
			return errors.New("-refine plans its own mixed campaign; -shard/-merge do not apply")
		case cf.storeop != "":
			return errors.New("-refine and -storeop are mutually exclusive")
		}
	}

	// The runtime: the -store run store, one metrics registry for the
	// whole process (runner cache tiers, store, worker lease counters,
	// runtime gauges), served by -metrics while the run lasts, and the
	// exit-time files. -cpuprofile/-memprofile: whole-run pprof captures
	// for offline analysis (docs/PERFORMANCE.md has the recipe). -trace:
	// a span timeline of the whole run as Chrome trace-event JSON.
	// -report: a per-point microarchitectural report for every executed
	// or store-replayed design point, plus the campaign summary.
	out, err := sweep.StartOutputs("sweep", cf.out, stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.Close()) }()

	// -submit: drive a serving coordinator's campaign API — this process
	// simulates nothing; the service and its workers do.
	switch {
	case cf.submit:
		return runSubmit(ctx, cf, stdout, stderr)
	case cf.worker:
		// Worker mode: the campaign (benchmarks, axes, budgets) is the
		// coordinator's; every design-space flag of this process is
		// ignored so keys cannot disagree. A -report collector is the
		// worker's own file; a reporting coordinator builds its reports
		// from the results this worker stores.
		w := campaignd.Worker{
			URL: cf.remote, Parallelism: cf.par, Logger: out.Logger,
			Metrics: out.Registry, Tracer: out.Tracer, Reports: out.Reporter,
		}
		// A serving coordinator's worker runs until interrupted; it
		// still reports its share before exiting 130.
		rep, err := w.Run(ctx)
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		fmt.Fprintf(stderr, "sweep: worker done: %d points over %d leases (%d lost), %d simulated, %d store hits\n",
			rep.Points, rep.Leases, rep.LostLeases, rep.Simulations, rep.Store.Hits)
		return err
	}

	opts, err := sf.Options()
	if err != nil {
		return err
	}
	opts.Parallelism = cf.par
	runner, err := experiments.NewRunner(opts)
	if err != nil {
		return err
	}
	// The persistent tier is either a local directory or a coordinator's
	// store plane; the runner is oblivious to which.
	storeName := cf.out.Store
	if cf.remote != "" {
		rs, err := campaignd.NewRemoteStore(ctx, cf.remote)
		if err != nil {
			return err
		}
		out.Store, storeName = rs, rs.URL()
	}
	out.Attach(runner)
	if cf.storeop != "" {
		if out.Local == nil {
			return errors.New("-storeop requires -store")
		}
		return storeop(out.Local, cf.storeop, stdout, stderr)
	}

	// Declare the whole campaign up front, in CSV emission order: per
	// benchmark one private baseline plus every valid shared point, or
	// with -refine the auto-refine mixed plan (calibration and triage
	// run here; the frontier's detailed points stream below).
	c, err := cf.rf.Campaign(ctx, sf, runner, stderr)
	if err != nil {
		return err
	}
	plan, rows := c.Plan, c.Rows

	// Shard mode: simulate this shard's slice of the plan into the
	// shared store and exit — -merge renders the CSV once all shards
	// are done.
	if cf.shard != "" {
		if out.Store == nil {
			return errors.New("-shard requires -store or -remote (shards share work through it)")
		}
		sh, err := experiments.ParseShard(cf.shard)
		if err != nil {
			return err
		}
		sub, err := plan.Shard(sh)
		if err != nil {
			return err
		}
		if _, err := sub.RunAll(ctx); err != nil {
			return err
		}
		st := out.Store.Stats()
		fmt.Fprintf(stderr, "sweep: shard %s: %d of %d points, %d simulated, %d store hits\n",
			sh, sub.Len(), plan.Len(), runner.Simulations(), st.Hits)
		return nil
	}

	csvw := c.Shape.NewCSV(stdout, sf.Workers)
	if err := csvw.Header(); err != nil {
		return err
	}

	if cf.merge {
		// Merge: resolve every point from the store, simulating nothing.
		// With identical flags the row loop below is the one the
		// unsharded sweep runs, so the merged CSV is byte-identical.
		if out.Store == nil {
			return errors.New("-merge requires -store or -remote")
		}
		results := make([]*core.Result, plan.Len())
		for i, pt := range plan.Points() {
			res, ok := runner.Lookup(pt)
			if !ok {
				return fmt.Errorf("store %s is missing %s on %s/cpc=%d (run the remaining shards first)",
					storeName, pt.Bench, pt.Cfg.Organization, pt.Cfg.CPC)
			}
			results[i] = res
		}
		for _, m := range rows {
			if err := csvw.Row(m, results[m.BaseIdx], results[m.PointIdx]); err != nil {
				return err
			}
		}
		if err := csvw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "sweep: merge: %d rows from %d stored points, 0 simulated\n",
			len(rows), plan.Len())
		return nil
	}

	// Normal run: stream rows as their points complete (EmitStream
	// renders a row as soon as its point — and, by plan order, its
	// baseline — has streamed past).
	if err := csvw.EmitStream(plan.RunAllStream(ctx), rows, plan.Len()); err != nil {
		return err
	}
	if ref := c.Refine; ref != nil {
		// The accounting line TestRefineColdWarm pins: every detailed
		// simulation of the whole campaign must be attributable to
		// calibration or frontier.
		by := runner.BackendRuns()
		fmt.Fprintf(stderr, "sweep: refine: %d detailed simulations (calibration %d + frontier %d), %d analytical\n",
			by["detailed"], ref.GoldenDetailedSims, by["detailed"]-ref.GoldenDetailedSims, by["analytical"])
	}
	if out.Store != nil {
		st := out.Store.Stats()
		fmt.Fprintf(stderr, "sweep: %d simulated, %d store hits, %d store writes\n",
			runner.Simulations(), st.Hits, st.Writes)
	}
	if sf.Backend != "" {
		// Per-backend accounting: the analytical triage smoke test pins
		// "detailed 0" — a fast sweep that silently fell back to
		// cycle-level simulation would be a lie, not a speedup.
		by := runner.BackendRuns()
		fmt.Fprintf(stderr, "sweep: backend %s: %d simulated (detailed %d)\n",
			sf.Backend, runner.Simulations(), by["detailed"])
	}
	return nil
}

// storeop runs -storeop against a local store: 'index' lists every
// trustworthy entry on stdout, 'gc' sweeps corrupt entries and
// orphaned temp files.
func storeop(st *runstore.Store, op string, stdout, stderr io.Writer) error {
	switch op {
	case "index":
		entries, err := st.Index()
		if err != nil {
			return err
		}
		for _, e := range entries {
			fmt.Fprintln(stdout, e)
		}
		fmt.Fprintf(stderr, "sweep: %d entries in %s\n", len(entries), st.Dir())
	case "gc":
		removed, err := st.GC()
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "sweep: gc removed %d files from %s\n", removed, st.Dir())
	default:
		return fmt.Errorf("unknown -storeop %q (index, gc)", op)
	}
	return nil
}

// runSubmit enqueues this process's design space as a closed campaign
// on a serving coordinator, polls it until the service (and its
// workers) complete it, and prints the merged CSV. The rows and the
// coordinator's plan are laid out by the same sweep.Expand the local
// sweep's Space.Build runs, and the coordinator renders them through the same CSV emitter,
// so the fetched bytes are identical to the single-process run's.
func runSubmit(ctx context.Context, cf *cliFlags, stdout, stderr io.Writer) error {
	client, err := campaignd.NewClient(cf.remote)
	if err != nil {
		return err
	}
	rows, err := cf.sf.Rows()
	if err != nil {
		return err
	}
	spec := campaignd.CampaignSpec{Name: "sweep-submit", Backend: cf.sf.Backend}
	for _, m := range rows {
		spec.Rows = append(spec.Rows, campaignd.PointSpec{
			Bench: m.Bench, CPC: m.CPC, KB: m.KB, LB: m.LB, Bus: m.Bus,
		})
	}
	reply, err := client.Enqueue(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sweep: submitted campaign %d: %d rows, %d plan points\n",
		reply.ID, len(spec.Rows), reply.Points)
	var st campaignd.CampaignStatus
	for {
		if st, err = client.CampaignStatus(ctx, reply.ID); err != nil {
			return err
		}
		if st.Complete {
			break
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	body, err := client.CampaignCSV(ctx, reply.ID)
	if err != nil {
		return err
	}
	if _, err := stdout.Write(body); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sweep: campaign %d complete: %d points done, 0 simulated locally\n",
		reply.ID, st.Points)
	return nil
}
