package campaignd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/url"
	"os"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/tracing"
)

// Worker leases batches of design points from a coordinator, simulates
// them with a local Runner whose second cache tier is the
// coordinator's store plane, and completes the leases. Every lease
// request names the simulation backends this process registers, so the
// coordinator grants only points the worker can run faithfully.
// cmd/sweep -remote -worker runs exactly this loop.
type Worker struct {
	// URL is the coordinator base URL.
	URL string
	// ID names this worker in leases (default "host-pid").
	ID string
	// Parallelism bounds concurrent simulations (0 = all cores). It is
	// a scheduling option, excluded from the campaign fingerprint, so
	// heterogeneous workers still compute identical store keys.
	Parallelism int
	// Logger receives structured progress records (lease grants, lost
	// leases, heartbeat trouble) with consistent worker/lease fields.
	// Nil means silent.
	Logger *slog.Logger
	// Metrics receives the worker's lease-plane counters (worker_*) and
	// is attached to the worker's Runner, so its cache and simulation
	// instruments land there too. Nil books into a private registry —
	// the counters still drive WorkerReport-adjacent logging but are
	// not scraped.
	Metrics *metrics.Registry
	// Tracer records the worker's spans (batch, per-point, store I/O).
	// Nil auto-enables tracing the first time a lease grant carries a
	// trace context (i.e. the coordinator traces), and the spans travel
	// to the coordinator inside each batch's POST /v1/complete for the
	// merged timeline — distributed tracing needs no worker-side flag.
	// An explicitly supplied tracer instead belongs to the caller (the
	// drivers' -trace flag writes it to a local file): its spans stay
	// buffered here, still sharing the coordinator's trace ID via the
	// grant's trace context, so local timelines remain mergeable.
	Tracer *tracing.Tracer
	// Reports, when non-nil, collects this worker's per-point
	// simulation telemetry for the caller (the drivers' -report flag
	// writes it to a local file). Campaign-wide telemetry needs no
	// worker-side collector: every result PUT carries its execution
	// wall time, and a reporting coordinator builds the point's report
	// from the entry it stores.
	Reports *simreport.Collector

	// backends overrides the backend names lease requests carry in
	// tests (which cannot unregister a backend from the process-wide
	// registry); nil means experiments.BackendNames().
	backends []string

	// The lease plane's waits, each defaulting when zero; tests shorten
	// them. poll is the pause before leasing again when nothing
	// runnable is pending (default a fifth of the lease TTL, within
	// [10 ms, 1 s]); leaseRetry separates lease attempts;
	// handshakeDelay is the handshake's first backoff window (it
	// doubles up to a fifth of handshakeBudget, the handshake's total
	// retry time); putBackoff is the RemoteStore's publish retry step.
	poll, leaseRetry                time.Duration
	handshakeDelay, handshakeBudget time.Duration
	putBackoff                      time.Duration

	// log, id and tr are the per-Run resolved logger, worker identity
	// and tracer.
	log *slog.Logger
	id  string
	tr  *tracing.Tracer
}

// WorkerReport summarises one worker's share of a campaign.
type WorkerReport struct {
	// Points is how many design points this worker completed.
	Points int
	// Simulations is how many it actually simulated (the difference
	// was resolved from the coordinator's store).
	Simulations int
	// Leases counts granted leases; LostLeases counts batches abandoned
	// because the lease expired under us (the work was stolen).
	Leases, LostLeases int
	// Store is the remote tier's traffic as seen from this worker.
	Store runstore.Stats
}

// workerMetrics bundles the worker's lease-plane counters.
type workerMetrics struct {
	leases, lostLeases, renewFailures *metrics.Counter
}

func newWorkerMetrics(reg *metrics.Registry) *workerMetrics {
	return &workerMetrics{
		leases:        reg.Counter("worker_leases_total", "lease batches this worker started executing"),
		lostLeases:    reg.Counter("worker_lost_leases_total", "batches abandoned because the lease expired under us"),
		renewFailures: reg.Counter("worker_renew_failures_total", "heartbeat renewals that failed without a Gone verdict"),
	}
}

// Run executes the worker loop until the coordinator is sealed with
// every point complete, the context dies, or a simulation fails; on a
// serving coordinator, which never seals, that means until ctx ends.
// Joining a coordinator that is still starting up is tolerated with a
// short handshake retry.
func (w *Worker) Run(ctx context.Context) (rep WorkerReport, err error) {
	client, err := NewClient(w.URL)
	if err != nil {
		return rep, err
	}
	store, err := NewRemoteStore(ctx, w.URL)
	if err != nil {
		return rep, err
	}
	store.putBackoff = w.putBackoff
	id := w.ID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w.id = id
	w.log = w.Logger
	if w.log == nil {
		w.log = slog.New(slog.DiscardHandler)
	}
	w.tr = w.Tracer

	info, err := w.handshake(ctx, client)
	if err != nil {
		return rep, err
	}
	opts := info.Options
	opts.Parallelism = w.Parallelism
	runner, err := experiments.NewRunner(opts)
	if err != nil {
		return rep, fmt.Errorf("campaignd: coordinator served unusable options: %w", err)
	}
	runner.SetStore(store)
	reg := w.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	runner.SetMetrics(reg)
	runner.SetTracer(w.tr)
	runner.SetReporter(w.Reports)
	m := newWorkerMetrics(reg)

	ttl := time.Duration(info.TTLMillis) * time.Millisecond
	poll := orDefault(w.poll, clamp(ttl/5, 10*time.Millisecond, time.Second))
	backends := w.backends
	if backends == nil {
		backends = experiments.BackendNames()
	}
	defer func() {
		rep.Simulations = runner.Simulations()
		rep.Store = store.Stats()
	}()

	for {
		lr, err := w.lease(ctx, client, id, backends)
		if err != nil {
			return rep, err
		}
		if lr.Done {
			return rep, nil
		}
		if len(lr.Points) == 0 {
			// Nothing runnable is pending; poll again — each poll also
			// drives the coordinator's expiry sweep, which is what lets
			// us steal a crashed worker's points.
			select {
			case <-time.After(poll):
				continue
			case <-ctx.Done():
				return rep, ctx.Err()
			}
		}
		rep.Leases++
		m.leases.Inc()
		w.log.Info("worker: lease granted", "worker", id, "lease", lr.Lease, "points", len(lr.Points))

		// A grant carrying a trace context means the coordinator traces:
		// auto-enable worker tracing so its batch joins the merged
		// timeline without any worker-side flag.
		if w.tr == nil && lr.TraceContext != "" {
			w.tr = tracing.New(tracing.Config{Process: "worker-" + id})
			runner.SetTracer(w.tr)
		}

		done, lost, err := w.runBatch(ctx, client, runner, store, m, lr, ttl)
		rep.Points += done
		if err != nil {
			return rep, err
		}
		if lost {
			rep.LostLeases++
			m.lostLeases.Inc()
			w.log.Warn("worker: lease expired under us; re-leasing", "worker", id, "lease", lr.Lease)
		}
	}
}

// runBatch simulates one leased batch under a heartbeat. It reports
// how many points completed and whether the batch was abandoned
// because the lease was lost. Even an abandoned batch counts the
// points it durably published before stopping — those are done at the
// coordinator (a PUT marks its point complete) and will never be
// leased to anyone else, so dropping them would understate this
// worker's share.
func (w *Worker) runBatch(ctx context.Context, client *Client, runner *experiments.Runner, store *RemoteStore, m *workerMetrics, lr LeaseGrant, ttl time.Duration) (int, bool, error) {
	batchCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat: renew at a third of the TTL. A Gone response means the
	// coordinator already gave our points away, so stop simulating them.
	// Other failures (coordinator hiccup, partition) are counted and
	// tolerated — until they span more than the TTL since the last
	// successful renewal: by then the lease has expired at the
	// coordinator and the points are up for stealing, so simulating on
	// is the same doomed work the Gone path abandons.
	leaseLost := make(chan struct{})
	hbStopped := make(chan struct{})
	go func() {
		defer close(hbStopped)
		tick := time.NewTicker(clamp(ttl/3, 5*time.Millisecond, time.Minute))
		defer tick.Stop()
		lastOK := time.Now() // the grant itself started the TTL clock
		for {
			select {
			case <-tick.C:
				switch err := client.Renew(batchCtx, lr.Lease); {
				case err == nil:
					lastOK = time.Now()
				case errors.Is(err, ErrLeaseGone):
					close(leaseLost)
					cancel()
					return
				case batchCtx.Err() != nil:
					return
				default:
					m.renewFailures.Inc()
					w.log.Warn("worker: renew failed", "worker", w.id, "lease", lr.Lease, "error", err)
					if time.Since(lastOK) > ttl {
						w.log.Warn("worker: renewals failing for over the TTL; abandoning batch",
							"worker", w.id, "lease", lr.Lease)
						close(leaseLost)
						cancel()
						return
					}
				}
			case <-batchCtx.Done():
				return
			}
		}
	}()

	points := make([]experiments.Point, len(lr.Points))
	for i, lp := range lr.Points {
		points[i] = lp.Point
	}
	// Adopt the coordinator's lease span as the remote parent, so this
	// batch — and every point span the runner records under it — lands
	// in the coordinator's trace, not a disconnected worker-local one.
	runCtx := batchCtx
	var batchSpan *tracing.ActiveSpan
	if w.tr != nil {
		if sc, ok := tracing.ParseContext(lr.TraceContext); ok {
			runCtx = tracing.ContextWith(runCtx, sc)
		}
		runCtx, batchSpan = w.tr.Start(runCtx, "worker.batch",
			tracing.A("worker", w.id),
			tracing.A("lease", lr.Lease),
			tracing.AInt("points", len(points)))
	}
	writesBefore := store.Stats().Writes
	_, err := runner.Plan(points...).RunAll(runCtx)
	batchSpan.End()
	cancel()
	<-hbStopped

	if err != nil {
		select {
		case <-leaseLost:
			// Abandoned, not failed. The Complete still delivers the
			// batch's spans (an expired lease completes nothing). The
			// writes delta is exactly this batch's published (hence
			// completed) points: the runner is ours alone and idle
			// between batches.
			w.complete(ctx, client, lr.Lease)
			return int(store.Stats().Writes - writesBefore), true, nil
		default:
		}
		if ctx.Err() != nil {
			return 0, false, ctx.Err()
		}
		return 0, false, err
	}
	w.complete(ctx, client, lr.Lease)
	return len(points), false, nil
}

// complete sends a batch's Complete carrying the auto-enabled tracer's
// spans (a caller-supplied tracer's stay local). The spans are
// re-buffered for the next Complete only when the call got no HTTP
// response: any response means the coordinator read the body, so
// nothing is ingested twice. A failed Complete only delays the lease's
// release: the store plane already marked the points done.
func (w *Worker) complete(ctx context.Context, client *Client, lease string) {
	var spans []tracing.Span
	if w.Tracer == nil {
		spans = w.tr.Drain()
	}
	err := client.Complete(ctx, lease, spans)
	if err == nil {
		return
	}
	if errors.As(err, new(*url.Error)) {
		w.tr.Ingest(spans)
	}
	w.log.Warn("worker: complete failed (results are already published)",
		"worker", w.id, "lease", lease, "error", err)
}

// handshakeBudget bounds the total time handshake spends retrying —
// the same ~5 s the old fixed 250 ms × 20 schedule allowed.
const handshakeBudget = 5 * time.Second

// leaseRetry separates lease attempts after a failed call.
const leaseRetry = 500 * time.Millisecond

// handshake fetches the campaign info, tolerating a coordinator that
// is still binding its listener. Retries back off exponentially
// (50 ms doubling to a 1 s cap, a fifth of the budget) with full
// jitter over the current window, so a fleet of workers launched
// together neither hammers a slow coordinator nor retries in lockstep.
func (w *Worker) handshake(ctx context.Context, client *Client) (CampaignInfo, error) {
	var last error
	budget := orDefault(w.handshakeBudget, handshakeBudget)
	deadline := time.Now().Add(budget)
	for delay := orDefault(w.handshakeDelay, 50*time.Millisecond); ; {
		info, err := client.Campaign(ctx)
		if err == nil {
			return info, nil
		}
		last = err
		if ctx.Err() != nil {
			return CampaignInfo{}, ctx.Err()
		}
		if !time.Now().Before(deadline) {
			break
		}
		pause := delay/2 + time.Duration(rand.Int64N(int64(delay)))
		select {
		case <-time.After(pause):
		case <-ctx.Done():
			return CampaignInfo{}, ctx.Err()
		}
		if delay *= 2; delay > budget/5 {
			delay = budget / 5
		}
	}
	return CampaignInfo{}, fmt.Errorf("campaignd: coordinator unreachable: %w", last)
}

// lease claims the coordinator's batch of work (max 0), retrying
// transient transport errors so a worker survives a coordinator hiccup
// (or its graceful-shutdown window) without aborting the whole
// campaign.
func (w *Worker) lease(ctx context.Context, client *Client, id string, backends []string) (LeaseGrant, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(orDefault(w.leaseRetry, leaseRetry)):
			case <-ctx.Done():
				return LeaseGrant{}, ctx.Err()
			}
		}
		lr, err := client.Lease(ctx, id, 0, backends)
		if err == nil {
			return lr, nil
		}
		if ctx.Err() != nil {
			return LeaseGrant{}, ctx.Err()
		}
		last = err
	}
	return LeaseGrant{}, fmt.Errorf("campaignd: lease: %w", last)
}

// orDefault returns d, or def when d is zero.
func orDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	return d
}

func clamp(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
