package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
)

// scrapeProm fetches a /metrics endpoint and parses the text
// exposition into "name{labels}" -> value samples, failing the test on
// lines that do not fit the format.
func scrapeProm(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("metrics Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line: %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// wrapCoordinator stands up a coordinator whose HTTP surface is
// wrapped by mw — the fault-injection hook the lease-plane regression
// tests use.
func wrapCoordinator(t *testing.T, points []experiments.Point, mutate func(*ServerConfig), mw func(http.Handler) http.Handler) (*Server, *httptest.Server) {
	t.Helper()
	srv, inner, _ := testServer(t, points, mutate)
	inner.Close()
	hs := httptest.NewServer(mw(srv.Handler()))
	t.Cleanup(hs.Close)
	return srv, hs
}

// cancelAfterCompletes is wrapCoordinator middleware that calls cancel
// once the coordinator has answered n POST /v1/complete calls, so a
// test stops a worker that cannot finish the campaign at a known point
// instead of after a wall-clock wait.
func cancelAfterCompletes(n int64, cancel context.CancelFunc) func(http.Handler) http.Handler {
	var served atomic.Int64
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(w, r)
			if r.Method == http.MethodPost && r.URL.Path == "/v1/complete" && served.Add(1) == n {
				cancel()
			}
		})
	}
}

// registerMolassesStub registers a deliberately slow, cancellable
// backend: each Execute sleeps well past the heartbeat-abandonment
// test's lease TTL unless its context dies first.
var registerMolassesStub = sync.OnceFunc(func() {
	experiments.RegisterBackend("molasses-sim", func(opts experiments.Options) (experiments.Backend, error) {
		return molassesStub{}, nil
	})
})

type molassesStub struct{}

func (molassesStub) Name() string        { return "molasses-sim" }
func (molassesStub) Fingerprint() string { return "molasses-sim/v1" }
func (molassesStub) Execute(ctx context.Context, bench string, cfg core.Config, prewarm bool) (*core.Result, error) {
	select {
	case <-time.After(1500 * time.Millisecond):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &core.Result{Config: cfg, Cycles: 7,
		Cores: make([]core.CoreResult, cfg.Workers+1)}, nil
}

// TestHeartbeatAbandonsBlackholedRenew is the regression pin for the
// swallowed-Renew-error bug: a worker whose renewals are blackholed
// (failing without a Gone verdict) for longer than the lease TTL must
// abandon the batch — the lease has already expired at the coordinator
// and the points are up for stealing — instead of simulating doomed
// work to completion. Pre-fix the worker slept through the outage and
// reported the batch as a normal completion (LostLeases == 0, one
// lease).
func TestHeartbeatAbandonsBlackholedRenew(t *testing.T) {
	registerMolassesStub()
	// One shared point and no baseline: testRows normalises the lone
	// row against itself, and this test never renders the CSV.
	pts := []experiments.Point{{Bench: "FT", Cfg: sharedCfg(8, 16, 2), Backend: "molasses-sim"}}
	var mu sync.Mutex
	var first string // the lease the first renewal names
	_, hs := wrapCoordinator(t, pts,
		func(cfg *ServerConfig) { cfg.TTL = 250 * time.Millisecond },
		func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/renew" {
					body, _ := io.ReadAll(r.Body)
					var req renewRequest
					json.Unmarshal(body, &req)
					mu.Lock()
					if first == "" {
						first = req.Lease
					}
					blackholed := req.Lease == first
					mu.Unlock()
					// Blackhole every renewal of the first lease only: the
					// re-leased batch must heartbeat normally and finish.
					if blackholed {
						http.Error(w, "injected renew outage", http.StatusServiceUnavailable)
						return
					}
					r.Body = io.NopCloser(bytes.NewReader(body))
				}
				inner.ServeHTTP(w, r)
			})
		})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	reg := metrics.NewRegistry()
	w := Worker{URL: hs.URL, ID: "partitioned", Parallelism: 1, Metrics: reg}
	rep, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The first batch was abandoned once renewals had failed for a full
	// TTL; the second lease (healthy heartbeats) completed the point.
	if rep.LostLeases != 1 {
		t.Fatalf("report = %+v, want exactly 1 lost lease (the blackholed one)", rep)
	}
	if rep.Leases != 2 || rep.Points != 1 {
		t.Fatalf("report = %+v, want 2 leases and 1 completed point", rep)
	}
	if v, _ := reg.Value("worker_renew_failures_total"); v < 1 {
		t.Fatalf("worker_renew_failures_total = %v, want >= 1", v)
	}
	if v, _ := reg.Value("worker_lost_leases_total"); v != 1 {
		t.Fatalf("worker_lost_leases_total = %v, want 1", v)
	}
}

// TestIdleStatszSweepsExpiredLeases pins lazy lease expiry on the
// observability path: with no mutating dispatch traffic at all, a
// Server.Stats snapshot (and the /metrics gauges) of a coordinator whose
// worker crashed must report the lease expired and its points pending
// again — not a live lease and an understated queue.
func TestIdleStatszSweepsExpiredLeases(t *testing.T) {
	clk := newFakeClock()
	pts := testPoints()
	srv, hs, _ := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.TTL = time.Second
		cfg.Batch = 2
		cfg.now = clk.now
	})
	ctx := context.Background()
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := client.Lease(ctx, "crasher", 0, detailed)
	if err != nil {
		t.Fatal(err)
	}
	if len(grant.Points) != 2 {
		t.Fatalf("crasher leased %d points, want 2", len(grant.Points))
	}
	if st := srv.Stats(); st.Dispatch.Leases != 1 || st.Dispatch.Leased != 2 {
		t.Fatalf("pre-expiry stats = %+v, want 1 live lease over 2 points", st.Dispatch)
	}

	clk.advance(1500 * time.Millisecond)

	// No lease/renew/complete call in between: the snapshot itself must
	// sweep.
	st := srv.Stats()
	if st.Dispatch.Leases != 0 || st.Dispatch.Leased != 0 {
		t.Fatalf("idle stats = %+v, want the crashed lease expired", st.Dispatch)
	}
	if st.Dispatch.ExpiredLeases != 1 {
		t.Fatalf("expired leases = %d, want 1", st.Dispatch.ExpiredLeases)
	}
	if st.Dispatch.Pending != len(pts) {
		t.Fatalf("pending = %d, want all %d points back in the queue", st.Dispatch.Pending, len(pts))
	}
	samples := scrapeProm(t, hs.URL+"/metrics")
	for key, want := range map[string]float64{
		"campaignd_leases_live":          0,
		"campaignd_leases_expired_total": 1,
		"campaignd_queue_pending":        float64(len(pts)),
		"campaignd_points_leased":        0,
	} {
		if got := samples[key]; got != want {
			t.Fatalf("scraped %s = %v, want %v", key, got, want)
		}
	}
}

// TestHandshakeBackoff pins the jittered-backoff handshake: a
// coordinator that only comes up after a few probes is tolerated well
// inside the retry budget, and a dead one exhausts the budget before
// the worker gives up.
func TestHandshakeBackoff(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			http.Error(w, "still binding", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, CampaignInfo{Batch: 7, TTLMillis: 1000})
	}))
	defer hs.Close()
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{URL: hs.URL, handshakeDelay: 5 * time.Millisecond, handshakeBudget: 500 * time.Millisecond}
	start := time.Now()
	info, err := w.handshake(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	if info.Batch != 7 {
		t.Fatalf("handshake info = %+v, want the served campaign", info)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("coordinator saw %d probes, want 4 (3 failures + success)", got)
	}
	// Three failures back off 5+10+20 ms nominal (with jitter at most
	// 1.5x each): recovery lands far inside the total budget.
	if elapsed := time.Since(start); elapsed > w.handshakeBudget {
		t.Fatalf("recovery took %v, want well under the %v budget", elapsed, w.handshakeBudget)
	}

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "permanently broken", http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	deadClient, err := NewClient(dead.URL)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	_, err = w.handshake(context.Background(), deadClient)
	if err == nil || !strings.Contains(err.Error(), "coordinator unreachable") {
		t.Fatalf("dead coordinator handshake error = %v, want unreachable", err)
	}
	if elapsed := time.Since(start); elapsed < w.handshakeBudget || elapsed > 4*w.handshakeBudget {
		t.Fatalf("dead coordinator handshake took %v, want about the %v budget", elapsed, w.handshakeBudget)
	}
}

// TestLeaseRetry pins the lease retry: a worker rides out two failed
// lease calls, pausing its leaseRetry between attempts, and gives up
// with the last error after three failures in a row.
func TestLeaseRetry(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "coordinator hiccup", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, LeaseGrant{Lease: "l1", Done: true})
	}))
	defer hs.Close()
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{URL: hs.URL, leaseRetry: time.Millisecond}
	lr, err := w.lease(context.Background(), client, "w", detailed)
	if err != nil || lr.Lease != "l1" || !lr.Done {
		t.Fatalf("lease after two failures = %+v, %v; want the served grant", lr, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("coordinator saw %d lease calls, want 3 (2 failures + success)", got)
	}

	var deadCalls atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadCalls.Add(1)
		http.Error(w, "permanently broken", http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	deadClient, err := NewClient(dead.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.lease(context.Background(), deadClient, "w", detailed); err == nil ||
		!strings.Contains(err.Error(), "campaignd: lease:") || !strings.Contains(err.Error(), "permanently broken") {
		t.Fatalf("lease against a dead coordinator: err = %v, want the last failure", err)
	}
	if got := deadCalls.Load(); got != 3 {
		t.Fatalf("dead coordinator saw %d lease calls, want 3 attempts", got)
	}
}

// TestMetricsReconcileWithCampaign is the loopback observability
// acceptance pin: after a mixed-backend two-worker campaign with one
// induced crash, the coordinator's /metrics counters reconcile exactly
// with Server.Stats, with the workers' own registries and with the
// merged CSV — per-backend simulation counts, zero duplicates, and the
// crashed worker's expired lease all visible.
func TestMetricsReconcileWithCampaign(t *testing.T) {
	pts, rows := mixedCampaign()
	srv, hs, _ := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Batch = 2
		cfg.TTL = 300 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The induced crash: a client leases a batch and disappears without
	// heartbeat, completion or simulation.
	crasher, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if grant, err := crasher.Lease(ctx, "crasher", 0, detailed); err != nil || len(grant.Points) == 0 {
		t.Fatalf("crasher lease: %v (%d points)", err, len(grant.Points))
	}

	// Two workers share one registry, so worker_* and the runners'
	// cache/simulation counters aggregate across the fleet.
	workReg := metrics.NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := Worker{URL: hs.URL, ID: "w" + string(rune('1'+i)), Parallelism: 2, Metrics: workReg}
			if _, err := w.Run(ctx); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	distCSV := emitCSV(t, srv.Stream(ctx, 0), rows, len(pts), testOptions().Workers)
	wg.Wait()

	samples := scrapeProm(t, hs.URL+"/metrics")
	st := srv.Stats()

	// Campaign complete, queue drained, per-backend progress exact.
	for key, want := range map[string]float64{
		`campaignd_points{backend="detailed"}`:        4,
		`campaignd_points{backend="analytical"}`:      2,
		`campaignd_points_done{backend="detailed"}`:   4,
		`campaignd_points_done{backend="analytical"}`: 2,
		`campaignd_queue_pending`:                     0,
		`campaignd_points_leased`:                     0,
		`campaignd_leases_live`:                       0,
	} {
		if got := samples[key]; got != want {
			t.Errorf("scraped %s = %v, want %v", key, got, want)
		}
	}

	// Zero duplicate simulations: the workers' per-backend simulation
	// counters tile the plan exactly, and every simulation was written
	// to the store exactly once.
	wsnap := workReg.Snapshot()
	for backend, want := range map[string]float64{"detailed": 4, "analytical": 2} {
		if v, ok := wsnap.Value("runner_simulations_total", metrics.L("backend", backend)); !ok || v != want {
			t.Errorf("workers simulated %v %s points, want %v", v, backend, want)
		}
	}
	if sims, _ := wsnap.Sum("runner_simulations_total"); sims != float64(len(pts)) {
		t.Errorf("workers simulated %v points total, want %d (duplicates or misses)", sims, len(pts))
	}
	if got := samples["runstore_writes_total"]; got != float64(len(pts)) {
		t.Errorf("scraped runstore_writes_total = %v, want %d", got, len(pts))
	}
	if writes, _ := wsnap.Value("runner_cache_writes_total", metrics.L("tier", "store")); writes != float64(len(pts)) {
		t.Errorf("worker-side store writes = %v, want %d", writes, len(pts))
	}

	// The induced crash is visible — and /metrics and Server.Stats tell
	// the same story, because Stats reads the same registry.
	if samples["campaignd_leases_expired_total"] < 1 {
		t.Error("no expired lease scraped after the induced crash")
	}
	reconcile := map[string]float64{
		"campaignd_leases_expired_total": float64(st.Dispatch.ExpiredLeases),
		"campaignd_leases_granted_total": float64(st.Dispatch.GrantedLeases),
		"runstore_writes_total":          float64(st.Store.Writes),
		"runstore_hits_total":            float64(st.Store.Hits),
	}
	if done, _ := srv.Metrics().Snapshot().Sum("campaignd_points_done"); done != float64(st.Dispatch.Done) {
		t.Errorf("campaignd_points_done sums to %v, Stats Done = %d", done, st.Dispatch.Done)
	}
	for key, want := range reconcile {
		if got := samples[key]; got != want {
			t.Errorf("scraped %s = %v, Stats says %v", key, got, want)
		}
	}

	// And the CSV accounting matches: one data row per shared point,
	// labelled with the backend that simulated it.
	for backend, want := range map[string]int{"detailed": 2, "analytical": 2} {
		if got := strings.Count(string(distCSV), ","+backend+","); got != want {
			t.Errorf("CSV rows labelled %s = %d, want %d:\n%s", backend, got, want, distCSV)
		}
	}
}
