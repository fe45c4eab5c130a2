package campaignd

// Tests for the multi-campaign service plane: the dispatch queue's
// round-robin fairness and held-point lifecycle, the enqueue-while-
// serving flow, the byte-identity of served campaign CSVs against
// single-process sweeps, the open-loop /arrive path with its lag
// histogram, and fault injection (crashed worker + flaky store plane)
// across two live campaigns.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/sweep"
)

// fakeCampaign fabricates n points with distinct content addresses for
// dispatch-level tests that never simulate.
func fakeCampaign(n int, prefix string) (pts []experiments.Point, hashes, backends []string) {
	for i := 0; i < n; i++ {
		pts = append(pts, experiments.Point{Bench: "FT"})
		hashes = append(hashes, fmt.Sprintf("%s-%02d", prefix, i))
		backends = append(backends, experiments.DefaultBackend)
	}
	return pts, hashes, backends
}

// TestDispatchMultiCampaignFairness pins the lease scheduler: each
// batch is drawn from one campaign, round-robin across campaigns with
// pending work, FIFO within a campaign — so a later small campaign
// interleaves with an earlier large one instead of queueing behind it.
func TestDispatchMultiCampaignFairness(t *testing.T) {
	ptsA, hA, bA := fakeCampaign(4, "a")
	d := newDispatch(time.Minute, 1, time.Now)
	d.registerMetrics(metrics.NewRegistry())
	if _, _, err := d.addCampaign(ptsA, hA, bA, nil); err != nil {
		t.Fatal(err)
	}
	ptsB, hB, bB := fakeCampaign(2, "b")
	camp, base, err := d.addCampaign(ptsB, hB, bB, nil)
	if err != nil || camp != 1 || base != 4 {
		t.Fatalf("addCampaign = (%d, %d, %v), want campaign 1 at base 4", camp, base, err)
	}

	var order []int
	for i := 0; i < 6; i++ {
		_, idx, _, done := d.Lease("w", 0, detailed)
		if done || len(idx) != 1 {
			t.Fatalf("lease %d: indexes %v done=%v, want one point", i, idx, done)
		}
		order = append(order, idx[0])
	}
	// A, B, A, B, A, then A again once B is drained.
	want := []int{0, 4, 1, 5, 2, 3}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("lease order %v, want round-robin %v", order, want)
	}

	// Everything leased: no grant, but not done either.
	if _, idx, _, done := d.Lease("w", 0, detailed); len(idx) != 0 || done {
		t.Fatalf("exhausted queue leased %v done=%v, want empty and not done", idx, done)
	}
	st := d.stats()
	if st.Campaigns != 2 || st.ActiveCampaigns != 2 || st.Leased != 6 {
		t.Fatalf("stats = %+v, want 2 campaigns (both active), 6 leased", st)
	}
}

// TestDispatchHeldLifecycle pins the open-loop point states: held
// points are declared but unleasable, markArrived releases them, a
// point completed by another campaign's store write stays done through
// a late arrival, and held points keep allDone false. The queue is
// sealed: only then does a drained queue report done, and it refuses
// any further campaign.
func TestDispatchHeldLifecycle(t *testing.T) {
	d := newDispatch(time.Minute, 8, time.Now)
	pts, h, b := fakeCampaign(3, "a")
	camp, base, err := d.addCampaign(pts, h, b, []bool{false, true, true})
	if err != nil {
		t.Fatal(err)
	}
	d.seal()
	if _, _, err := d.addCampaign(pts, h, b, nil); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed queue admitted a campaign: err = %v", err)
	}

	// Only the unheld point is leasable.
	_, idx, _, done := d.Lease("w", 0, detailed)
	if done || !reflect.DeepEqual(idx, []int{base}) {
		t.Fatalf("lease granted %v done=%v, want just the unheld point %d", idx, done, base)
	}
	d.completeHash(h[0])

	// Held points park the campaign: nothing leasable, but not done.
	if _, idx, _, done := d.Lease("w", 0, detailed); len(idx) != 0 || done {
		t.Fatalf("held campaign leased %v done=%v, want empty and not done", idx, done)
	}
	if p := d.campaignProgress(camp); p.Points != 3 || p.Done != 1 || p.Held != 2 {
		t.Fatalf("progress = %+v, want 3 points, 1 done, 2 held", p)
	}

	// Arrival releases a held point to the queue.
	if err := d.markArrived([]int{base + 1}); err != nil {
		t.Fatal(err)
	}
	if _, idx, _, _ := d.Lease("w", 0, detailed); !reflect.DeepEqual(idx, []int{base + 1}) {
		t.Fatalf("post-arrival lease granted %v, want the arrived point", idx)
	}
	d.completeHash(h[1])

	// A held point completed by a store write (cross-campaign dedup or
	// warm resume) stays done; its later arrival is a no-op.
	d.completeHash(h[2])
	if err := d.markArrived([]int{base + 2}); err != nil {
		t.Fatal(err)
	}
	if _, idx, _, done := d.Lease("w", 0, detailed); len(idx) != 0 || !done {
		t.Fatalf("completed campaign leased %v done=%v, want empty and done", idx, done)
	}
	if p := d.campaignProgress(camp); p.Done != 3 || p.Held != 0 {
		t.Fatalf("final progress = %+v, want all 3 done", p)
	}

	// Out-of-range arrivals are errors, not silent drops.
	if err := d.markArrived([]int{99}); err == nil {
		t.Fatal("out-of-range arrival did not error")
	}
}

// campaignSpace is the small per-benchmark design space the service
// tests sweep: two valid sharing degrees, so a campaign expands to one
// baseline plus two rows.
func campaignSpace(bench string) sweep.Space {
	return sweep.Space{
		Benches: []string{bench},
		CPCs:    []int{2, 8}, SizesKB: []int{16}, LineBuffers: []int{4}, Buses: []int{1},
	}
}

// localSweepCSV runs the space in-process — exactly what `cmd/sweep`
// without -remote does — and returns the CSV bytes the service's
// merged output must match, plus the row specs to submit.
func localSweepCSV(t *testing.T, sp sweep.Space) ([]byte, []PointSpec) {
	t.Helper()
	r := testRunner(t)
	plan, rows := sp.Build(r)
	results, err := plan.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	out := sweep.Shape{Backend: sp.Backend != ""}.NewCSV(&buf, r.Options().Workers)
	if err := out.Header(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rows {
		if err := out.Row(m, results[m.BaseIdx], results[m.PointIdx]); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	specs := make([]PointSpec, len(rows))
	for i, m := range rows {
		specs[i] = PointSpec{Bench: m.Bench, CPC: m.CPC, KB: m.KB, LB: m.LB, Bus: m.Bus}
	}
	return buf.Bytes(), specs
}

// awaitComplete polls a campaign's status until it completes.
func awaitComplete(t *testing.T, client *Client, id int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := client.CampaignStatus(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Complete {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %d did not complete: %+v", id, st)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// serveWorker runs w against a serving coordinator, which never tells
// its workers the work is over. The returned stop ends the run through
// its context and returns the worker's report; any error but that
// cancellation fails the test.
func serveWorker(t *testing.T, ctx context.Context, w *Worker) (stop func() WorkerReport) {
	t.Helper()
	ctx, cancel := context.WithCancel(ctx)
	type outcome struct {
		rep WorkerReport
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		rep, err := w.Run(ctx)
		ran <- outcome{rep, err}
	}()
	return func() WorkerReport {
		t.Helper()
		cancel()
		o := <-ran
		if o.err != nil && !errors.Is(o.err, context.Canceled) {
			t.Fatalf("worker %s: %v", w.ID, o.err)
		}
		return o.rep
	}
}

// TestServeWorkerOutlivesCampaigns pins the serve-mode worker
// lifetime: on a coordinator that is not sealed, a worker that has
// finished every campaign enqueued so far keeps polling instead of
// exiting, and runs a campaign submitted afterwards.
func TestServeWorkerOutlivesCampaigns(t *testing.T) {
	// idlePolls is signalled by every lease answer granting nothing
	// while the work is not over. With one worker, enqueued campaigns
	// and nothing held, that happens only once every point is done.
	idlePolls := make(chan struct{}, 1)
	_, hs := wrapCoordinator(t, nil, func(cfg *ServerConfig) {
		cfg.TTL = 250 * time.Millisecond // 50 ms lease polls
	}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/lease" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var g LeaseGrant
			if json.Unmarshal(rec.Body.Bytes(), &g) == nil && len(g.Points) == 0 && !g.Done {
				select {
				case idlePolls <- struct{}{}:
				default:
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	})
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	_, rowsFT := localSweepCSV(t, campaignSpace("FT"))
	wantUA, rowsUA := localSweepCSV(t, campaignSpace("UA"))
	first, err := client.Enqueue(ctx, CampaignSpec{Name: "first", Rows: rowsFT})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		rep WorkerReport
		err error
	}
	wctx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	ran := make(chan outcome, 1)
	go func() {
		w := Worker{URL: hs.URL, ID: "server", Parallelism: 2}
		rep, err := w.Run(wctx)
		ran <- outcome{rep, err}
	}()
	awaitComplete(t, client, first.ID)
	// The first campaign is done: the worker must poll on, not exit.
	select {
	case <-idlePolls:
	case o := <-ran:
		t.Fatalf("worker exited once the first campaign was done: %+v, err %v", o.rep, o.err)
	}
	second, err := client.Enqueue(ctx, CampaignSpec{Name: "second", Rows: rowsUA})
	if err != nil {
		t.Fatal(err)
	}
	awaitComplete(t, client, second.ID)
	got, err := client.CampaignCSV(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantUA) {
		t.Fatalf("second campaign CSV differs from the single-process sweep:\ngot:\n%s\nwant:\n%s", got, wantUA)
	}
	stopWorker()
	o := <-ran
	if !errors.Is(o.err, context.Canceled) || o.rep.Points != first.Points+second.Points {
		t.Fatalf("worker report = %+v, err %v; want both campaigns' %d points, stopped by its context",
			o.rep, o.err, first.Points+second.Points)
	}
}

// TestMultiCampaignService is the service acceptance pin: a serve-mode
// coordinator (started with no campaign) accepts two campaigns over
// the API, one worker fleet completes both interleaved, and each
// campaign's merged CSV is byte-identical to the single-process sweep
// of the same space — with zero duplicate simulations across the
// service.
func TestMultiCampaignService(t *testing.T) {
	srv, hs, _ := testServer(t, nil, func(cfg *ServerConfig) {
		cfg.Batch = 1 // force per-point leases so the campaigns interleave
	})
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	wantFT, rowsFT := localSweepCSV(t, campaignSpace("FT"))
	wantUA, rowsUA := localSweepCSV(t, campaignSpace("UA"))
	ft, err := client.Enqueue(ctx, CampaignSpec{Name: "ft-sweep", Rows: rowsFT})
	if err != nil {
		t.Fatal(err)
	}
	ua, err := client.Enqueue(ctx, CampaignSpec{Name: "ua-sweep", Rows: rowsUA})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Points != 3 || ua.Points != 3 {
		t.Fatalf("expanded plans = %d and %d points, want 3 each (baseline + 2 rows)", ft.Points, ua.Points)
	}
	if ft.ID == ua.ID {
		t.Fatalf("both campaigns got id %d", ft.ID)
	}

	stop := serveWorker(t, ctx, &Worker{URL: hs.URL, ID: "w1", Parallelism: 2})
	awaitComplete(t, client, ft.ID)
	awaitComplete(t, client, ua.ID)
	rep := stop()

	for id, want := range map[int][]byte{ft.ID: wantFT, ua.ID: wantUA} {
		st, err := client.CampaignStatus(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Complete || st.Done != 3 || st.Rows != 2 {
			t.Fatalf("campaign %d status = %+v, want complete with 3/3 done and 2 rows", id, st)
		}
		got, err := client.CampaignCSV(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("campaign %d CSV differs from the single-process sweep:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}

	// Zero duplicate simulations: the worker simulated each of the six
	// points exactly once, and each landed in the store exactly once.
	if rep.Simulations != 6 || rep.Points != 6 {
		t.Fatalf("worker report = %+v, want 6 points / 6 simulations", rep)
	}
	st := srv.Stats()
	if st.Store.Writes != 6 {
		t.Fatalf("store writes = %d, want 6 (duplicates)", st.Store.Writes)
	}
	if st.Dispatch.Campaigns != 2 || st.Dispatch.ActiveCampaigns != 0 {
		t.Fatalf("dispatch = %+v, want 2 campaigns total, 0 active", st.Dispatch)
	}

	// Only enqueued campaigns exist: an unknown id's CSV is a 404.
	if _, err := client.CampaignCSV(ctx, 99); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown campaign CSV err = %v, want a 404", err)
	}
}

// TestOpenLoopCampaignArrivals pins the replay plane: an Open campaign
// parks its rows held (baselines leasable immediately), /arrive
// releases them at trace-dictated times, each submission's lag lands in
// the arrival-lag histogram, and the finished CSV still matches the
// single-process sweep byte for byte.
func TestOpenLoopCampaignArrivals(t *testing.T) {
	_, hs, _ := testServer(t, nil, func(cfg *ServerConfig) {
		cfg.Batch = 2
	})
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	want, rows := localSweepCSV(t, campaignSpace("FT"))
	rep, err := client.Enqueue(ctx, CampaignSpec{Name: "replayed", Rows: rows, Open: true})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := client.CampaignStatus(ctx, rep.ID); st.Held != 2 || st.Points != 3 {
		t.Fatalf("open campaign status = %+v, want 2 of 3 points held", st)
	}
	// Incomplete campaigns refuse to serve a CSV.
	if _, err := client.CampaignCSV(ctx, rep.ID); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("incomplete campaign CSV err = %v, want 409 incomplete", err)
	}

	stop := serveWorker(t, ctx, &Worker{URL: hs.URL, ID: "w1", Parallelism: 2})

	// Replay the two rows one arrival at a time, as `sweep -replay`
	// would; offset 0 makes every observed lag the (positive) gap since
	// the campaign was accepted.
	for k := range rows {
		if err := client.Arrive(ctx, rep.ID, []int{k}, 0); err != nil {
			t.Fatal(err)
		}
	}
	awaitComplete(t, client, rep.ID)
	if wrep := stop(); wrep.Simulations != 3 {
		t.Fatalf("worker simulated %d points, want 3", wrep.Simulations)
	}

	got, err := client.CampaignCSV(ctx, rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed campaign CSV differs from the single-process sweep:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Both arrivals were booked into the lag histogram, and no held
	// points remain.
	samples := scrapeProm(t, hs.URL+"/metrics")
	if got := samples["campaignd_arrival_lag_seconds_count"]; got != 2 {
		t.Fatalf("arrival-lag count = %v, want 2", got)
	}
	if got := samples["campaignd_points_held"]; got != 0 {
		t.Fatalf("points held after completion = %v, want 0", got)
	}
	if got := samples["campaignd_campaigns_active"]; got != 0 {
		t.Fatalf("active campaigns after completion = %v, want 0", got)
	}
}

// TestMultiCampaignFaultInjection is the fault-injection acceptance
// pin: two live campaigns, a worker that crashes mid-lease, and a
// store plane whose first PUT of every entry is answered 500 — both
// campaigns still complete, with zero duplicate simulations and CSVs
// byte-identical to their single-process equivalents.
func TestMultiCampaignFaultInjection(t *testing.T) {
	var mu sync.Mutex
	failed := map[string]bool{}
	srv, hs := wrapCoordinator(t, nil,
		func(cfg *ServerConfig) {
			cfg.Batch = 1
			cfg.TTL = 300 * time.Millisecond
		},
		func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Flaky store plane: every entry's first publish attempt
				// fails, so completion relies on the client's bounded retry.
				if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/run/") {
					mu.Lock()
					first := !failed[r.URL.Path]
					failed[r.URL.Path] = true
					mu.Unlock()
					if first {
						http.Error(w, "injected store failure", http.StatusInternalServerError)
						return
					}
				}
				inner.ServeHTTP(w, r)
			})
		})
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	wantFT, rowsFT := localSweepCSV(t, campaignSpace("FT"))
	wantUA, rowsUA := localSweepCSV(t, campaignSpace("UA"))
	ft, err := client.Enqueue(ctx, CampaignSpec{Name: "ft", Rows: rowsFT})
	if err != nil {
		t.Fatal(err)
	}
	ua, err := client.Enqueue(ctx, CampaignSpec{Name: "ua", Rows: rowsUA})
	if err != nil {
		t.Fatal(err)
	}

	// The crashed worker: leases a point and disappears — no heartbeat,
	// no result.
	grant, err := client.Lease(ctx, "crasher", 0, detailed)
	if err != nil {
		t.Fatal(err)
	}
	if len(grant.Points) != 1 {
		t.Fatalf("crasher leased %d points, want 1", len(grant.Points))
	}

	stop := serveWorker(t, ctx, &Worker{URL: hs.URL, ID: "survivor", Parallelism: 2, putBackoff: time.Millisecond})
	awaitComplete(t, client, ft.ID)
	awaitComplete(t, client, ua.ID)
	rep := stop()

	for id, want := range map[int][]byte{ft.ID: wantFT, ua.ID: wantUA} {
		got, err := client.CampaignCSV(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("campaign %d CSV differs from the single-process sweep after faults:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}

	// Zero duplicates despite the crash and the flaky store: the
	// survivor simulated all six points once each, and each PUT that
	// reached the store landed exactly once.
	if rep.Simulations != 6 {
		t.Fatalf("survivor simulated %d points, want all 6", rep.Simulations)
	}
	st := srv.Stats()
	if st.Store.Writes != 6 {
		t.Fatalf("store writes = %d, want 6 (duplicates)", st.Store.Writes)
	}
	if st.Dispatch.ExpiredLeases == 0 {
		t.Fatal("campaigns completed without expiring the crashed worker's lease")
	}
	if st.Dispatch.ActiveCampaigns != 0 {
		t.Fatalf("active campaigns = %d, want 0", st.Dispatch.ActiveCampaigns)
	}
}

// TestCampaignSpecValidation pins the enqueue API's error surface:
// empty specs, rows a local sweep would skip, unknown ids and bad
// arrivals are all client errors, never silent drops.
func TestCampaignSpecValidation(t *testing.T) {
	srv, hs, _ := testServer(t, nil, nil)
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := client.Enqueue(ctx, CampaignSpec{}); err == nil {
		t.Fatal("empty campaign spec accepted")
	}
	// cpc=3 does not divide the 8-worker cluster: a local sweep silently
	// skips the combination, so naming it in a spec is an error.
	bad := CampaignSpec{Rows: []PointSpec{{Bench: "FT", CPC: 3, KB: 16, LB: 4, Bus: 1}}}
	if _, err := client.Enqueue(ctx, bad); err == nil || !strings.Contains(err.Error(), "cpc") {
		t.Fatalf("invalid-cpc spec err = %v, want a cpc validation error", err)
	}
	if _, err := client.Enqueue(ctx, CampaignSpec{Rows: []PointSpec{{CPC: 2, KB: 16, LB: 4, Bus: 1}}}); err == nil {
		t.Fatal("empty-benchmark row accepted")
	}
	// A backend the coordinator does not register is refused at enqueue,
	// on the same path as a Go-side Server.Enqueue.
	ghost := CampaignSpec{Backend: "ghost-sim", Rows: []PointSpec{{Bench: "FT", CPC: 2, KB: 16, LB: 4, Bus: 1}}}
	if _, err := client.Enqueue(ctx, ghost); err == nil || !strings.Contains(err.Error(), "ghost-sim") {
		t.Fatalf("unregistered-backend spec err = %v, want refusal naming the backend", err)
	}

	if _, err := client.CampaignStatus(ctx, 99); err == nil {
		t.Fatal("unknown campaign id served a status")
	}
	ok := CampaignSpec{Open: true, Rows: []PointSpec{{Bench: "FT", CPC: 2, KB: 16, LB: 4, Bus: 1}}}
	rep, err := client.Enqueue(ctx, ok)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Arrive(ctx, rep.ID, []int{1}, 0); err == nil {
		t.Fatal("out-of-range arrival accepted")
	}

	// A sealed coordinator refuses every campaign with 409, over the
	// API and through Server.Enqueue alike.
	srv.Seal()
	if _, err := client.Enqueue(ctx, ok); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("campaign offered to a sealed coordinator: err = %v, want 409", err)
	}
	if _, err := srv.Enqueue("late", nil, []sweep.Row{{}}, sweep.Shape{}); !errors.Is(err, ErrSealed) {
		t.Fatalf("Server.Enqueue on a sealed coordinator: err = %v, want ErrSealed", err)
	}
}

// FuzzCampaignSpec throws arbitrary bodies at the unauthenticated
// POST /v1/campaign. The handler must never panic; every body gets a
// 400, or a reply whose Points is the expanded plan: one point per
// row plus one private baseline per distinct benchmark.
func FuzzCampaignSpec(f *testing.F) {
	for _, spec := range []CampaignSpec{
		{Name: "ft", Rows: []PointSpec{{Bench: "FT", CPC: 2, KB: 16, LB: 4, Bus: 1}, {Bench: "FT", CPC: 8, KB: 16, LB: 4, Bus: 2}}},
		{Backend: "analytical", Open: true, Rows: []PointSpec{{Bench: "UA", CPC: 4, KB: 32, LB: 4, Bus: 1}, {Bench: "FT", CPC: 2, KB: 16, LB: 4, Bus: 1, Backend: "detailed"}}},
		{Rows: []PointSpec{{Bench: "FT", CPC: 3, KB: 16, LB: 4, Bus: 1}}},
		{Backend: "ghost-sim", Rows: []PointSpec{{Bench: "FT", CPC: 2, KB: 16, LB: 4, Bus: 1}}},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"Rows":[{"CPC":2,"KB":16,"LB":4,"Bus":1}]}`))
	f.Add([]byte(`{"Rows":[{"Bench":"FT","CPC":-8,"KB":-1,"LB":0,"Bus":9}]}`))
	f.Add([]byte(`{"Rows":[]}`))
	f.Add([]byte(`{`))

	srv, _, _ := testServer(f, nil, nil)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaign", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var spec CampaignSpec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			t.Fatalf("accepted a body that does not decode (%v): %q", err, body)
		}
		var reply EnqueueReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("reply %q: %v", rec.Body.Bytes(), err)
		}
		benches := map[string]bool{}
		for _, r := range spec.Rows {
			benches[r.Bench] = true
		}
		if want := len(spec.Rows) + len(benches); reply.Points != want {
			t.Fatalf("reply Points = %d, want %d rows + %d benchmarks for body %q", reply.Points, len(spec.Rows), len(benches), body)
		}
	})
}
