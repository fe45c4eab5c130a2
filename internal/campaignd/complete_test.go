package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sharedicache/internal/simreport"
	"sharedicache/internal/tracing"
)

// TestCompleteLostConnectionRebuffers injects a transport failure into
// the telemetry path: the coordinator hijacks and closes the first
// POST /v1/complete connection before reading the body. The worker got
// no response, so it re-buffers that batch's spans and sends them with
// its next Complete. The coordinator ends with no span twice, and with
// exactly one report per point, built from each point's PUT.
func TestCompleteLostConnectionRebuffers(t *testing.T) {
	col := simreport.NewCollector()
	tr := tracing.New(tracing.Config{Process: "coordinator"})
	pts := testPoints()
	srv, _, _ := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Batch = 1 // several Completes, so a later one carries the re-buffered spans
		cfg.Reports = col
		cfg.Tracer = tr
	})
	var dropped atomic.Int32
	inner := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/complete" && dropped.CompareAndSwap(0, 1) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := Worker{URL: hs.URL, ID: "solo", Parallelism: 1}
	rep, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Load() != 1 {
		t.Fatal("no Complete was dropped")
	}
	if rep.Points != len(pts) {
		t.Fatalf("worker completed %d points, want %d", rep.Points, len(pts))
	}
	if got := col.Len(); got != len(pts) {
		t.Fatalf("coordinator holds %d reports for %d points", got, len(pts))
	}
	seen := map[string]bool{}
	points := 0
	for _, sp := range tr.Spans() {
		if seen[sp.SpanID] {
			t.Fatalf("span %s (%s) ingested twice", sp.SpanID, sp.Name)
		}
		seen[sp.SpanID] = true
		if sp.Name == "point" {
			points++
		}
	}
	if points != len(pts) {
		t.Fatalf("merged timeline has %d point spans, want %d", points, len(pts))
	}
}

// TestCompleteExpiredLeaseDeliversTelemetry pins that a Complete for a
// lease that has already expired still delivers its spans (the
// worker's results are durable by then), while completing nothing.
func TestCompleteExpiredLeaseDeliversTelemetry(t *testing.T) {
	tr := tracing.New(tracing.Config{Process: "coordinator"})
	srv, hs, _ := testServer(t, testPoints(), func(cfg *ServerConfig) {
		cfg.TTL = 20 * time.Millisecond
		cfg.Tracer = tr
	})
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lr, err := client.Lease(ctx, "late", 1, detailed)
	if err != nil || len(lr.Points) != 1 {
		t.Fatalf("lease: %+v, %v", lr, err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := client.Renew(ctx, lr.Lease); err != ErrLeaseGone {
		t.Fatalf("renew after the TTL = %v, want ErrLeaseGone", err)
	}

	span := tracing.Span{TraceID: tr.TraceID(), SpanID: "late-span", Name: "point", Proc: "worker-late"}
	if err := client.Complete(ctx, lr.Lease, []tracing.Span{span}); err != nil {
		t.Fatalf("complete on an expired lease: %v", err)
	}
	var found bool
	for _, sp := range tr.Spans() {
		found = found || sp.SpanID == "late-span"
	}
	if !found {
		t.Fatal("the late span was not ingested")
	}
	if done := srv.d.stats().Done; done != 0 {
		t.Fatalf("an expired lease's Complete marked %d points done", done)
	}
}

// FuzzCompleteBody throws arbitrary bodies at the unauthenticated
// POST /v1/complete. The handler must never panic and must answer 204
// or 400. No Complete marks a point done, so no body — not even one
// listing Indexes or carrying a Reports array, as workers once sent —
// may change the dispatch Done count or add a simulation report.
func FuzzCompleteBody(f *testing.F) {
	valid, err := json.Marshal(completeRequest{
		Lease: "lease-1",
		Spans: []tracing.Span{{TraceID: "t", SpanID: "s", Name: "point", Start: 1, Dur: 2}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"Lease":"lease-1","Indexes":[0,1]}`))
	f.Add([]byte(`{"Lease":"","Indexes":[-1]}`))
	f.Add([]byte(`{"Spans":[{}]}`))
	f.Add([]byte(`{"Lease":"lease-1","Reports":[{"Key":"k","Bench":"FT","Host":{"WallSeconds":1}}]}`))
	f.Add([]byte(`{`))

	col := simreport.NewCollector()
	tr := tracing.New(tracing.Config{Process: "coordinator"})
	srv, _, _ := testServer(f, testPoints(), func(cfg *ServerConfig) {
		cfg.Reports = col
		cfg.Tracer = tr
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body)))
		if rec.Code != http.StatusNoContent && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if done := srv.d.stats().Done; done != 0 {
			t.Fatalf("a body naming an unknown lease marked %d points done: %q", done, body)
		}
		if n := col.Len(); n != 0 {
			t.Fatalf("a Complete body added %d simulation reports: %q", n, body)
		}
		// Keep the span sink small over a long fuzz run.
		tr.Drain()
	})
}

// TestCompleteIgnoresForgedReports pins that POST /v1/complete cannot
// plant simulation reports: a body carrying a Reports array for a real
// point key — under an unknown lease and under a live one — leaves
// GET /v1/simstatsz unchanged. Only the PUT that stores a point builds
// its report.
func TestCompleteIgnoresForgedReports(t *testing.T) {
	pts := testPoints()
	srv, hs, _ := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Reports = simreport.NewCollector()
	})
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := client.SimStatsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := client.Lease(ctx, "forger", 1, detailed)
	if err != nil || len(lr.Points) != 1 {
		t.Fatalf("lease: %+v, %v", lr, err)
	}
	key := srv.runner.PointKey(lr.Points[0].Point).Hex()
	for _, lease := range []string{"no-such-lease", lr.Lease} {
		body := fmt.Sprintf(`{"Lease":%q,"Indexes":[%d],"Reports":[{"Key":%q,"Bench":"FT","Backend":"detailed","Cycles":1,"Host":{"WallSeconds":1}}]}`,
			lease, lr.Points[0].Index, key)
		resp, err := http.Post(hs.URL+"/v1/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		after, err := client.SimStatsz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("Complete under lease %q changed /v1/simstatsz: %+v, was %+v", lease, after, before)
		}
	}
}

// TestCompleteMarksOnlyStoredPoints is the regression pin for a
// Complete that marked every in-range index its body listed done: a
// body naming a live lease that holds point 0 and listing point 3
// must leave point 3 pending (it was never leased nor stored) and mark
// nothing done; the lease's own point returns to the queue.
func TestCompleteMarksOnlyStoredPoints(t *testing.T) {
	srv, hs, _ := testServer(t, testPoints(), nil)
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := client.Lease(context.Background(), "w", 1, detailed)
	if err != nil || len(lr.Points) != 1 || lr.Points[0].Index != 0 {
		t.Fatalf("lease: %+v, %v; want point 0", lr, err)
	}
	body := fmt.Sprintf(`{"Lease":%q,"Indexes":[3]}`, lr.Lease)
	resp, err := http.Post(hs.URL+"/v1/complete", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("complete: status %d", resp.StatusCode)
	}
	st := srv.d.stats()
	if st.Done != 0 || st.Pending != len(testPoints()) || st.Leases != 0 {
		t.Fatalf("after completing a lease on [0] listing [3]: %+v, want 0 done, every point pending, no lease", st)
	}
	select {
	case <-srv.d.Done(3):
		t.Fatal("point 3's done latch closed without a stored result")
	default:
	}
}

// TestGetHitCompletesPoint pins the store plane's second completion
// path: a result that reached the store directory without a PUT is
// done once a GET for its hash hits.
func TestGetHitCompletesPoint(t *testing.T) {
	pts := testPoints()
	srv, hs, store := testServer(t, pts, nil)
	key := srv.runner.PointKey(pts[1])
	if err := store.Put(key, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	if done := srv.d.stats().Done; done != 0 {
		t.Fatalf("Done = %d before any store-plane traffic, want 0", done)
	}
	resp, err := http.Get(hs.URL + "/v1/run/" + key.Hex())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d, want a hit", resp.StatusCode)
	}
	select {
	case <-srv.d.Done(1):
	default:
		t.Fatal("a GET hit did not mark its point done")
	}
	if done := srv.d.stats().Done; done != 1 {
		t.Fatalf("Done = %d after one GET hit, want 1", done)
	}
}

// TestLeaseIDsUniquePerCoordinator pins that two coordinators' first
// lease IDs differ, so a worker's stale ID from a restarted
// coordinator cannot renew the new one's live lease: the renewal gets
// Gone.
func TestLeaseIDsUniquePerCoordinator(t *testing.T) {
	ctx := context.Background()
	var ids []string
	var clients []*Client
	for range 2 {
		_, hs, _ := testServer(t, testPoints(), nil)
		client, err := NewClient(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := client.Lease(ctx, "w", 1, detailed)
		if err != nil || len(lr.Points) != 1 {
			t.Fatalf("lease: %+v, %v", lr, err)
		}
		ids, clients = append(ids, lr.Lease), append(clients, client)
	}
	if ids[0] == ids[1] {
		t.Fatalf("both coordinators' first lease is %q", ids[0])
	}
	if err := clients[1].Renew(ctx, ids[0]); err != ErrLeaseGone {
		t.Fatalf("renewing the other coordinator's lease %q: %v, want ErrLeaseGone", ids[0], err)
	}
	if err := clients[1].Renew(ctx, ids[1]); err != nil {
		t.Fatalf("renewing its own lease: %v", err)
	}
}
