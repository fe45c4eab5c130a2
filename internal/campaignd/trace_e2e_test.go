package campaignd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sharedicache/internal/tracing"
)

// TestTracePropagationE2E is the tentpole's acceptance test: a
// two-worker loopback campaign with a tracing coordinator must yield
// ONE merged timeline in the coordinator's buffer — every worker
// "point" span carries the coordinator's trace ID and parents (via its
// "worker.batch" span) under the coordinator's "lease" span, each
// leased point has an "enqueue" span, and each simulated point has a
// "store.write" child — with GET /v1/trace exporting it all as
// well-formed Chrome trace-event JSON. The workers get no tracer of
// their own: tracing auto-enables from the lease grant's
// X-Trace-Context header, exactly as the distributed smoke test runs
// it.
func TestTracePropagationE2E(t *testing.T) {
	tr := tracing.New(tracing.Config{Process: "coordinator"})
	pts := testPoints()
	srv, hs, _ := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Tracer = tr
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type result struct {
		rep WorkerReport
		err error
	}
	results := make(chan result, 2)
	for _, id := range []string{"wA", "wB"} {
		go func(id string) {
			w := Worker{URL: hs.URL, ID: id, Parallelism: 2}
			rep, err := w.Run(ctx)
			results <- result{rep, err}
		}(id)
	}
	var totalPoints int
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("worker: %v", r.err)
		}
		totalPoints += r.rep.Points
	}
	if totalPoints != len(pts) {
		t.Fatalf("workers completed %d points, want %d", totalPoints, len(pts))
	}

	spans := tr.Spans()
	byID := make(map[string]tracing.Span, len(spans))
	byName := map[string][]tracing.Span{}
	for _, sp := range spans {
		if sp.TraceID != tr.TraceID() {
			t.Fatalf("span %s (%s) trace = %q, want the coordinator trace %q — the timeline split",
				sp.Name, sp.SpanID, sp.TraceID, tr.TraceID())
		}
		byID[sp.SpanID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
	}

	// Every point was simulated by a worker: its "point" span must be
	// recorded by a worker process and chain point -> worker.batch ->
	// lease, with the lease span recorded by the coordinator.
	if got := len(byName["point"]); got != len(pts) {
		t.Fatalf("merged timeline has %d point spans, want %d", got, len(pts))
	}
	for _, pt := range byName["point"] {
		if !strings.HasPrefix(pt.Proc, "worker-") {
			t.Errorf("point span %s recorded by %q, want a worker process", pt.SpanID, pt.Proc)
		}
		batch, ok := byID[pt.ParentID]
		if !ok || batch.Name != "worker.batch" {
			t.Fatalf("point span %s parent %q is %q, want a worker.batch span", pt.SpanID, pt.ParentID, batch.Name)
		}
		lease, ok := byID[batch.ParentID]
		if !ok || lease.Name != "lease" {
			t.Fatalf("batch span %s parent %q is %q, want a lease span", batch.SpanID, batch.ParentID, lease.Name)
		}
		if lease.Proc != "coordinator" {
			t.Errorf("lease span %s recorded by %q, want the coordinator", lease.SpanID, lease.Proc)
		}
	}

	// Every granted point was booked a queue-wait span under its lease.
	if got := len(byName["enqueue"]); got < len(pts) {
		t.Errorf("merged timeline has %d enqueue spans, want >= %d", got, len(pts))
	}
	for _, eq := range byName["enqueue"] {
		if p, ok := byID[eq.ParentID]; !ok || p.Name != "lease" {
			t.Errorf("enqueue span %s parent %q is not a lease span", eq.SpanID, eq.ParentID)
		}
	}

	// Every simulated point wrote back through the store plane: a
	// store.write child per point span, and the coordinator-side
	// store.put parented under it via the X-Trace-Context header.
	children := map[string][]tracing.Span{}
	for _, sp := range spans {
		children[sp.ParentID] = append(children[sp.ParentID], sp)
	}
	for _, pt := range byName["point"] {
		var wrote bool
		for _, ch := range children[pt.SpanID] {
			if ch.Name == "store.write" {
				wrote = true
			}
		}
		if !wrote {
			t.Errorf("point span %s has no store.write child (children: %v)", pt.SpanID, names(children[pt.SpanID]))
		}
	}
	if len(byName["store.put"]) < len(pts) {
		t.Errorf("coordinator recorded %d store.put spans, want >= %d", len(byName["store.put"]), len(pts))
	}
	for _, sp := range byName["store.put"] {
		if p, ok := byID[sp.ParentID]; !ok || p.Name != "store.write" {
			t.Errorf("store.put span %s parent %q is not a worker store.write span", sp.SpanID, sp.ParentID)
		}
	}

	// Completed leases carry their outcome.
	for _, l := range byName["lease"] {
		var outcome string
		for _, a := range l.Attrs {
			if a.Key == "outcome" {
				outcome = a.Value
			}
		}
		if outcome != "completed" {
			t.Errorf("lease span %s outcome = %q, want completed", l.SpanID, outcome)
		}
	}

	// GET /v1/trace serves the same timeline as well-formed Chrome
	// trace-event JSON: every event carries ph/ts/dur/name.
	resp, err := http.Get(hs.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace: %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/v1/trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Fatalf("/v1/trace has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "ts", "dur", "name"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace event missing %q: %v", key, ev)
			}
		}
	}

	// Nothing fell out of the ring buffer in this small campaign.
	if d := tr.Dropped(); d != 0 {
		t.Errorf("coordinator tracer dropped %d spans", d)
	}
	_ = srv
}

// TestTraceEndpointsDisabled pins the off-by-default contract: without
// a tracer both /v1/trace verbs 404 and lease grants carry no trace
// header.
func TestTraceEndpointsDisabled(t *testing.T) {
	_, hs, _ := testServer(t, testPoints(), nil)
	resp, err := http.Get(hs.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/trace without tracing = %s, want 404", resp.Status)
	}
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := client.Lease(context.Background(), "w", 1, detailed)
	if err != nil {
		t.Fatal(err)
	}
	if lr.TraceContext != "" {
		t.Fatalf("lease grant carries trace context %q with tracing off", lr.TraceContext)
	}
}

func names(spans []tracing.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}
