package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.Start(context.Background(), "point", A("bench", "FT"))
	if span != nil {
		t.Fatalf("nil tracer Start returned non-nil span")
	}
	if ctx != context.Background() {
		t.Fatalf("nil tracer Start must return ctx unchanged")
	}
	span.SetAttr("k", "v")
	span.End()
	if got := span.Context(); got.Valid() {
		t.Fatalf("nil span context should be invalid, got %v", got)
	}
	tr.Record("enqueue", SpanContext{}, time.Now(), time.Now())
	tr.Ingest([]Span{{TraceID: "t", SpanID: "s", Name: "x"}})
	if tr.Spans() != nil || tr.Drain() != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.TraceID() != "" {
		t.Fatalf("nil tracer accessors must be zero-valued")
	}
}

func TestSpanParentLinks(t *testing.T) {
	tr := New(Config{Process: "test"})
	ctx, parent := tr.Start(context.Background(), "lease", A("lease", "L1"))
	cctx, child := tr.Start(ctx, "point")
	_, grand := tr.Start(cctx, "backend.execute")
	grand.End()
	child.End()
	parent.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	// Recorded in End order: grand, child, parent.
	g, c, p := spans[0], spans[1], spans[2]
	if p.ParentID != "" {
		t.Errorf("root span has parent %q", p.ParentID)
	}
	if c.ParentID != p.SpanID {
		t.Errorf("child parent = %q, want %q", c.ParentID, p.SpanID)
	}
	if g.ParentID != c.SpanID {
		t.Errorf("grandchild parent = %q, want %q", g.ParentID, c.SpanID)
	}
	for _, sp := range spans {
		if sp.TraceID != tr.TraceID() {
			t.Errorf("span %s trace = %q, want tracer trace %q", sp.Name, sp.TraceID, tr.TraceID())
		}
		if sp.Dur < 1 {
			t.Errorf("span %s dur = %d, want >= 1", sp.Name, sp.Dur)
		}
	}
}

func TestRemoteParentAdoptsTraceID(t *testing.T) {
	coord := New(Config{Process: "coordinator"})
	_, lease := coord.Start(context.Background(), "lease")
	lease.End()

	// The worker receives the lease context over the wire and must
	// record its spans in the coordinator's trace, not its own.
	hdr := lease.Context().String()
	sc, ok := ParseContext(hdr)
	if !ok {
		t.Fatalf("ParseContext(%q) failed", hdr)
	}
	worker := New(Config{Process: "worker-a"})
	wctx := ContextWith(context.Background(), sc)
	_, batch := worker.Start(wctx, "worker.batch")
	batch.End()

	got := worker.Spans()[0]
	if got.TraceID != coord.TraceID() {
		t.Errorf("worker span trace = %q, want coordinator trace %q", got.TraceID, coord.TraceID())
	}
	if got.ParentID != lease.Context().SpanID {
		t.Errorf("worker span parent = %q, want lease span %q", got.ParentID, lease.Context().SpanID)
	}
}

func TestParseContextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"", "/", "abc", "abc/", "/def"} {
		if _, ok := ParseContext(bad); ok {
			t.Errorf("ParseContext(%q) = ok, want reject", bad)
		}
	}
	sc, ok := ParseContext("t1/s1")
	if !ok || sc.TraceID != "t1" || sc.SpanID != "s1" {
		t.Errorf("ParseContext(t1/s1) = %v, %v", sc, ok)
	}
}

func TestRingBufferOverflow(t *testing.T) {
	tr := New(Config{Process: "test", Capacity: 4})
	for i := 0; i < 10; i++ {
		_, s := tr.Start(context.Background(), fmt.Sprintf("span-%d", i))
		s.End()
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want capacity 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	spans := tr.Spans()
	for i, sp := range spans {
		want := fmt.Sprintf("span-%d", 6+i)
		if sp.Name != want {
			t.Errorf("spans[%d] = %q, want newest-4 %q", i, sp.Name, want)
		}
	}
	// Drain empties the ring but keeps the drop count.
	drained := tr.Drain()
	if len(drained) != 4 || tr.Len() != 0 {
		t.Fatalf("Drain returned %d spans, Len now %d", len(drained), tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped after drain = %d, want 6", tr.Dropped())
	}
	_, s := tr.Start(context.Background(), "after-drain")
	s.End()
	if got := tr.Spans(); len(got) != 1 || got[0].Name != "after-drain" {
		t.Fatalf("post-drain record got %+v", got)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{Process: "test", Capacity: 4096})
	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := WithSlot(context.Background(), g)
			for i := 0; i < perG; i++ {
				cctx, parent := tr.Start(ctx, "point", AInt("g", g))
				_, child := tr.Start(cctx, "backend.execute")
				child.SetAttr("i", fmt.Sprint(i))
				child.End()
				child.End() // double-End must be safe and record once
				parent.End()
			}
		}(g)
	}
	wg.Wait()
	spans := tr.Spans()
	if want := goroutines * perG * 2; len(spans) != want {
		t.Fatalf("recorded %d spans, want %d", len(spans), want)
	}
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		if ids[sp.SpanID] {
			t.Fatalf("duplicate span ID %q", sp.SpanID)
		}
		ids[sp.SpanID] = true
		if sp.Name == "point" && sp.Slot == 0 {
			// Slot 0 is goroutine 0's legitimate slot; just ensure the
			// field survives for the rest.
			continue
		}
	}
}

func TestIngestValidatesAndStampsProc(t *testing.T) {
	tr := New(Config{Process: "coordinator"})
	tr.Ingest([]Span{
		{TraceID: "t", SpanID: "s1", Name: "point", Proc: "worker-a"},
		{TraceID: "t", SpanID: "s2", Name: "point"}, // Proc stamped
		{TraceID: "", SpanID: "s3", Name: "bad"},    // dropped
		{TraceID: "t", SpanID: "", Name: "bad"},     // dropped
		{TraceID: "t", SpanID: "s4", Name: ""},      // dropped
	})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("ingested %d spans, want 2", len(spans))
	}
	if spans[0].Proc != "worker-a" || spans[1].Proc != "coordinator" {
		t.Errorf("procs = %q, %q", spans[0].Proc, spans[1].Proc)
	}
}

func TestRecordBooksQueueWait(t *testing.T) {
	t0 := time.Unix(1000, 0)
	now := t0
	tr := New(Config{Process: "coordinator", Now: func() time.Time { return now }})
	_, lease := tr.Start(context.Background(), "lease")
	tr.Record("enqueue", lease.Context(), t0.Add(-2*time.Second), t0, A("point", "3"))
	lease.End()

	spans := tr.Spans()
	enq := spans[0]
	if enq.Name != "enqueue" || enq.ParentID != lease.Context().SpanID {
		t.Fatalf("enqueue span = %+v", enq)
	}
	if enq.Dur != (2 * time.Second).Microseconds() {
		t.Errorf("enqueue dur = %dus, want 2s", enq.Dur)
	}
	if enq.Start != t0.Add(-2*time.Second).UnixMicro() {
		t.Errorf("enqueue start = %d", enq.Start)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	now := time.Unix(2000, 0)
	tr := New(Config{Process: "coordinator", Now: func() time.Time { return now }})
	ctx, lease := tr.Start(context.Background(), "lease", A("lease", "L1"))
	_, pt := tr.Start(WithSlot(ctx, 3), "point")
	pt.End()
	lease.End()
	tr.Ingest([]Span{{
		TraceID: tr.TraceID(), SpanID: "w1", ParentID: lease.Context().SpanID,
		Name: "worker.batch", Proc: "worker-a", Slot: 1,
		Start: now.UnixMicro(), Dur: 500,
	}})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	// 3 spans + 2 process_name metadata events (coordinator, worker-a).
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5:\n%s", len(doc.TraceEvents), buf.String())
	}
	var xEvents, mEvents int
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		// The CI jq check requires every event to carry these keys.
		for _, key := range []string{"ph", "ts", "dur", "name", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			xEvents++
			pids[ev["pid"].(float64)] = true
			args := ev["args"].(map[string]any)
			if args["trace"] != tr.TraceID() {
				t.Errorf("event %v args.trace = %v", ev["name"], args["trace"])
			}
		case "M":
			mEvents++
			if ev["name"] != "process_name" {
				t.Errorf("metadata event name = %v", ev["name"])
			}
		default:
			t.Errorf("unexpected ph %v", ev["ph"])
		}
	}
	if xEvents != 3 || mEvents != 2 {
		t.Errorf("events: X=%d M=%d, want 3/2", xEvents, mEvents)
	}
	if len(pids) != 2 {
		t.Errorf("distinct pids = %d, want 2 (coordinator, worker)", len(pids))
	}
	// tid carries the goroutine-pool slot.
	var sawSlot3 bool
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "point" && ev["tid"] == float64(3) {
			sawSlot3 = true
		}
	}
	if !sawSlot3 {
		t.Errorf("point span lost its slot tid:\n%s", buf.String())
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	tr := New(Config{Process: "coordinator"})
	_, s := tr.Start(context.Background(), "lease")
	defer s.End()
	hdr := s.Context().String()
	sc, ok := ParseContext(hdr)
	if !ok || sc != s.Context() {
		t.Fatalf("roundtrip %q -> %v, %v", hdr, sc, ok)
	}
	ctx := ContextWith(context.Background(), sc)
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("context roundtrip = %v, %v", got, ok)
	}
}
