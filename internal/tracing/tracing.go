// Package tracing is a small, stdlib-only span recorder for campaign
// observability: where /metrics (internal/metrics) makes the system
// countable, tracing makes it *inspectable* — every design point's
// life (enqueue → lease → simulate → store write) becomes a span with
// a start, a duration, attributes and a parent link, recorded into a
// bounded in-memory ring buffer and exported as Chrome trace-event
// JSON (WriteChromeTrace): one complete ("X") event per span,
// processes mapped to pids and goroutine-pool slots to tids, loadable
// directly in Perfetto or chrome://tracing to see where a campaign's
// wall-clock goes.
//
// Trace context crosses process boundaries through the
// "X-Trace-Context" HTTP header (SpanContext.String / ParseContext):
// the campaign coordinator stamps each lease grant with the lease
// span's context, workers adopt it as the parent of their batch and
// simulate spans, and send their finished spans back with each batch
// completion — one merged timeline for a distributed campaign.
//
// A nil *Tracer is a valid, fully disabled tracer: Start returns a nil
// span whose methods are no-ops, so instrumented code needs no
// branches and pays a few nil checks when tracing is off.
package tracing

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the HTTP header both campaign planes propagate trace
// context in, formatted by SpanContext.String and parsed by
// ParseContext.
const Header = "X-Trace-Context"

// DefaultCapacity is the ring-buffer bound when Config.Capacity is 0:
// large enough for every span of a laptop-scale campaign, small enough
// (~a few MB) to sit in memory for the process lifetime.
const DefaultCapacity = 16384

// Attr is one key=value span attribute (campaign, lease, point,
// backend, ...). Values are strings; A and AInt build them.
type Attr struct {
	Key, Value string
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt is A for integer values.
func AInt(key string, v int) Attr { return Attr{Key: key, Value: itoa(v)} }

// itoa avoids pulling strconv into the hot path signature; it is just
// strconv.Itoa.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// Span is one finished span: the recorded form, the wire form workers
// push to the coordinator, and the unit the Chrome exporter renders.
type Span struct {
	// TraceID groups every span of one campaign; SpanID identifies this
	// span and ParentID links it under its parent ("" for roots).
	TraceID  string `json:"trace"`
	SpanID   string `json:"span"`
	ParentID string `json:"parent,omitempty"`
	// Name is the span taxonomy entry ("lease", "point",
	// "backend.execute", ...; see docs/OBSERVABILITY.md).
	Name string `json:"name"`
	// Proc names the recording process ("coordinator", "worker-...",
	// "sweep") — the Chrome trace pid. Slot is the goroutine-pool slot
	// the work ran on — the Chrome trace tid.
	Proc string `json:"proc"`
	Slot int    `json:"slot"`
	// Start is the span start in Unix microseconds; Dur its duration in
	// microseconds (clamped to >= 1 so zero-length spans stay visible).
	Start int64 `json:"start_us"`
	Dur   int64 `json:"dur_us"`
	// Attrs carry the structured dimensions (campaign, lease, point,
	// backend, bench, ...).
	Attrs []Attr `json:"attrs,omitempty"`
}

// SpanContext is the propagated identity of a span: enough for a
// remote child to link under it.
type SpanContext struct {
	TraceID, SpanID string
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// String renders the context for the X-Trace-Context header:
// "traceID/spanID".
func (sc SpanContext) String() string {
	if !sc.Valid() {
		return ""
	}
	return sc.TraceID + "/" + sc.SpanID
}

// ParseContext parses an X-Trace-Context header value; ok is false for
// anything malformed (including the empty string), so callers can feed
// it headers unchecked.
func ParseContext(s string) (SpanContext, bool) {
	t, sp, found := strings.Cut(s, "/")
	if !found || t == "" || sp == "" {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: t, SpanID: sp}, true
}

// ctxKey carries a SpanContext through a context.Context; slotKey
// carries the goroutine-pool slot.
type ctxKey struct{}
type slotKey struct{}

// ContextWith returns ctx carrying sc as the current span — the parent
// any span started under ctx links to. Workers use it to adopt the
// coordinator's lease span as their batch parent.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the current span context, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// WithSlot returns ctx labelled with the goroutine-pool slot executing
// under it; spans started under ctx render on that Chrome-trace tid.
func WithSlot(ctx context.Context, slot int) context.Context {
	return context.WithValue(ctx, slotKey{}, slot)
}

// SlotFrom returns the goroutine-pool slot from ctx (0 when unset).
func SlotFrom(ctx context.Context) int {
	slot, _ := ctx.Value(slotKey{}).(int)
	return slot
}

// Config assembles a Tracer.
type Config struct {
	// Process names this process in the exported timeline (the Chrome
	// trace pid): "coordinator", "worker-<id>", "sweep". Default
	// "process".
	Process string
	// Capacity bounds the in-memory ring buffer (default
	// DefaultCapacity). When full, the oldest spans are dropped and
	// counted (Dropped).
	Capacity int
	// Now overrides the clock in tests; nil means time.Now.
	Now func() time.Time
}

// Tracer records spans into a bounded ring buffer. All methods are
// safe for concurrent use, and all methods on a nil *Tracer are
// no-ops, so instrumented code can thread an optional tracer without
// branching.
type Tracer struct {
	proc    string
	now     func() time.Time
	traceID string
	seq     atomic.Uint64

	mu      sync.Mutex
	buf     []Span // ring storage, len == capacity
	next    int    // next write position
	n       int    // live spans (<= capacity)
	dropped uint64
}

// New builds a tracer with a fresh trace ID.
func New(cfg Config) *Tracer {
	if cfg.Process == "" {
		cfg.Process = "process"
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Tracer{
		proc:    cfg.Process,
		now:     cfg.Now,
		traceID: randomID(16),
		buf:     make([]Span, cfg.Capacity),
	}
}

// randomID returns n random bytes as hex; on entropy failure it falls
// back to a counter-free constant prefix (IDs must never block).
var randomFallback atomic.Uint64

func randomID(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return "fb" + itoa(int(randomFallback.Add(1)))
	}
	return hex.EncodeToString(b)
}

// TraceID returns the tracer's root trace ID ("" for a nil tracer).
// Spans started without a parent belong to it; spans started under a
// remote parent adopt the parent's trace ID instead.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Process returns the tracer's process label ("" for nil).
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// nextSpanID mints a process-unique span ID.
func (t *Tracer) nextSpanID() string {
	return t.traceID[:4] + "-" + itoa(int(t.seq.Add(1)))
}

// ActiveSpan is an in-flight span; End records it. A nil *ActiveSpan
// (from a nil tracer) is a valid no-op span.
type ActiveSpan struct {
	t     *Tracer
	span  Span
	start time.Time
	mu    sync.Mutex
	ended bool
}

// Start opens a span under ctx's current span (remote or local) and
// returns a derived context carrying the new span as parent for its
// children. On a nil tracer it returns (ctx, nil) unchanged.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	traceID := t.traceID
	parent := ""
	if sc, ok := FromContext(ctx); ok {
		traceID, parent = sc.TraceID, sc.SpanID
	}
	now := t.now()
	s := &ActiveSpan{
		t: t,
		span: Span{
			TraceID:  traceID,
			SpanID:   t.nextSpanID(),
			ParentID: parent,
			Name:     name,
			Proc:     t.proc,
			Slot:     SlotFrom(ctx),
			Start:    now.UnixMicro(),
			Attrs:    attrs,
		},
		start: now,
	}
	return ContextWith(ctx, s.Context()), s
}

// Context returns the span's propagation context (zero for nil).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.span.TraceID, SpanID: s.span.SpanID}
}

// SetAttr appends an attribute to an in-flight span; no-op after End
// or on a nil span.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End finishes the span and records it; second and later Ends (and
// Ends on a nil span) are no-ops.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	span := s.span
	s.mu.Unlock()
	span.Dur = durMicros(s.t.now().Sub(s.start))
	s.t.record(span)
}

// durMicros renders a duration in whole microseconds, clamped to >= 1
// so instant spans stay visible in the timeline.
func durMicros(d time.Duration) int64 {
	us := d.Microseconds()
	if us < 1 {
		return 1
	}
	return us
}

// Record books an already-measured span — the coordinator uses it for
// queue-wait ("enqueue") spans whose start predates the call — under
// the given parent ("" roots it in the tracer's own trace).
func (t *Tracer) Record(name string, parent SpanContext, start, end time.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	traceID := t.traceID
	parentID := ""
	if parent.Valid() {
		traceID, parentID = parent.TraceID, parent.SpanID
	}
	t.record(Span{
		TraceID:  traceID,
		SpanID:   t.nextSpanID(),
		ParentID: parentID,
		Name:     name,
		Proc:     t.proc,
		Start:    start.UnixMicro(),
		Dur:      durMicros(end.Sub(start)),
		Attrs:    attrs,
	})
}

// Ingest appends finished spans recorded by another process (a worker
// sending its share of the campaign to the coordinator). Spans keep
// their own Proc, trace and parent links; empty Procs are stamped with
// the tracer's, and spans missing identity are dropped.
func (t *Tracer) Ingest(spans []Span) {
	if t == nil {
		return
	}
	for _, sp := range spans {
		if sp.TraceID == "" || sp.SpanID == "" || sp.Name == "" {
			continue
		}
		if sp.Proc == "" {
			sp.Proc = t.proc
		}
		t.record(sp)
	}
}

// record appends one finished span to the ring, dropping the oldest
// when full.
func (t *Tracer) record(span Span) {
	t.mu.Lock()
	if t.n == len(t.buf) {
		t.dropped++ // overwrite the oldest
	} else {
		t.n++
	}
	t.buf[t.next] = span
	t.next = (t.next + 1) % len(t.buf)
	t.mu.Unlock()
}

// Spans snapshots the buffered spans, oldest first. The buffer is not
// cleared; GET /v1/trace can be scraped repeatedly.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := (t.next - t.n + len(t.buf)) % len(t.buf)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Drain returns the buffered spans, oldest first, and clears the
// buffer — the worker-side delivery primitive: each batch's spans ship
// to the coordinator inside its completion, exactly once.
func (t *Tracer) Drain() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := (t.next - t.n + len(t.buf)) % len(t.buf)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	t.n, t.next = 0, 0
	return out
}

// Len reports how many spans are buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped reports how many spans the ring has evicted since creation.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
