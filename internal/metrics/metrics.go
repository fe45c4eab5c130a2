// Package metrics is a small, stdlib-only metrics registry with
// Prometheus text exposition (format 0.0.4). It exists so every layer
// of the campaign system — the engine's cache tiers, the run store,
// the coordinator's dispatch queue and the workers' lease loop — can
// publish machine-readable counters through one `GET /metrics`
// endpoint instead of hand-maintained, screen-scraped status structs.
//
// Three instrument kinds are supported:
//
//   - Counter: a monotonically increasing float64 (rendered as an
//     integer when whole). Counters may also be func-backed
//     (CounterFunc), sampling an existing atomic at scrape time — the
//     idiom the run store and dispatch queue use so their long-lived
//     counters have exactly one source of truth.
//   - Gauge: a settable value; GaugeFunc samples a callback at scrape
//     time (queue depth, live leases, EWMAs).
//   - Histogram: fixed cumulative buckets plus _sum and _count,
//     rendered in the standard le="..." form.
//
// Instruments are get-or-create: asking for the same (name, labels)
// pair returns the same instrument, so independent layers can share a
// registry without coordination. Registering an existing name with a
// different kind panics — that is a programming error, not a runtime
// condition. All instruments are safe for concurrent use; scrapes
// (WritePrometheus, Snapshot) see atomically-read values.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Kind enumerates the instrument kinds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String renders the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DurationBuckets are the default histogram buckets for latencies,
// spanning microseconds to half an hour.
var DurationBuckets = []float64{
	1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300, 1800,
}

// Registry holds metric families and renders them. The zero value is
// not usable; create with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: help, kind, and its labelled series.
type family struct {
	name, help string
	kind       Kind
	buckets    []float64 // histograms only
	series     map[string]*series
}

// series is one (name, labels) instrument. Exactly one of the value
// forms is live: fn for func-backed series, bits for stateful counters
// and gauges, counts/sumBits for histograms.
type series struct {
	labels []Label
	key    string

	fn   atomic.Pointer[func() float64] // replaced by re-registration under live scrapes
	bits atomic.Uint64                  // float64 bits

	counts  []atomic.Int64 // histogram: one per bucket + one for +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

func (s *series) value() float64 {
	if fn := s.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(s.bits.Load())
}

func (s *series) add(v float64) {
	for {
		old := s.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if s.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.add(1) }

// Add adds v (v must be >= 0; negative deltas are a programming error
// and are dropped to keep the counter monotonic).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.s.add(v)
}

// Value reads the current count.
func (c *Counter) Value() float64 { return c.s.value() }

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v.
func (g *Gauge) Add(v float64) { g.s.add(v) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return g.s.value() }

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with upper bound >= v
	h.s.counts[i].Add(1)
	h.s.count.Add(1)
	for {
		old := h.s.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count reports how many observations have been recorded.
func (h *Histogram) Count() int64 { return h.s.count.Load() }

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// Counter returns (creating if needed) the counter for (name, labels).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.instrument(name, help, KindCounter, nil, labels)
	return &Counter{s: s}
}

// CounterFunc registers a func-backed counter: fn is sampled at scrape
// time, so a component's existing atomic counter can be exposed
// without maintaining a second copy. Re-registering the same (name,
// labels) replaces the callback (the newest component instance wins).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.instrument(name, help, KindCounter, nil, labels).fn.Store(&fn)
}

// Gauge returns (creating if needed) the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.instrument(name, help, KindGauge, nil, labels)
	return &Gauge{s: s}
}

// GaugeFunc registers a func-backed gauge sampled at scrape time.
// Re-registering the same (name, labels) replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.instrument(name, help, KindGauge, nil, labels).fn.Store(&fn)
}

// Histogram returns (creating if needed) the histogram for (name,
// labels) with the given bucket upper bounds (sorted ascending; +Inf
// is implicit). All series of one family share the first-registered
// bucket layout.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DurationBuckets
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	s := r.instrument(name, help, KindHistogram, bs, labels)
	return &Histogram{s: s, buckets: r.bucketsOf(name)}
}

func (r *Registry) bucketsOf(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.families[name].buckets
}

// instrument is the get-or-create core shared by every kind.
func (r *Registry) instrument(name, help string, kind Kind, buckets []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Name, name))
		}
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	key := labelKey(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: sorted, key: key}
		if kind == KindHistogram {
			s.counts = make([]atomic.Int64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// validName matches the Prometheus metric/label name charset.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelKey canonicalises a sorted label set.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the exposition-format label escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value; whole numbers render without an
// exponent or decimal point, which keeps counters grep-friendly.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SeriesSnapshot is one sampled series.
type SeriesSnapshot struct {
	// Labels are sorted by name; LabelKey is their canonical
	// `k="v",...` rendering ("" for the unlabelled series).
	Labels   []Label
	LabelKey string
	// Value is the sample for counters and gauges. For histograms it is
	// the observation count; Sum and BucketCounts carry the rest.
	Value        float64
	Sum          float64
	BucketCounts []int64 // cumulative, one per bucket; +Inf == Value
}

// FamilySnapshot is one sampled metric family.
type FamilySnapshot struct {
	Name, Help string
	Kind       Kind
	Buckets    []float64
	Series     []SeriesSnapshot
}

// Snapshot samples every instrument. Families are sorted by name and
// series by label key, so consecutive snapshots of a quiescent
// registry render identically. Func-backed instruments are invoked
// without the registry lock held, so their callbacks may take their
// component's own locks freely.
type Snapshot []FamilySnapshot

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	type serEntry struct {
		f *family
		s *series
	}
	var entries []serEntry
	for _, f := range fams {
		for _, s := range f.series {
			entries = append(entries, serEntry{f, s})
		}
	}
	r.mu.Unlock()

	byName := map[string]*FamilySnapshot{}
	var snap Snapshot
	for _, f := range fams {
		byName[f.name] = &FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Buckets: f.buckets}
	}
	for _, e := range entries {
		ss := SeriesSnapshot{
			Labels:   e.s.labels,
			LabelKey: e.s.key,
		}
		if e.f.kind == KindHistogram {
			// Bucket counts are stored per-bucket; render cumulatively.
			var cum int64
			ss.BucketCounts = make([]int64, len(e.f.buckets))
			for i := range e.f.buckets {
				cum += e.s.counts[i].Load()
				ss.BucketCounts[i] = cum
			}
			ss.Value = float64(e.s.count.Load())
			ss.Sum = math.Float64frombits(e.s.sumBits.Load())
		} else {
			ss.Value = e.s.value()
		}
		fam := byName[e.f.name]
		fam.Series = append(fam.Series, ss)
	}
	for _, fam := range byName {
		sort.Slice(fam.Series, func(i, j int) bool { return fam.Series[i].LabelKey < fam.Series[j].LabelKey })
		snap = append(snap, *fam)
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name })
	return snap
}

// Value returns the sampled value of the series matching (name,
// labels) exactly; ok is false when no such series exists. Histograms
// report their observation count.
func (s Snapshot) Value(name string, labels ...Label) (float64, bool) {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	key := labelKey(sorted)
	for _, f := range s {
		if f.Name != name {
			continue
		}
		for _, ss := range f.Series {
			if ss.LabelKey == key {
				return ss.Value, true
			}
		}
	}
	return 0, false
}

// Sum returns the sum of every series of the named family (histograms
// contribute their observation counts); ok is false when the family
// does not exist.
func (s Snapshot) Sum(name string) (float64, bool) {
	for _, f := range s {
		if f.Name != name {
			continue
		}
		var total float64
		for _, ss := range f.Series {
			total += ss.Value
		}
		return total, true
	}
	return 0, false
}

// Value is Snapshot().Value — a one-series read for callers that do
// not need a consistent multi-family view.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	return r.Snapshot().Value(name, labels...)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (0.0.4): families sorted by name, each with its
// HELP and TYPE lines, series sorted by label key, histograms in
// cumulative le="..." form with _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, ss := range f.Series {
			if err := writeSeries(w, f, ss); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f FamilySnapshot, ss SeriesSnapshot) error {
	if f.Kind != KindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, braced(ss.LabelKey), formatValue(ss.Value))
		return err
	}
	for i, ub := range f.Buckets {
		le := strconv.FormatFloat(ub, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.Name, braced(joinLabels(ss.LabelKey, `le="`+le+`"`)), ss.BucketCounts[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %s\n",
		f.Name, braced(joinLabels(ss.LabelKey, `le="+Inf"`)), formatValue(ss.Value)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, braced(ss.LabelKey), formatValue(ss.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %s\n", f.Name, braced(ss.LabelKey), formatValue(ss.Value))
	return err
}

func braced(labelKey string) string {
	if labelKey == "" {
		return ""
	}
	return "{" + labelKey + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// escapeHelp applies the exposition-format HELP escapes.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Handler serves the registry as `GET /metrics` content.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Too late for a status change if a write fails; the scraper's
		// parser will reject the truncated body.
		_ = r.WritePrometheus(w)
	})
}
