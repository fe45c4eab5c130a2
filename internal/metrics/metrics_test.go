package metrics

import (
	"bufio"
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests served")
	c.Inc()
	c.Add(4)
	c.Add(-3) // dropped: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}
	// Get-or-create: the same (name, labels) is the same instrument.
	if r.Counter("requests_total", "requests served").Value() != 5 {
		t.Fatal("re-request returned a fresh counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}

	r.GaugeFunc("sampled", "func-backed", func() float64 { return 42 })
	if v, ok := r.Value("sampled"); !ok || v != 42 {
		t.Fatalf("func gauge = (%v, %v), want 42", v, ok)
	}
	// Re-registering a func-backed instrument replaces the callback.
	r.GaugeFunc("sampled", "func-backed", func() float64 { return 43 })
	if v, _ := r.Value("sampled"); v != 43 {
		t.Fatalf("replaced func gauge = %v, want 43", v)
	}
}

func TestLabelledSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("sims_total", "sims", L("backend", "detailed")).Add(3)
	r.Counter("sims_total", "sims", L("backend", "analytical")).Add(9)
	// Label order is canonicalised, so these are the same series.
	r.Counter("multi", "m", L("a", "1"), L("b", "2")).Inc()
	r.Counter("multi", "m", L("b", "2"), L("a", "1")).Inc()

	snap := r.Snapshot()
	if v, ok := snap.Value("sims_total", L("backend", "detailed")); !ok || v != 3 {
		t.Fatalf("detailed = (%v, %v), want 3", v, ok)
	}
	if v, ok := snap.Sum("sims_total"); !ok || v != 12 {
		t.Fatalf("sum = (%v, %v), want 12", v, ok)
	}
	if v, ok := snap.Value("multi", L("a", "1"), L("b", "2")); !ok || v != 2 {
		t.Fatalf("label-order-insensitive series = (%v, %v), want 2", v, ok)
	}
	if _, ok := snap.Value("sims_total", L("backend", "nope")); ok {
		t.Fatal("absent series reported present")
	}
	if _, ok := snap.Sum("absent_family"); ok {
		t.Fatal("absent family reported present")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge over an existing counter name did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lead", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid name %q accepted", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	var fam *FamilySnapshot
	for i := range snap {
		if snap[i].Name == "latency_seconds" {
			fam = &snap[i]
		}
	}
	if fam == nil || len(fam.Series) != 1 {
		t.Fatalf("histogram family missing: %+v", snap)
	}
	// Cumulative: <=0.1 holds 2 (0.05 and the boundary 0.1), <=1 holds
	// 3, <=10 holds 4; +Inf (the count) holds all 5.
	want := []int64{2, 3, 4}
	ss := fam.Series[0]
	for i, w := range want {
		if ss.BucketCounts[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, ss.BucketCounts[i], w, ss.BucketCounts)
		}
	}
	if ss.Value != 5 {
		t.Fatalf("histogram count = %v, want 5", ss.Value)
	}
}

// sampleLine matches one exposition sample:
// name{labels} value  (labels optional).
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.eE+-]+|NaN)$`)

// parseExposition validates the text format line by line and returns
// sample values keyed "name{labels}". It is also used by the campaignd
// e2e reconciliation test via scrape helpers mirroring it.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "store hits", L("tier", "memory")).Add(3)
	r.Counter("hits_total", "store hits", L("tier", "store")).Add(1)
	r.Gauge("queue_depth", "pending points").Set(17)
	r.GaugeFunc("ewma_seconds", "latency ewma", func() float64 { return 0.25 })
	h := r.Histogram("dur_seconds", "duration", []float64{0.5, 5})
	h.Observe(0.1)
	h.Observe(1)
	r.Counter("esc_total", "escapes", L("v", "a\"b\\c\nd")).Inc()

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	samples := parseExposition(t, body)

	for key, want := range map[string]float64{
		`hits_total{tier="memory"}`:     3,
		`hits_total{tier="store"}`:      1,
		`queue_depth`:                   17,
		`ewma_seconds`:                  0.25,
		`dur_seconds_bucket{le="0.5"}`:  1,
		`dur_seconds_bucket{le="5"}`:    2,
		`dur_seconds_bucket{le="+Inf"}`: 2,
		`dur_seconds_count`:             2,
		`esc_total{v="a\"b\\c\nd"}`:     1,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("sample %s = (%v, present=%v), want %v\nbody:\n%s", key, got, ok, want, body)
		}
	}
	if got, want := samples[`dur_seconds_sum`], 1.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("dur_seconds_sum = %v, want %v", got, want)
	}

	// TYPE lines precede their samples and name each family once.
	for _, fam := range []string{"hits_total", "queue_depth", "dur_seconds"} {
		if c := strings.Count(body, "# TYPE "+fam+" "); c != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", fam, c)
		}
	}

	// Deterministic rendering: a quiescent registry renders identically.
	var again strings.Builder
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != body {
		t.Error("consecutive renders of a quiescent registry differ")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, resp.Request.URL); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1<<16)
	n, _ := resp.Body.Read(b)
	if !strings.Contains(string(b[:n]), "ok_total 1") {
		t.Fatalf("handler body missing sample: %q", b[:n])
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("conc_total", "", L("g", fmt.Sprint(g%2)))
			h := r.Histogram("conc_seconds", "", []float64{1})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 3))
				if i%100 == 0 {
					var sink strings.Builder
					_ = r.WritePrometheus(&sink)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if v, _ := snap.Sum("conc_total"); v != 8000 {
		t.Fatalf("concurrent counter sum = %v, want 8000", v)
	}
	if v, _ := snap.Value("conc_seconds"); v != 8000 {
		t.Fatalf("concurrent histogram count = %v, want 8000", v)
	}
}

func TestSnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "")
	r.Counter("a_total", "")
	r.Gauge("c", "", L("x", "2"))
	r.Gauge("c", "", L("x", "1"))
	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, f := range snap {
		names[i] = f.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("families not sorted: %v", names)
	}
	for _, f := range snap {
		if f.Name == "c" {
			if len(f.Series) != 2 || f.Series[0].LabelKey >= f.Series[1].LabelKey {
				t.Fatalf("series not sorted: %+v", f.Series)
			}
		}
	}
}

// TestFuncReregisterDuringScrape pins the func-backed series under
// concurrent re-registration: two components sharing a registry each
// register the same (name, labels), and a scrape running meanwhile
// must see one callback or the other, never a torn write (the race
// detector flags an unsynchronised callback swap).
func TestFuncReregisterDuringScrape(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("memo_total", "", func() float64 { return 0 }, L("backend", "detailed"))
	r.GaugeFunc("share", "", func() float64 { return 0 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 500; i++ {
			v := float64(i)
			r.CounterFunc("memo_total", "", func() float64 { return v }, L("backend", "detailed"))
			r.GaugeFunc("share", "", func() float64 { return v })
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		snap := r.Snapshot()
		if v, ok := snap.Value("memo_total", L("backend", "detailed")); !ok || v < 0 || v > 500 {
			t.Fatalf("memo_total = %v (ok=%v) during re-registration", v, ok)
		}
	}
	snap := r.Snapshot()
	if v, _ := snap.Value("memo_total", L("backend", "detailed")); v != 500 {
		t.Fatalf("memo_total = %v after re-registration, want the newest callback's 500", v)
	}
	if v, _ := snap.Value("share"); v != 500 {
		t.Fatalf("share = %v after re-registration, want 500", v)
	}
}
