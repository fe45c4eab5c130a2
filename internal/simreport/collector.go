package simreport

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"sharedicache/internal/backend"
)

// Collector accumulates one campaign's reports. It is safe for
// concurrent use, and — like the tracing layer — nil-safe: every
// method on a nil *Collector is a no-op, so instrumented call sites
// pay a pointer check when reporting is off.
//
// Reports deduplicate by Key: a campaign can observe the same design
// point twice (a live execution on one worker, a warm-store replay on
// another), and the aggregate must count each point once. A live
// (captured) report always wins over a replayed one, because it
// carries real host cost; between two reports of the same liveness the
// first wins, so a second store of the same point (a stolen lease
// re-run) cannot churn the aggregate.
type Collector struct {
	mu      sync.Mutex
	reports []Report
	byKey   map[string]int
}

// NewCollector builds an empty collector.
func NewCollector() *Collector {
	return &Collector{byKey: map[string]int{}}
}

// Add folds one report into the collection (see the dedup rules in the
// type comment). No-op on a nil collector.
func (c *Collector) Add(r Report) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.byKey[r.Key]; ok {
		if c.reports[i].Host.Replayed && !r.Host.Replayed {
			c.reports[i] = r
		}
		return
	}
	c.byKey[r.Key] = len(c.reports)
	c.reports = append(c.reports, r)
}

// Len reports how many distinct design points have been collected.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reports)
}

// Reports returns a copy of the collected reports in insertion order.
func (c *Collector) Reports() []Report {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Report(nil), c.reports...)
}

// ShareKinds lists the CPI-stack category names StackShares keys its
// result by, in stack order — "busy" plus the StallKind mnemonics.
// Metric layers iterate it to register one labelled series per
// category.
var ShareKinds = []string{
	"busy",
	backend.StallBranch.String(),
	backend.StallBusQueue.String(),
	backend.StallBusLatency.String(),
	backend.StallCacheHit.String(),
	backend.StallCacheMiss.String(),
	backend.StallSync.String(),
	backend.StallDrain.String(),
}

// StackShares converts a summed CPI stack into per-category shares of
// its total, keyed by the StallKind mnemonics plus "busy". An empty
// stack returns no shares.
func StackShares(st backend.CPIStack) map[string]float64 {
	total := st.Total()
	if total == 0 {
		return nil
	}
	f := func(v uint64) float64 { return float64(v) / float64(total) }
	return map[string]float64{
		"busy":                           f(st.Busy),
		backend.StallBranch.String():     f(st.Branch),
		backend.StallBusQueue.String():   f(st.BusQueue),
		backend.StallBusLatency.String(): f(st.BusLatency),
		backend.StallCacheHit.String():   f(st.CacheHit),
		backend.StallCacheMiss.String():  f(st.CacheMiss),
		backend.StallSync.String():       f(st.Sync),
		backend.StallDrain.String():      f(st.Drain),
	}
}

// Distribution summarises one scalar over a group of reports.
type Distribution struct {
	Count int
	Min   float64
	Mean  float64
	Max   float64
}

func (d *Distribution) observe(v float64) {
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if d.Count == 0 || v > d.Max {
		d.Max = v
	}
	// Mean accumulates the sum until finish() divides it.
	d.Mean += v
	d.Count++
}

func (d *Distribution) finish() {
	if d.Count > 0 {
		d.Mean /= float64(d.Count)
	}
}

// GroupSummary aggregates the reports of one (benchmark, backend,
// organisation, CPC) cell of the campaign.
type GroupSummary struct {
	Bench   string
	Backend string
	Org     string
	CPC     int

	Reports     int
	CoreCycles  uint64
	StackCycles uint64
	Stack       backend.CPIStack
	StallShares map[string]float64

	Cycles             Distribution
	WorkerMPKI         Distribution
	BusUtilization     Distribution
	SimCyclesPerSecond Distribution
}

// BackendSummary aggregates per simulation backend — the grain the
// perf trajectory and the CI conservation check read.
type BackendSummary struct {
	Backend string

	Reports     int
	CoreCycles  uint64
	StackCycles uint64
	Stack       backend.CPIStack
	StallShares map[string]float64

	WallSeconds        float64
	SimCyclesPerSecond Distribution
}

// Summary is the campaign-wide aggregate: GET /v1/simstatsz serves it,
// and the drivers' -report files embed it. CoreCycles and StackCycles
// are campaign totals over every report; for an all-detailed campaign
// they are equal (cycle conservation), which the CI smoke pins with
// jq. Groups and Backends are deterministically ordered.
type Summary struct {
	Reports     int
	CoreCycles  uint64
	StackCycles uint64
	StallShares map[string]float64

	Backends []BackendSummary
	Groups   []GroupSummary
}

// simRate derives simulated cycles per host wall second from the
// report's one host-cost record; a replay has none.
func (r *Report) simRate() (float64, bool) {
	if r.Host.WallSeconds <= 0 {
		return 0, false
	}
	return float64(r.Cycles) / r.Host.WallSeconds, true
}

// Summary aggregates the collected reports. Safe (and empty) on a nil
// collector.
func (c *Collector) Summary() Summary {
	reports := c.Reports()
	s := Summary{Reports: len(reports)}
	var total backend.CPIStack
	groups := map[string]*GroupSummary{}
	backends := map[string]*BackendSummary{}
	for i := range reports {
		r := &reports[i]
		st := r.Stack()
		total.Add(st)
		s.CoreCycles += r.CoreCycles()
		s.StackCycles += r.StackTotal()

		bk := backends[r.Backend]
		if bk == nil {
			bk = &BackendSummary{Backend: r.Backend}
			backends[r.Backend] = bk
		}
		bk.Reports++
		bk.CoreCycles += r.CoreCycles()
		bk.StackCycles += r.StackTotal()
		bk.Stack.Add(st)
		bk.WallSeconds += r.Host.WallSeconds
		if rate, ok := r.simRate(); ok {
			bk.SimCyclesPerSecond.observe(rate)
		}

		key := fmt.Sprintf("%s\x00%s\x00%s\x00%d", r.Bench, r.Backend, r.Org, r.CPC)
		g := groups[key]
		if g == nil {
			g = &GroupSummary{Bench: r.Bench, Backend: r.Backend, Org: r.Org, CPC: r.CPC}
			groups[key] = g
		}
		g.Reports++
		g.CoreCycles += r.CoreCycles()
		g.StackCycles += r.StackTotal()
		g.Stack.Add(st)
		g.Cycles.observe(float64(r.Cycles))
		for _, cache := range r.Caches {
			if cache.Level == "icache.worker" {
				g.WorkerMPKI.observe(cache.MPKI)
			}
		}
		g.BusUtilization.observe(r.Bus.Utilization)
		if rate, ok := r.simRate(); ok {
			g.SimCyclesPerSecond.observe(rate)
		}
	}
	s.StallShares = StackShares(total)
	for _, bk := range backends {
		bk.StallShares = StackShares(bk.Stack)
		bk.SimCyclesPerSecond.finish()
		s.Backends = append(s.Backends, *bk)
	}
	sort.Slice(s.Backends, func(i, j int) bool { return s.Backends[i].Backend < s.Backends[j].Backend })
	for _, g := range groups {
		g.StallShares = StackShares(g.Stack)
		g.Cycles.finish()
		g.WorkerMPKI.finish()
		g.BusUtilization.finish()
		g.SimCyclesPerSecond.finish()
		s.Groups = append(s.Groups, *g)
	}
	sort.Slice(s.Groups, func(i, j int) bool {
		a, b := s.Groups[i], s.Groups[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Backend != b.Backend {
			return a.Backend < b.Backend
		}
		if a.Org != b.Org {
			return a.Org < b.Org
		}
		return a.CPC < b.CPC
	})
	return s
}

// AggregateStack sums every collected report's CPI stack — the source
// the stall-share gauges sample at scrape time.
func (c *Collector) AggregateStack() backend.CPIStack {
	var st backend.CPIStack
	if c == nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.reports {
		st.Add(c.reports[i].Stack())
	}
	return st
}

// File is the -report FILE document: the campaign aggregate first,
// then every per-point report in insertion order.
type File struct {
	Summary Summary
	Reports []Report
}

// WriteFile writes the collector's contents as indented JSON to path
// and returns how many reports it covered. A nil or empty collector
// still writes a valid (empty) document, so tooling can rely on the
// file existing.
func WriteFile(path string, c *Collector) (int, error) {
	doc := File{Summary: c.Summary(), Reports: c.Reports()}
	if doc.Reports == nil {
		doc.Reports = []Report{}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("simreport: marshal report file: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 0, fmt.Errorf("simreport: %w", err)
	}
	return len(doc.Reports), nil
}
