package simreport

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sharedicache/internal/backend"
	"sharedicache/internal/core"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
)

func simulate(t *testing.T, cfg core.Config, bench string, instr uint64) *core.Result {
	t.Helper()
	p, ok := synth.ProfileByName(bench)
	if !ok {
		t.Fatalf("no profile %q", bench)
	}
	w, err := synth.New(p, synth.Config{Workers: cfg.Workers, MasterInstructions: instr, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]trace.Source, w.NumThreads())
	for i := range srcs {
		srcs[i] = w.Source(i)
	}
	sim, err := core.New(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// FromResult over a real detailed simulation: the report must satisfy
// cycle conservation (stall-stack cycles sum to section-accounted core
// cycles) and reproduce the result's counters exactly.
func TestFromResultConservation(t *testing.T) {
	res := simulate(t, core.SharedConfig(), "FT", 30_000)
	r := FromResult("deadbeef", "FT", "detailed", false, res)

	if r.StackTotal() == 0 {
		t.Fatal("empty stall stack from a real simulation")
	}
	if got, want := r.StackTotal(), r.CoreCycles(); got != want {
		t.Fatalf("cycle conservation violated: stack total %d != core cycles %d", got, want)
	}
	if r.SerialCycles+r.ParallelCycles != r.CoreCycles() {
		t.Fatal("CoreCycles must be the serial+parallel sum")
	}
	if r.Cycles != res.Cycles {
		t.Fatalf("Cycles = %d, want %d", r.Cycles, res.Cycles)
	}
	if len(r.Cores) != len(res.Cores) {
		t.Fatalf("got %d core reports, want %d", len(r.Cores), len(res.Cores))
	}
	var instr uint64
	for i, c := range res.Cores {
		instr += c.Instructions
		if r.Cores[i].Stack != c.Stack {
			t.Fatalf("core %d stack mismatch", i)
		}
		if r.Cores[i].Core != i {
			t.Fatalf("core %d numbered %d", i, r.Cores[i].Core)
		}
	}
	if r.Instructions != instr {
		t.Fatalf("Instructions = %d, want %d", r.Instructions, instr)
	}
	if got := r.Stack().Total(); got != r.StackTotal() {
		t.Fatalf("Stack().Total() = %d, want %d", got, r.StackTotal())
	}

	if len(r.Caches) != 2 || r.Caches[0].Level != "icache.master" || r.Caches[1].Level != "icache.worker" {
		t.Fatalf("cache levels = %+v", r.Caches)
	}
	if r.Caches[1].Accesses != res.WorkerICache.Accesses || r.Caches[1].Misses != res.WorkerICache.Misses {
		t.Fatal("worker cache traffic mismatch")
	}
	if r.Caches[1].MPKI != res.WorkerMPKI() {
		t.Fatalf("worker MPKI = %v, want %v", r.Caches[1].MPKI, res.WorkerMPKI())
	}
	if r.Bus.BusyCycles != res.Bus.BusyCycles || r.Bus.Utilization != res.Bus.Utilization(res.Cycles) {
		t.Fatal("bus report mismatch")
	}
	if r.Bus.Submitted == 0 {
		t.Fatal("shared organisation should submit bus requests")
	}
	if r.Org == "" || r.CPC != res.Config.CPC {
		t.Fatalf("point identity not derived: org=%q cpc=%d", r.Org, r.CPC)
	}
	if r.Key != "deadbeef" || r.Bench != "FT" || r.Backend != "detailed" {
		t.Fatal("caller identity not recorded")
	}
}

func report(key, bench, backendName, org string, cpc int, cycles uint64) Report {
	return Report{
		Key: key, Bench: bench, Backend: backendName, Org: org, CPC: cpc,
		Cycles:         cycles,
		SerialCycles:   cycles / 4,
		ParallelCycles: cycles - cycles/4,
		Cores: []CoreReport{{
			Core:  0,
			Stack: backend.CPIStack{Busy: cycles / 2, CacheMiss: cycles - cycles/2},
		}},
		Bus:  BusReport{Utilization: 0.5},
		Host: HostCost{WallSeconds: 0.5},
	}
}

func TestCollectorDedup(t *testing.T) {
	c := NewCollector()

	replayed := report("k1", "FT", "detailed", "shared", 4, 1000)
	replayed.Host = HostCost{Replayed: true}
	c.Add(replayed)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}

	// A second replay of the same key is dropped.
	again := replayed
	again.Cycles = 999
	c.Add(again)
	if got := c.Reports()[0].Cycles; got != 1000 {
		t.Fatalf("same-liveness duplicate replaced the original: cycles=%d", got)
	}

	// A live report takes over from a replayed one...
	live := report("k1", "FT", "detailed", "shared", 4, 1000)
	c.Add(live)
	if c.Len() != 1 {
		t.Fatalf("dedup broke: Len = %d", c.Len())
	}
	if c.Reports()[0].Host.Replayed || c.Reports()[0].Host.WallSeconds == 0 {
		t.Fatal("live report should replace the replayed one")
	}

	// ...but never the other way around.
	c.Add(replayed)
	if c.Reports()[0].Host.Replayed {
		t.Fatal("replayed report displaced a live one")
	}

	c.Add(report("k2", "UA", "detailed", "private", 1, 500))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Add(report("k", "FT", "detailed", "shared", 4, 10))
	if c.Len() != 0 || c.Reports() != nil {
		t.Fatal("nil collector must be inert")
	}
	if st := c.AggregateStack(); st.Total() != 0 {
		t.Fatal("nil collector aggregate stack should be empty")
	}
	s := c.Summary()
	if s.Reports != 0 || len(s.Groups) != 0 || len(s.Backends) != 0 {
		t.Fatalf("nil collector summary = %+v", s)
	}
}

func TestSummaryAggregation(t *testing.T) {
	c := NewCollector()
	c.Add(report("a", "UA", "detailed", "shared", 4, 1000))
	c.Add(report("b", "UA", "detailed", "shared", 4, 3000))
	c.Add(report("c", "FT", "detailed", "private", 1, 2000))
	c.Add(report("d", "FT", "analytical", "private", 1, 2000))

	s := c.Summary()
	if s.Reports != 4 {
		t.Fatalf("Reports = %d", s.Reports)
	}
	wantCore := uint64(1000 + 3000 + 2000 + 2000)
	if s.CoreCycles != wantCore || s.StackCycles != wantCore {
		t.Fatalf("totals = %d/%d, want %d", s.CoreCycles, s.StackCycles, wantCore)
	}
	if s.StallShares["busy"] <= 0 || s.StallShares[backend.StallCacheMiss.String()] <= 0 {
		t.Fatalf("stall shares missing: %+v", s.StallShares)
	}

	if len(s.Backends) != 2 || s.Backends[0].Backend != "analytical" || s.Backends[1].Backend != "detailed" {
		t.Fatalf("backend order = %+v", s.Backends)
	}
	if s.Backends[1].Reports != 3 || s.Backends[1].CoreCycles != 6000 {
		t.Fatalf("detailed rollup = %+v", s.Backends[1])
	}

	if len(s.Groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(s.Groups))
	}
	// Sorted by (Bench, Backend, Org, CPC).
	if s.Groups[0].Bench != "FT" || s.Groups[0].Backend != "analytical" ||
		s.Groups[1].Bench != "FT" || s.Groups[1].Backend != "detailed" ||
		s.Groups[2].Bench != "UA" {
		t.Fatalf("group order = %+v", s.Groups)
	}
	ua := s.Groups[2]
	if ua.Reports != 2 || ua.Cycles.Min != 1000 || ua.Cycles.Max != 3000 || ua.Cycles.Mean != 2000 {
		t.Fatalf("UA distribution = %+v", ua.Cycles)
	}
	// The rate is derived from Cycles/WallSeconds: 1000/0.5 and 3000/0.5.
	if ua.SimCyclesPerSecond.Count != 2 || ua.SimCyclesPerSecond.Mean != (1000/0.5+3000/0.5)/2 {
		t.Fatalf("UA cycles/sec = %+v", ua.SimCyclesPerSecond)
	}

	// Determinism: a second pass renders the identical summary.
	a, _ := json.Marshal(s)
	b, _ := json.Marshal(c.Summary())
	if !bytes.Equal(a, b) {
		t.Fatal("Summary is not deterministic")
	}
}

func TestStackShares(t *testing.T) {
	if StackShares(backend.CPIStack{}) != nil {
		t.Fatal("empty stack should yield no shares")
	}
	sh := StackShares(backend.CPIStack{Busy: 3, Sync: 1})
	if sh["busy"] != 0.75 || sh[backend.StallSync.String()] != 0.25 {
		t.Fatalf("shares = %+v", sh)
	}
	var sum float64
	for _, v := range sh {
		sum += v
	}
	if sum != 1 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")

	// A nil collector still writes a valid, empty document.
	if n, err := WriteFile(path, nil); err != nil || n != 0 {
		t.Fatalf("nil write: n=%d err=%v", n, err)
	}
	var doc File
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Reports == nil || len(doc.Reports) != 0 {
		t.Fatal("empty document should carry an empty (non-null) report list")
	}

	c := NewCollector()
	c.Add(report("a", "UA", "detailed", "shared", 4, 1000))
	c.Add(report("b", "FT", "detailed", "private", 1, 2000))
	if n, err := WriteFile(path, c); err != nil || n != 2 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Reports) != 2 || doc.Summary.Reports != 2 || doc.Summary.CoreCycles != 3000 {
		t.Fatalf("document = %+v", doc.Summary)
	}
}
