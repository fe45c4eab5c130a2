package core

import (
	"runtime"
	"testing"

	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
)

// allocsWorkload synthesises the allocation workload: FT on 8 workers,
// 60k master instructions.
func allocsWorkload(tb testing.TB) *synth.Workload {
	tb.Helper()
	p, ok := synth.ProfileByName("FT")
	if !ok {
		tb.Fatal("no profile FT")
	}
	w, err := synth.New(p, synth.Config{Workers: 8, MasterInstructions: 60_000, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// runAllocsWorkload builds fresh sources and a Simulator over w (a
// Simulator is single-use), runs it on the shared configuration and
// returns the committed instruction count.
func runAllocsWorkload(tb testing.TB, w *synth.Workload) uint64 {
	tb.Helper()
	srcs := make([]trace.Source, w.NumThreads())
	for i := range srcs {
		srcs[i] = w.Source(i)
	}
	sim, err := New(SharedConfig(), srcs)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return res.TotalInstructions()
}

// BenchmarkSimAllocs runs one full worker-shared simulation per
// iteration and reports heap allocations per trace record on top of
// the usual allocs/op, so allocation churn in the hot loop (peek,
// fetch requests, fabric grants, buffer scans) is visible per unit of
// simulated work rather than drowned in per-run setup. The workload is
// synthesised once outside the timed loop; sources and the Simulator
// are rebuilt per iteration because a Simulator is single-use.
func BenchmarkSimAllocs(b *testing.B) {
	w := allocsWorkload(b)
	var records uint64

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for b.Loop() {
		records = runAllocsWorkload(b, w)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if records > 0 && b.N > 0 {
		allocs := float64(after.Mallocs - before.Mallocs)
		b.ReportMetric(allocs/float64(records)/float64(b.N), "allocs/record")
	}
}

// maxAllocsPerRecord bounds TestSimAllocsPerRecord. The hot loop
// allocates about 0.0014 times per record; per-cycle allocation of any
// kind (a closure, a boxed value, a map) costs at least one allocation
// per few records and lands far above the bound.
const maxAllocsPerRecord = 0.01

// TestSimAllocsPerRecord runs BenchmarkSimAllocs' workload once and
// fails if heap allocations per committed instruction exceed
// maxAllocsPerRecord, so the zero-allocation hot loop is held by the
// tests and not only by a benchmark nobody runs.
func TestSimAllocsPerRecord(t *testing.T) {
	w := allocsWorkload(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	records := runAllocsWorkload(t, w)
	runtime.ReadMemStats(&after)
	if records == 0 {
		t.Fatal("workload committed no instructions")
	}
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(records)
	t.Logf("%d allocations over %d records: %.4f allocs/record", after.Mallocs-before.Mallocs, records, perRecord)
	if perRecord > maxAllocsPerRecord {
		t.Errorf("%.4f allocs/record, above the %.2f bound: something in the simulation loop allocates per cycle",
			perRecord, maxAllocsPerRecord)
	}
}

// maxPrewarmBytes bounds TestPrewarmBytes. New plus Prewarm of one
// CoEVP point on SharedConfig allocates about 3.7 MB: nine Table I L2s
// (1 MB, 32-way) of 16-byte ways, the I-caches, and the eviction
// history of the L2s that overflow while warming. Recording every
// installed line, or widening a way, lands well above the bound.
const maxPrewarmBytes = 5_000_000

// TestPrewarmBytes builds and prewarms one CoEVP SharedConfig point
// (80k master instructions, seed 1), the largest warm set of the Fig 7
// space, and fails if the two calls allocate more than maxPrewarmBytes:
// per-point setup memory is what bounds a parallel sweep's peak RSS.
func TestPrewarmBytes(t *testing.T) {
	p, ok := synth.ProfileByName("CoEVP")
	if !ok {
		t.Fatal("no profile CoEVP")
	}
	cfg := SharedConfig()
	w, err := synth.New(p, synth.Config{Workers: cfg.Workers, MasterInstructions: 80_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]trace.Source, w.NumThreads())
	ic := make([][]uint64, w.NumThreads())
	l2 := make([][]uint64, w.NumThreads())
	for i := range srcs {
		srcs[i] = w.Source(i)
		ic[i] = w.WarmLines(i, cfg.ICache.LineBytes)
		l2[i] = w.L2WarmLines(i, cfg.Mem.L2.LineBytes)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := New(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	sim.Prewarm(ic, l2)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("New+Prewarm: %.2f MB in %d allocations", float64(bytes)/1e6, after.Mallocs-before.Mallocs)
	if bytes > maxPrewarmBytes {
		t.Errorf("New+Prewarm allocates %.2f MB, above the %.0f MB bound", float64(bytes)/1e6, maxPrewarmBytes/1e6)
	}
}
