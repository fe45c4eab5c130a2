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
