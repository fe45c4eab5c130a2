package experiments

import (
	"context"
	"testing"

	"sharedicache/internal/metrics"
)

// TestSynthMemoSweep pins the memoisation contract for satellite
// sweeps: a full 52-point Fig 7 detailed campaign (4 benchmarks × 13
// configs) performs exactly one workload synthesis per (bench, seed)
// group — the options fix workers/instructions/seed campaign-wide, so
// the group key is the benchmark — and exactly one warm-line
// derivation per (bench, line-geometry) group, with every other point
// landing as a memo hit. The counters must surface on the runner's
// metrics registry under the backend label.
func TestSynthMemoSweep(t *testing.T) {
	opts := DefaultOptions()
	opts.Benchmarks = []string{"FT", "UA", "nab", "CoEVP"}
	opts.Instructions = 4_000
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	r.SetMetrics(reg)

	plan := r.Plan()
	for _, bench := range opts.Benchmarks {
		plan.AddPoint(Point{Bench: bench, Cfg: baselineConfig()})
		for _, sizeKB := range []int{16, 32} {
			for _, buses := range []int{1, 2} {
				for _, cpc := range []int{2, 4, 8} {
					plan.AddPoint(Point{Bench: bench, Cfg: sharedConfig(cpc, sizeKB, 4, buses)})
				}
			}
		}
	}
	if plan.Len() != 52 {
		t.Fatalf("plan has %d points, want the 52-point Fig 7 space", plan.Len())
	}
	if _, err := plan.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	b, err := r.backend(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	st := b.(MemoStatsProvider).MemoStats()
	if st.SynthMisses != 4 {
		t.Errorf("SynthMisses = %d, want exactly one synthesis per (bench, seed) group (4)", st.SynthMisses)
	}
	if st.SynthHits != 48 {
		t.Errorf("SynthHits = %d, want 48 (every non-leader point)", st.SynthHits)
	}
	// All 52 points share one line geometry, so warm sets group purely
	// by benchmark too.
	if st.PrewarmMisses != 4 {
		t.Errorf("PrewarmMisses = %d, want 4", st.PrewarmMisses)
	}
	if st.PrewarmHits != 48 {
		t.Errorf("PrewarmHits = %d, want 48", st.PrewarmHits)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"runner_synth_memo_hits_total":     48,
		"runner_synth_memo_misses_total":   4,
		"runner_prewarm_memo_hits_total":   48,
		"runner_prewarm_memo_misses_total": 4,
	} {
		got, ok := snap.Value(name, metrics.L("backend", DefaultBackend))
		if !ok {
			t.Errorf("registry is missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestSynthMemoDistinctGeometries pins the warm-set memo key: points
// that differ only in I-cache line size must not share warm lines.
func TestSynthMemoDistinctGeometries(t *testing.T) {
	opts := DefaultOptions()
	opts.Benchmarks = []string{"FT"}
	opts.Instructions = 4_000
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := r.Plan()
	narrow := baselineConfig()
	narrow.ICache.LineBytes = 32
	plan.AddPoint(Point{Bench: "FT", Cfg: baselineConfig()})
	plan.AddPoint(Point{Bench: "FT", Cfg: narrow})
	if _, err := plan.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, err := r.backend(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	st := b.(MemoStatsProvider).MemoStats()
	if st.SynthMisses != 1 || st.SynthHits != 1 {
		t.Errorf("synth memo = %d misses / %d hits, want 1/1 (one bench)", st.SynthMisses, st.SynthHits)
	}
	if st.PrewarmMisses != 2 || st.PrewarmHits != 0 {
		t.Errorf("prewarm memo = %d misses / %d hits, want 2/0 (distinct line sizes)", st.PrewarmMisses, st.PrewarmHits)
	}
}
