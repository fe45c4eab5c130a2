package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestExtBenchmarksSelection(t *testing.T) {
	o := DefaultOptions()
	got := o.extBenchmarks()
	if len(got) != 3 || got[0] != "UA" || got[1] != "FT" || got[2] != "LULESH" {
		t.Fatalf("full campaign should pick the preferred trio, got %v", got)
	}
	o.Benchmarks = []string{"CG", "EP"}
	got = o.extBenchmarks()
	if len(got) != 2 || got[0] != "CG" || got[1] != "EP" {
		t.Fatalf("restricted campaign should fall back to the selection, got %v", got)
	}
	o.Benchmarks = []string{"FT", "CG", "EP", "IS"}
	got = o.extBenchmarks()
	if len(got) != 3 || got[0] != "FT" {
		t.Fatalf("mixed campaign should prefer FT then fill, got %v", got)
	}
}

func TestExtScaleShape(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 30_000
	opts.Benchmarks = []string{"UA"}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtScale(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 worker counts", len(res.Rows))
	}
	// One plan on r: 5 worker counts x 4 designs, of which the 8-worker
	// baseline and 4LB 1- and 2-bus points are Fig 10's too.
	if n := r.Simulations(); n != 20 {
		t.Fatalf("ext-scale simulated %d points, want 20", n)
	}
	if _, err := Fig10(context.Background(), r, nil); err != nil {
		t.Fatal(err)
	}
	if n := r.Simulations(); n != 21 {
		t.Fatalf("Fig 10 after ext-scale simulated %d more points, want only its 8LB one", n-20)
	}
	for i, row := range res.Rows {
		// More buses never hurt.
		if row.Bus2 > row.Bus1+0.01 || row.Bus4 > row.Bus2+0.01 {
			t.Fatalf("workers=%d: bus scaling not monotone: %+v", row.Workers, row)
		}
		// Slowdown grows with sharing degree on a single bus.
		if i > 0 && row.Bus1 < res.Rows[i-1].Bus1-0.05 {
			t.Fatalf("single-bus slowdown should grow with workers: %+v vs %+v",
				row, res.Rows[i-1])
		}
	}
	// 2 cores on one bus are essentially free; 16 on one bus are not.
	if res.Rows[0].Bus1 > 1.05 {
		t.Fatalf("2 workers on one bus should be near-free: %v", res.Rows[0].Bus1)
	}
	if res.Rows[4].Bus1 < 1.05 {
		t.Fatalf("16 workers on one bus should congest: %v", res.Rows[4].Bus1)
	}
	// The sharing limit is meaningful and grows with buses.
	l1 := res.SharingLimit(1, 0.02)
	l2 := res.SharingLimit(2, 0.02)
	if l2 < l1 {
		t.Fatalf("more buses should not reduce the sharing limit: 1bus=%d 2bus=%d", l1, l2)
	}
	if res.SharingLimit(3, 0.02) != 0 {
		t.Fatal("unknown bus count should report no limit")
	}
	if !strings.Contains(res.Table().String(), "workers") {
		t.Fatal("table should label worker counts")
	}
}

func TestExtColdShape(t *testing.T) {
	r := testRunner(t)
	res, err := ExtCold(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(testBenchmarks) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PrivateMPKI <= 0 {
			t.Fatalf("%s: cold run should have misses", row.Benchmark)
		}
		// In the cold regime sharing acts as a prefetcher: losses stay
		// bounded even where bus congestion outweighs the miss savings.
		if row.TimeRatio > 1.15 {
			t.Fatalf("%s: cold sharing ratio %.3f, expected <= ~1.1", row.Benchmark, row.TimeRatio)
		}
	}
	// CoEVP (highest MPKI) must show a clear speedup — the paper's
	// "performance improvement" case.
	name, best := res.Best()
	if best >= 1.0 {
		t.Fatalf("best cold ratio %.3f at %s: expected a speedup somewhere", best, name)
	}
	var coevp *ExtColdRow
	for i := range res.Rows {
		if res.Rows[i].Benchmark == "CoEVP" {
			coevp = &res.Rows[i]
		}
	}
	if coevp == nil || coevp.TimeRatio >= 1.0 {
		t.Fatalf("CoEVP should speed up cold: %+v", coevp)
	}
}
