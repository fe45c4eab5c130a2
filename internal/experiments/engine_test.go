package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sharedicache/internal/core"
)

// smallRunner builds a fresh runner (its own cache) for engine tests.
func smallRunner(t *testing.T, mutate func(*Options)) *Runner {
	t.Helper()
	opts := DefaultOptions()
	opts.Instructions = 20_000
	opts.CharInstructions = 200_000
	opts.Benchmarks = []string{"FT", "UA"}
	if mutate != nil {
		mutate(&opts)
	}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSingleflightOneKey hammers a single design point from many
// goroutines: the per-key latch must collapse them onto one underlying
// simulation whose result every caller shares. This is the regression
// test for the old check-then-insert race, which let concurrent
// callers duplicate whole simulations.
func TestSingleflightOneKey(t *testing.T) {
	r := smallRunner(t, func(o *Options) { o.Benchmarks = []string{"FT"} })
	const n = 16
	results := make([]*core.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := runOne(r, Point{Bench: "FT", Cfg: baselineConfig()})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result object", i)
		}
	}
	if got := r.CachedRuns(); got != 1 {
		t.Fatalf("CachedRuns = %d, want 1", got)
	}
	if got := r.Simulations(); got != 1 {
		t.Fatalf("Simulations = %d, want exactly 1 underlying simulation", got)
	}
}

// TestPlanOrderAndDedup checks that RunAll returns results in plan
// order and that duplicate points inside one plan cost one simulation.
func TestPlanOrderAndDedup(t *testing.T) {
	r := smallRunner(t, nil)
	plan := r.Plan()
	i0 := plan.AddPoint(Point{Bench: "FT", Cfg: baselineConfig()})
	i1 := plan.AddPoint(Point{Bench: "UA", Cfg: baselineConfig()})
	i2 := plan.AddPoint(Point{Bench: "FT", Cfg: baselineConfig()}) // duplicate of i0
	i3 := plan.AddPoint(Point{Bench: "FT", Cfg: baselineConfig(), Cold: true})
	if plan.Len() != 4 {
		t.Fatalf("Len = %d", plan.Len())
	}
	results, err := plan.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results[i0] != results[i2] {
		t.Fatal("duplicate points must share one cached result")
	}
	if results[i0] == results[i1] || results[i0] == results[i3] {
		t.Fatal("distinct points must have distinct results")
	}
	if got := r.Simulations(); got != 3 {
		t.Fatalf("Simulations = %d, want 3 (FT warm, UA warm, FT cold)", got)
	}
}

// TestParallelSerialEquivalence runs the same figure campaign at
// Parallelism 1 and 8 and requires bit-identical results per
// benchmark: determinism is what makes the paper reproduction
// trustworthy under concurrency.
func TestParallelSerialEquivalence(t *testing.T) {
	serial := smallRunner(t, func(o *Options) { o.Parallelism = 1 })
	parallel := smallRunner(t, func(o *Options) { o.Parallelism = 8 })

	ctx := context.Background()
	plan := func(r *Runner) *Plan {
		p := r.Plan()
		for _, b := range []string{"FT", "UA"} {
			p.AddPoint(Point{Bench: b, Cfg: baselineConfig()})
			p.AddPoint(Point{Bench: b, Cfg: sharedConfig(8, 32, 4, 1)})
			p.AddPoint(Point{Bench: b, Cfg: sharedConfig(8, 16, 4, 2)})
			p.AddPoint(Point{Bench: b, Cfg: baselineConfig(), Cold: true})
		}
		return p
	}
	sres, err := plan(serial).RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := plan(parallel).RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sres {
		if !reflect.DeepEqual(sres[i], pres[i]) {
			t.Fatalf("point %d: parallel result differs from serial", i)
		}
	}

	// And at the figure level: identical rows.
	f7s, err := Fig7(ctx, serial, nil)
	if err != nil {
		t.Fatal(err)
	}
	f7p, err := Fig7(ctx, parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f7s, f7p) {
		t.Fatalf("Fig7 differs across parallelism:\nserial  %+v\nparallel %+v", f7s.Rows, f7p.Rows)
	}
	f11s, err := Fig11(ctx, serial, nil)
	if err != nil {
		t.Fatal(err)
	}
	f11p, err := Fig11(ctx, parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f11s, f11p) {
		t.Fatal("Fig11 differs across parallelism")
	}
	f2s, err := Fig2(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	f2p, err := Fig2(ctx, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f2s, f2p) {
		t.Fatal("Fig2 differs across parallelism")
	}
}

// TestRunAllErrorPropagation plants a failing design point at the head
// of a batch: its error must carry the benchmark and configuration,
// and the remaining points must be cancelled, not simulated.
func TestRunAllErrorPropagation(t *testing.T) {
	r := smallRunner(t, func(o *Options) { o.Parallelism = 1 })
	plan := r.Plan()
	plan.AddPoint(Point{Bench: "nope", Cfg: baselineConfig()})
	for i := 0; i < 8; i++ {
		cfg := baselineConfig()
		cfg.LineBuffers = 2 + i // 8 distinct points
		plan.AddPoint(Point{Bench: "FT", Cfg: cfg})
	}
	_, err := plan.RunAll(context.Background())
	if err == nil {
		t.Fatal("expected the unknown benchmark to fail the batch")
	}
	if !strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "private") {
		t.Fatalf("error should carry bench and config context, got: %v", err)
	}
	if got := r.Simulations(); got != 0 {
		t.Fatalf("failing first point should cancel the batch, but %d simulations ran", got)
	}
}

// TestRunAllCancelledContext verifies a pre-cancelled context aborts
// the batch before any simulation starts.
func TestRunAllCancelledContext(t *testing.T) {
	r := smallRunner(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunAll(ctx, Point{Bench: "FT", Cfg: baselineConfig()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := r.Simulations(); got != 0 {
		t.Fatalf("%d simulations ran under a cancelled context", got)
	}
	// The cancelled attempt must not poison the cache: a live context
	// succeeds afterwards.
	if _, err := r.RunAll(context.Background(), Point{Bench: "FT", Cfg: baselineConfig()}); err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 1 {
		t.Fatalf("Simulations = %d after retry, want 1", got)
	}
}

// TestFigureCancellation cancels a figure campaign mid-flight via a
// context that dies immediately; the generator must surface the
// cancellation as an error.
func TestFigureCancellation(t *testing.T) {
	r := smallRunner(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig7(ctx, r, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig7 err = %v, want context.Canceled", err)
	}
	if _, err := Fig2(ctx, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig2 err = %v, want context.Canceled", err)
	}
}

// TestParallelismResolution pins the Parallelism option semantics.
func TestParallelismResolution(t *testing.T) {
	o := DefaultOptions()
	if o.parallelism() < 1 {
		t.Fatal("default parallelism must be at least 1")
	}
	o.Parallelism = 3
	if o.parallelism() != 3 {
		t.Fatal("explicit parallelism should win")
	}
	o.Parallelism = -1
	if o.Validate() == nil {
		t.Fatal("negative Parallelism must fail validation")
	}
}
