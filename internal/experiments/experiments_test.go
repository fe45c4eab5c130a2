package experiments

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"sharedicache/internal/core"
	"sharedicache/internal/power"
)

// testBenchmarks is a subset spanning the interesting regimes: FT
// (regular, bandwidth-hungry), UA (the paper's worst naive-sharing
// case), nab (long serial blocks, 22% serial) and CoEVP (the only
// benchmark with parallel MPKI > 1).
var testBenchmarks = []string{"FT", "UA", "nab", "CoEVP"}

var (
	sharedRunnerOnce sync.Once
	sharedRunner     *Runner
	sharedRunnerErr  error
)

// testRunner returns a process-wide runner so the simulation cache is
// shared across tests.
func testRunner(t *testing.T) *Runner {
	t.Helper()
	sharedRunnerOnce.Do(func() {
		opts := DefaultOptions()
		opts.Instructions = 60_000
		opts.CharInstructions = 1_200_000
		opts.Benchmarks = testBenchmarks
		sharedRunner, sharedRunnerErr = NewRunner(opts)
	})
	if sharedRunnerErr != nil {
		t.Fatal(sharedRunnerErr)
	}
	return sharedRunner
}

// runOne resolves a single design point through RunAll.
func runOne(r *Runner, pt Point) (*core.Result, error) {
	res, err := r.RunAll(context.Background(), pt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Options){
		func(o *Options) { o.Workers = 0 },
		func(o *Options) { o.Instructions = 10 },
		func(o *Options) { o.Benchmarks = []string{"nope"} },
	}
	for i, mutate := range cases {
		o := DefaultOptions()
		mutate(&o)
		if o.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := NewRunner(Options{}); err == nil {
		t.Fatal("NewRunner with zero options should fail")
	}
}

func TestCharInstructionsResolution(t *testing.T) {
	o := DefaultOptions()
	if o.charInstructions() != 2_000_000 {
		t.Fatalf("default char budget = %d, want 2M", o.charInstructions())
	}
	o.Instructions = 5_000_000
	if o.charInstructions() != 5_000_000 {
		t.Fatal("char budget should track larger Instructions")
	}
	o.CharInstructions = 100_000
	if o.charInstructions() != 100_000 {
		t.Fatal("explicit char budget should win")
	}
}

func TestRunnerCachesRuns(t *testing.T) {
	r := testRunner(t)
	before := r.CachedRuns()
	a, err := runOne(r, Point{Bench: "FT", Cfg: core.PrivateConfig(8)})
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := r.CachedRuns()
	b, err := runOne(r, Point{Bench: "FT", Cfg: core.PrivateConfig(8)})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached run should return the identical result")
	}
	if r.CachedRuns() != afterFirst || afterFirst < before {
		t.Fatal("second run should not add a cache entry")
	}
	// Cold and warm runs are distinct cache entries.
	c, err := runOne(r, Point{Bench: "FT", Cfg: core.PrivateConfig(8), Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("cold and warm runs must be distinct")
	}
	if _, err := runOne(r, Point{Bench: "nope", Cfg: core.PrivateConfig(8)}); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestFig1Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig1(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 || len(res.Curves[0]) != len(res.Fractions) {
		t.Fatal("curve dimensions wrong")
	}
	// Paper: ACMP outperforms both symmetric designs above ~2% serial.
	if res.Crossover <= 0 || res.Crossover > 0.03 {
		t.Fatalf("crossover = %v, paper says ~0.02", res.Crossover)
	}
	// At f=0: 16 small cores (curve 1) wins; at 30%: ACMP (curve 2) wins.
	last := len(res.Fractions) - 1
	if !(res.Curves[1][0] > res.Curves[2][0] && res.Curves[2][last] > res.Curves[1][last]) {
		t.Fatal("Fig 1 ordering wrong at endpoints")
	}
	if res.Table().NumRows() != len(res.Fractions) {
		t.Fatal("table rows != fractions")
	}
}

func TestFig2Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig2(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig2Row{}
	for _, row := range res.Rows {
		byName[row.Benchmark] = row
		if row.SerialBB <= 0 || row.ParallelBB <= 0 {
			t.Fatalf("%s has empty sections", row.Benchmark)
		}
	}
	// Most benchmarks: parallel blocks longer than serial (the paper's
	// 3x claim); nab and CoEVP are the documented exceptions.
	if byName["FT"].ParallelBB <= byName["FT"].SerialBB ||
		byName["UA"].ParallelBB <= byName["UA"].SerialBB {
		t.Fatal("parallel blocks should be longer for FT/UA")
	}
	if byName["nab"].SerialBB <= byName["nab"].ParallelBB {
		t.Fatal("nab should have longer serial blocks (paper exception)")
	}
	if byName["CoEVP"].SerialBB <= byName["CoEVP"].ParallelBB {
		t.Fatal("CoEVP should have longer serial blocks (paper exception)")
	}
	s, p := res.AMean()
	if p <= s {
		t.Fatalf("amean parallel (%v) should exceed serial (%v)", p, s)
	}
}

func TestFig3Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig3(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Benchmark == "CoEVP" {
			if row.ParallelMPKI < 1 {
				t.Fatalf("CoEVP parallel MPKI = %v, paper says 1.27", row.ParallelMPKI)
			}
			continue
		}
		if row.ParallelMPKI >= 1 {
			t.Fatalf("%s parallel MPKI = %v, paper says << 1", row.Benchmark, row.ParallelMPKI)
		}
		if row.SerialMPKI <= row.ParallelMPKI {
			t.Fatalf("%s: serial MPKI (%v) should exceed parallel (%v)",
				row.Benchmark, row.SerialMPKI, row.ParallelMPKI)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig4(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.DynamicShared < 90 {
			t.Fatalf("%s dynamic sharing = %.1f%%, paper says ~99%%",
				row.Benchmark, row.DynamicShared)
		}
		if row.StaticShared <= 0 || row.StaticShared > 100 {
			t.Fatalf("%s static sharing out of range: %v", row.Benchmark, row.StaticShared)
		}
	}
	_, dyn := res.AMean()
	if dyn < 95 {
		t.Fatalf("mean dynamic sharing %.1f%%, paper says ~99%%", dyn)
	}
}

func TestTableIValues(t *testing.T) {
	r := testRunner(t)
	res, err := TableI(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.ICacheKB != 32 || res.Shared.ICacheKB != 16 {
		t.Fatal("I-cache sizes wrong")
	}
	if res.Baseline.Organization != "private" || res.Shared.Organization != "worker-shared" {
		t.Fatal("organizations wrong")
	}
	if res.Shared.CPC != 8 || res.Shared.Buses != 2 {
		t.Fatal("shared design point wrong")
	}
	out := res.Table().String()
	for _, want := range []string{"I-cache size", "L2 size", "line buffers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing row %q", want)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig7(context.Background(), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Sharing never helps naive timing by more than noise, and cost
		// grows with the sharing degree.
		if row.CPC2 < 0.98 || row.CPC4 < 0.98 || row.CPC8 < 0.98 {
			t.Fatalf("%s: naive sharing should not speed up: %+v", row.Benchmark, row)
		}
		if row.CPC8 < row.CPC2-0.02 {
			t.Fatalf("%s: cpc=8 (%v) should cost at least cpc=2 (%v)",
				row.Benchmark, row.CPC8, row.CPC2)
		}
	}
	worstName, worst := res.Worst()
	if worst < 1.02 {
		t.Fatalf("worst cpc=8 slowdown %.3f at %s: expected a measurable cost",
			worst, worstName)
	}
	// UA is the paper's worst case; with our subset it should be the
	// worst here too.
	if worstName != "UA" {
		t.Logf("note: worst benchmark is %s, paper highlights UA", worstName)
	}
}

func TestFig8Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig8(context.Background(), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.BaselineCPI != 1 {
			t.Fatal("baseline bucket must be 1")
		}
		if row.Total() < 1 {
			t.Fatalf("%s: stacked total below baseline", row.Benchmark)
		}
		extra := row.Total() - 1
		bus := row.BusLatency + row.BusCongest
		// The paper: the majority of extra stall cycles are bus-related.
		if extra > 0.02 && bus < extra*0.5 {
			t.Fatalf("%s: bus buckets (%.3f) should dominate extra CPI (%.3f)",
				row.Benchmark, bus, extra)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig9(context.Background(), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !(row.LB2 >= row.LB4 && row.LB4 >= row.LB8) {
			t.Fatalf("%s: access ratio must fall with more line buffers: %+v",
				row.Benchmark, row)
		}
		if row.LB2 <= 0 || row.LB2 > 100 {
			t.Fatalf("%s: ratio out of range", row.Benchmark)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig10(context.Background(), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Doubling the bandwidth must recover (nearly) all performance.
		if row.MoreBandwk > 1.03 {
			t.Fatalf("%s: double bus leaves %.3f slowdown", row.Benchmark, row.MoreBandwk)
		}
		if row.MoreBandwk > row.Naive+0.01 {
			t.Fatalf("%s: double bus (%.3f) should beat naive (%.3f)",
				row.Benchmark, row.MoreBandwk, row.Naive)
		}
	}
	naive, _, bw := res.Means()
	if bw >= naive {
		t.Fatal("mean: bandwidth must beat naive sharing")
	}
}

func TestFig11Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig11(context.Background(), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.PrivateMPKI <= 0 {
			t.Fatalf("%s: expected nonzero private MPKI in cold runs", row.Benchmark)
		}
		// Sharing reduces misses (cold misses paid once, not 8 times).
		if row.Shared32Pct >= 100 {
			t.Fatalf("%s: 32KB shared MPKI %.1f%% of private, expected < 100%%",
				row.Benchmark, row.Shared32Pct)
		}
		// The smaller shared cache gives up some of the reduction.
		if row.Shared16Pct < row.Shared32Pct-1 {
			t.Fatalf("%s: 16KB (%.1f%%) should not beat 32KB (%.1f%%)",
				row.Benchmark, row.Shared16Pct, row.Shared32Pct)
		}
	}
	if m := res.MeanReduction(); m >= 80 {
		t.Fatalf("mean shared/private MPKI = %.1f%%, paper says ~50%%", m)
	}
}

func TestFig12Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig12(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("expected 5 design points, got %d", len(res.Points))
	}
	head, energySaving, areaSaving, err := res.Headline()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: ~11% area and ~5% energy savings at no
	// performance cost. Accept generous bands around those values.
	if head.Time > 1.02 {
		t.Fatalf("headline design time ratio %.3f, paper says ~1.00", head.Time)
	}
	if energySaving < 0.02 || energySaving > 0.20 {
		t.Fatalf("energy saving %.3f, paper says ~0.05", energySaving)
	}
	if areaSaving < 0.06 || areaSaving > 0.20 {
		t.Fatalf("area saving %.3f, paper says ~0.11", areaSaving)
	}
	// Single-bus designs save the most area but cost performance.
	single, ok := res.Point("cpc=8 4LB 1bus")
	if !ok {
		t.Fatal("missing single-bus point")
	}
	if single.Area > head.Area+1e-9 {
		t.Fatal("single bus should not cost more area than double bus")
	}
	if single.Time < head.Time-1e-9 {
		t.Fatal("single bus should not be faster than double bus")
	}
	if _, ok := res.Point("nope"); ok {
		t.Fatal("unknown point lookup should fail")
	}
}

// TestFiguresUseCampaignWorkers: at Workers 16 the figures build their
// points with 16 workers, so Table I reports 16 worker cores and Fig
// 12 costs every design's cluster at the worker count of the run its
// activity comes from.
func TestFiguresUseCampaignWorkers(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 16
	opts.Instructions = 20_000
	opts.Benchmarks = []string{"FT"}
	opts.Backend = "analytical"
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tab, err := TableI(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Baseline.Workers != 16 || tab.Shared.Workers != 16 {
		t.Errorf("Table I worker cores = %d, %d, want 16, 16", tab.Baseline.Workers, tab.Shared.Workers)
	}
	fig, err := Fig12(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]core.Config{
		"baseline":       core.PrivateConfig(16),
		"cpc=8 4LB 1bus": core.WorkerSharedConfig(16, 8, 16, 4, 1),
		"cpc=8 4LB 2bus": core.WorkerSharedConfig(16, 8, 16, 4, 2),
		"cpc=8 8LB 1bus": core.WorkerSharedConfig(16, 8, 16, 8, 1),
		"cpc=8 8LB 2bus": core.WorkerSharedConfig(16, 8, 16, 8, 2),
	}
	tech := power.Default45nm()
	cost := func(cfg core.Config) power.Report {
		res, err := runOne(r, Point{Bench: "FT", Cfg: cfg})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tech.Evaluate(ClusterFor(cfg), ActivityFor(res))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := cost(designs["baseline"])
	for name, cfg := range designs {
		_, energy, _ := cost(cfg).Relative(base)
		if p, ok := fig.Point(name); !ok || p.Energy != energy {
			t.Errorf("%s: Fig 12 energy %v, want %v from a 16-worker cluster", name, p.Energy, energy)
		}
	}
	if n := r.Simulations(); n != len(designs) {
		t.Errorf("%d simulations, want Fig 12's %d", n, len(designs))
	}
}

func TestFig13Shape(t *testing.T) {
	r := testRunner(t)
	res, err := Fig13(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(testBenchmarks) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prev := -1.0
	for _, row := range res.Rows {
		if row.SerialFrac < prev {
			t.Fatal("rows must be sorted by serial fraction")
		}
		prev = row.SerialFrac
		// All-shared never helps (the paper's conclusion: keep the
		// master's I-cache private).
		if row.Ratio < 0.995 {
			t.Fatalf("%s: all-shared ratio %.4f, should not beat worker-shared",
				row.Benchmark, row.Ratio)
		}
		// A single bus makes all-sharing strictly worse (Group 3).
		if row.SingleBus < row.Ratio-0.02 {
			t.Fatalf("%s: single bus (%.4f) should not beat double (%.4f)",
				row.Benchmark, row.SingleBus, row.Ratio)
		}
	}
}

func TestFig13Groups(t *testing.T) {
	if g := classifyFig13(profileFor("nab")); g != Group2LongSerialBlocks {
		t.Fatalf("nab group = %v", g)
	}
	if g := classifyFig13(profileFor("CoEVP")); g != Group2LongSerialBlocks {
		t.Fatalf("CoEVP group = %v", g)
	}
	if g := classifyFig13(profileFor("CoMD")); g != Group1SerialLocality {
		t.Fatalf("CoMD group = %v", g)
	}
	if g := classifyFig13(profileFor("FT")); g != Group0Default {
		t.Fatalf("FT group = %v", g)
	}
	for _, g := range []Fig13Group{Group0Default, Group1SerialLocality, Group2LongSerialBlocks} {
		if g.String() == "" || strings.HasPrefix(g.String(), "Fig13Group(") {
			t.Fatalf("group %d has no name", g)
		}
	}
	if !strings.HasPrefix(Fig13Group(9).String(), "Fig13Group(") {
		t.Fatal("unknown group should format numerically")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("expected 14 experiments (12 paper + 2 extensions), got %d", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s: incomplete registration", id)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

// TestCheckWorkersMatchesRun: CheckWorkers refuses a worker count
// exactly when the experiment would fail on it, so the registry's
// sharing degrees stay in step with the configs each figure builds.
func TestCheckWorkersMatchesRun(t *testing.T) {
	r := smallRunner(t, func(o *Options) { o.Workers, o.Benchmarks = 4, []string{"FT"} })
	for _, e := range All() {
		_, runErr := e.Run(context.Background(), r, nil)
		if checkErr := e.CheckWorkers(4); (checkErr != nil) != (runErr != nil) {
			t.Errorf("%s at 4 workers: CheckWorkers = %v, Run = %v", e.ID, checkErr, runErr)
		}
	}
}

// TestRegistryRunsAll executes every experiment through the registry
// interface on the shared runner — the integration path cmd/experiments
// uses.
func TestRegistryRunsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	r := testRunner(t)
	for _, e := range All() {
		res, err := e.Run(context.Background(), r, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tbl := res.Table()
		if tbl.NumRows() == 0 {
			t.Fatalf("%s: empty table", e.ID)
		}
		if tbl.String() == "" {
			t.Fatalf("%s: empty rendering", e.ID)
		}
	}
}

func TestFig13SlopeFinite(t *testing.T) {
	r := testRunner(t)
	res, err := Fig13(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Slope(); math.IsNaN(s) || math.IsInf(s, 0) {
		t.Fatalf("slope = %v", s)
	}
}
