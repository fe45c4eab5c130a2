package experiments

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"sharedicache/internal/metrics"
	"sharedicache/internal/simreport"
)

// fig7Plan declares the paper's Fig 7 design space over the runner's
// benchmarks: the private baseline plus the shared organisation at
// sharing degrees 2, 4 and 8 (32 KB, 4 line buffers, 1 bus).
func fig7Plan(r *Runner) *Plan {
	plan := r.Plan()
	for _, p := range r.opts.profiles() {
		plan.AddPoint(Point{Bench: p.Name, Cfg: baselineConfig()})
		for _, cpc := range []int{2, 4, 8} {
			plan.AddPoint(Point{Bench: p.Name, Cfg: sharedConfig(cpc, 32, 4, 1)})
		}
	}
	return plan
}

// TestReporterFig7Conservation is the acceptance pin for the capture
// path: every point of the Fig 7 space on the detailed backend yields
// exactly one report whose stall-stack cycles sum to its
// section-accounted core cycles, with real host cost attached.
func TestReporterFig7Conservation(t *testing.T) {
	r := smallRunner(t, nil)
	col := simreport.NewCollector()
	r.SetReporter(col)

	plan := fig7Plan(r)
	if _, err := plan.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := col.Len(), plan.Len(); got != want {
		t.Fatalf("collected %d reports over %d points", got, want)
	}

	wantKeys := map[string]bool{}
	for _, pt := range plan.Points() {
		wantKeys[r.PointKey(pt).Hex()] = true
	}
	for _, rep := range col.Reports() {
		if !wantKeys[rep.Key] {
			t.Fatalf("report keyed %s matches no plan point", rep.Key)
		}
		if rep.Backend != "detailed" {
			t.Fatalf("report backend = %q", rep.Backend)
		}
		if rep.StackTotal() == 0 {
			t.Fatalf("%s %s/cpc=%d: empty stall stack", rep.Bench, rep.Org, rep.CPC)
		}
		if rep.StackTotal() != rep.CoreCycles() {
			t.Fatalf("%s %s/cpc=%d: conservation violated: stack %d != core cycles %d",
				rep.Bench, rep.Org, rep.CPC, rep.StackTotal(), rep.CoreCycles())
		}
		if rep.Host.Replayed || rep.Host.WallSeconds <= 0 {
			t.Fatalf("%s %s/cpc=%d: live execution missing host cost: %+v",
				rep.Bench, rep.Org, rep.CPC, rep.Host)
		}
	}

	// The campaign summary inherits conservation.
	s := col.Summary()
	if s.CoreCycles == 0 || s.CoreCycles != s.StackCycles {
		t.Fatalf("summary totals %d/%d violate conservation", s.CoreCycles, s.StackCycles)
	}
}

// TestWarmStoreReplaysReports is the acceptance pin for telemetry on
// warm hits: a second campaign over a populated store makes zero
// simulations and rebuilds one Replayed report per point from the
// stored result. The microarchitectural half matches the cold run's
// capture exactly; only the host cost, unknown on a replay, is absent.
// Nothing but results is persisted.
func TestWarmStoreReplaysReports(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cold := storeRunner(t, dir)
	coldCol := simreport.NewCollector()
	cold.SetReporter(coldCol)
	if _, err := campaignPlan(cold).RunAll(ctx); err != nil {
		t.Fatal(err)
	}
	coldByKey := map[string]simreport.Report{}
	for _, rep := range coldCol.Reports() {
		coldByKey[rep.Key] = rep
	}

	warm := storeRunner(t, dir)
	warmCol := simreport.NewCollector()
	warm.SetReporter(warmCol)
	if _, err := campaignPlan(warm).RunAll(ctx); err != nil {
		t.Fatal(err)
	}
	if got := warm.Simulations(); got != 0 {
		t.Fatalf("warm campaign simulated %d points, want 0", got)
	}
	if got, want := warmCol.Len(), coldCol.Len(); got != want {
		t.Fatalf("warm campaign collected %d reports, want %d", got, want)
	}
	for _, rep := range warmCol.Reports() {
		if rep.Host != (simreport.HostCost{Replayed: true}) {
			t.Fatalf("warm report %s host = %+v, want Replayed with no cost", rep.Key, rep.Host)
		}
		want, ok := coldByKey[rep.Key]
		if !ok {
			t.Fatalf("warm report %s has no cold counterpart", rep.Key)
		}
		rep.Host, want.Host = simreport.HostCost{}, simreport.HostCost{}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("warm report %s differs from the cold capture", rep.Key)
		}
	}
	if arts := reportArtifacts(t, dir); len(arts) != 0 {
		t.Fatalf("store holds simreport artifacts %v", arts)
	}
}

// reportArtifacts lists the simreport-*.artifact files in a store
// directory (earlier versions persisted reports there).
func reportArtifacts(t *testing.T, dir string) []string {
	t.Helper()
	arts, err := filepath.Glob(filepath.Join(dir, "simreport-*.artifact"))
	if err != nil {
		t.Fatal(err)
	}
	return arts
}

// TestReporterMetrics pins the one-record rule for host cost: the
// registry books each execution in runner_simulations_total and holds
// no per-point wall-time or rate histogram; the reports' host cost is
// the only record, and the summary's rate distribution is derived
// from it. Attaching a reporter alongside a registry registers the
// stall-share gauges.
func TestReporterMetrics(t *testing.T) {
	r := smallRunner(t, func(o *Options) { o.Parallelism = 1 })
	reg := metrics.NewRegistry()
	r.SetMetrics(reg)
	col := simreport.NewCollector()
	r.SetReporter(col)

	for _, bench := range []string{"FT", "UA"} {
		if _, err := runOne(r, Point{Bench: bench, Cfg: sharedConfig(8, 16, 4, 1)}); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if v, ok := snap.Value("runner_simulations_total", metrics.L("backend", "detailed")); !ok || v != 2 {
		t.Fatalf("runner_simulations_total{backend=detailed} = %v (ok=%v), want 2", v, ok)
	}
	var share *metrics.FamilySnapshot
	for i := range snap {
		switch snap[i].Name {
		case "runner_point_duration_seconds", "runner_sim_cycles_per_second":
			t.Fatalf("registry duplicates the reports' host cost in %s", snap[i].Name)
		case "runner_stall_share":
			share = &snap[i]
		}
	}
	if share == nil || len(share.Series) != len(simreport.ShareKinds) {
		t.Fatalf("stall-share gauges missing: %+v", share)
	}
	var total float64
	for _, s := range share.Series {
		total += s.Value
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("stall shares sum to %v, want 1", total)
	}

	reports := col.Reports()
	if len(reports) != 2 {
		t.Fatalf("collected %d reports, want 2", len(reports))
	}
	var rateSum float64
	for _, rep := range reports {
		if rep.Host.WallSeconds <= 0 {
			t.Fatalf("live report %s has no wall time: %+v", rep.Key, rep.Host)
		}
		rateSum += float64(rep.Cycles) / rep.Host.WallSeconds
	}
	sum := col.Summary()
	if len(sum.Backends) != 1 {
		t.Fatalf("summary backends = %+v", sum.Backends)
	}
	rate := sum.Backends[0].SimCyclesPerSecond
	if want := rateSum / 2; rate.Count != 2 || math.Abs(rate.Mean-want) > 1e-9*want {
		t.Fatalf("summary rate = %+v, want 2 observations with mean %v (Cycles/WallSeconds)", rate, want)
	}
}

// TestReporterOffByDefault pins the disabled mode: no collector, no
// reports, no artifacts — and campaigns behave exactly as before.
func TestReporterOffByDefault(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir)
	if r.Reporter() != nil {
		t.Fatal("a fresh runner should have no reporter")
	}
	if _, err := campaignPlan(r).RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if arts := reportArtifacts(t, dir); len(arts) != 0 {
		t.Fatalf("disabled reporting persisted artifacts %v", arts)
	}
}
