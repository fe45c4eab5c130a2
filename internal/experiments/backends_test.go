package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/runstore"
)

// TestBackendRegistry pins the registry surface: both built-ins are
// present, unknown names are rejected at runner construction, and the
// default resolves to the detailed simulator.
func TestBackendRegistry(t *testing.T) {
	names := BackendNames()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["detailed"] || !found["analytical"] {
		t.Fatalf("BackendNames() = %v, want detailed and analytical", names)
	}
	if !BackendRegistered(DefaultBackend) || BackendRegistered("no-such-backend") {
		t.Fatal("BackendRegistered disagrees with the registry")
	}

	opts := DefaultOptions()
	opts.Backend = "no-such-backend"
	if _, err := NewRunner(opts); err == nil {
		t.Fatal("NewRunner accepted an unregistered backend")
	}
	if (Options{Workers: 8, Instructions: 20_000}).backendName() != DefaultBackend {
		t.Fatal("empty Options.Backend did not resolve to the default")
	}
}

// TestAnalyticalBackendDeterministic pins the analytical model's core
// contract: identical inputs produce identical results (campaign
// reproducibility rests on it), the estimate is populated well enough
// for the CSV and power pipelines, and a design point resolves in
// far less time than a cycle-level simulation would take.
func TestAnalyticalBackendDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 120_000
	b, err := newBackend("analytical", opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.WorkerSharedConfig(opts.Workers, 8, 16, 4, 2)
	ctx := context.Background()

	start := time.Now()
	first, err := b.Execute(ctx, "FT", cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	second, err := b.Execute(ctx, "FT", cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("analytical backend is not deterministic")
	}
	if first.Cycles == 0 || len(first.Cores) != opts.Workers+1 {
		t.Fatalf("degenerate estimate: cycles=%d cores=%d", first.Cycles, len(first.Cores))
	}
	if first.WorkerICache.Accesses == 0 || first.Bus.Granted == 0 {
		t.Fatalf("estimate missing CSV inputs: %+v / %+v", first.WorkerICache, first.Bus)
	}
	if first.WorkerInstructions() == 0 {
		t.Fatal("estimate has no worker instructions")
	}
	// A generous bound: the analytical path must stay triage-fast. The
	// detailed backend takes hundreds of milliseconds on this point.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("analytical estimate took %v; the triage backend must be cheap", elapsed)
	}

	// Cold estimates differ from prewarmed ones (the compulsory-miss
	// dynamics Fig 11 studies), and the private baseline carries no bus.
	cold, err := b.Execute(ctx, "FT", cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, cold) {
		t.Fatal("prewarm has no effect on the analytical estimate")
	}
	base := core.PrivateConfig(opts.Workers)
	priv, err := b.Execute(ctx, "FT", base, true)
	if err != nil {
		t.Fatal(err)
	}
	if priv.Bus.Granted != 0 {
		t.Fatal("private baseline estimate reports bus traffic")
	}

	// Unknown benchmarks are an error, not a panic.
	if _, err := b.Execute(ctx, "ZZ", cfg, true); err == nil {
		t.Fatal("analytical backend accepted an unknown benchmark")
	}
}

// TestBackendStoreKeyIsolation is the cache-isolation acceptance pin:
// the same design point under the detailed and analytical backends
// must produce distinct persistent-store keys, and a store warmed by
// one backend must be a clean miss for the other.
func TestBackendStoreKeyIsolation(t *testing.T) {
	pt := Point{Bench: "FT", Cfg: core.WorkerSharedConfig(8, 8, 16, 4, 2)}

	detailed := smallRunner(t, nil)
	analytical := smallRunner(t, func(o *Options) { o.Backend = "analytical" })
	dk, ak := detailed.PointKey(pt), analytical.PointKey(pt)
	if dk == ak {
		t.Fatal("detailed and analytical share a store key")
	}
	if dk.Campaign.Backend != "detailed/v1" || ak.Campaign.Backend != "analytical/v1" {
		t.Fatalf("backend fingerprints = %q / %q", dk.Campaign.Backend, ak.Campaign.Backend)
	}
	// A per-point override changes the key the same way the campaign
	// option does, so mixed plans shard and merge consistently.
	override := pt
	override.Backend = "analytical"
	if detailed.PointKey(override) != ak {
		t.Fatal("per-point backend override disagrees with the campaign-wide option")
	}

	// Warm the store under the analytical backend, then point a
	// detailed campaign at it: every point must re-simulate.
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	analytical.SetStore(store)
	plan := analytical.Plan(pt)
	if _, err := plan.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if analytical.Simulations() != 1 {
		t.Fatalf("analytical warm-up simulated %d points, want 1", analytical.Simulations())
	}

	detailed.SetStore(store)
	if _, ok := detailed.Lookup(pt); ok {
		t.Fatal("detailed Lookup hit an analytical entry")
	}
	if _, err := detailed.Plan(pt).RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if detailed.Simulations() != 1 {
		t.Fatalf("warm analytical store satisfied a detailed campaign (%d simulations, want 1)",
			detailed.Simulations())
	}
	// And the reverse: a second analytical runner hits, proving the
	// store itself is warm — the isolation is the key, not a cold disk.
	again := smallRunner(t, func(o *Options) { o.Backend = "analytical" })
	again.SetStore(store)
	if _, ok := again.Lookup(pt); !ok {
		t.Fatal("analytical entry lost from the warm store")
	}
}

// TestMixedBackendPlan pins the per-point override inside one runner:
// the same (bench, cfg, prewarm) point under two backends is two
// distinct runs in the memory tier, executed once each and counted per
// backend.
func TestMixedBackendPlan(t *testing.T) {
	r := smallRunner(t, nil)
	cfg := core.WorkerSharedConfig(8, 8, 16, 4, 2)
	plan := r.Plan(
		Point{Bench: "FT", Cfg: cfg},
		Point{Bench: "FT", Cfg: cfg, Backend: "analytical"},
		Point{Bench: "FT", Cfg: cfg}, // duplicate of point 0: free
	)
	results, err := plan.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != 2 {
		t.Fatalf("mixed plan executed %d simulations, want 2 (one per backend)", r.Simulations())
	}
	by := r.BackendRuns()
	if by["detailed"] != 1 || by["analytical"] != 1 {
		t.Fatalf("BackendRuns = %v, want one detailed and one analytical", by)
	}
	if reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("detailed and analytical produced identical results (cache cross-talk?)")
	}
	if results[0] != results[2] {
		t.Fatal("duplicate detailed point was not served from the run cache")
	}

	// An unregistered per-point backend fails that point with a clear
	// error instead of silently running the default.
	if _, err := r.Plan(Point{Bench: "FT", Cfg: cfg, Backend: "no-such-backend"}).RunAll(context.Background()); err == nil {
		t.Fatal("plan accepted a point with an unregistered backend")
	}
}

// TestBackendDefaultBitIdentity pins the acceptance criterion that the
// refactor left the default path untouched: a runner with no backend
// selection produces results identical to one that names "detailed"
// explicitly, and both store under the same key.
func TestBackendDefaultBitIdentity(t *testing.T) {
	implicit := smallRunner(t, nil)
	explicit := smallRunner(t, func(o *Options) { o.Backend = "detailed" })
	pt := Point{Bench: "UA", Cfg: core.WorkerSharedConfig(8, 2, 32, 4, 1)}
	if implicit.PointKey(pt) != explicit.PointKey(pt) {
		t.Fatal("implicit and explicit detailed backends disagree on store keys")
	}
	a, err := implicit.Plan(pt).RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Plan(pt).RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("explicit detailed selection changed results")
	}
}
