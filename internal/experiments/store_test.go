package experiments

import (
	"context"
	"reflect"
	"testing"

	"sharedicache/internal/runstore"
)

// storeRunner is smallRunner with a persistent store attached.
func storeRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	r := smallRunner(t, nil)
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.SetStore(store)
	return r
}

// campaignPlan declares the shared test campaign: per benchmark the
// private baseline plus three distinct shared points.
func campaignPlan(r *Runner) *Plan {
	plan := r.Plan()
	for _, b := range []string{"FT", "UA"} {
		plan.AddPoint(Point{Bench: b, Cfg: baselineConfig()})
		plan.AddPoint(Point{Bench: b, Cfg: sharedConfig(2, 32, 4, 1)})
		plan.AddPoint(Point{Bench: b, Cfg: sharedConfig(8, 16, 4, 2)})
		plan.AddPoint(Point{Bench: b, Cfg: baselineConfig(), Cold: true})
	}
	return plan
}

// TestWarmStoreZeroSimulations is the acceptance pin for the
// persistent tier: a repeated campaign against a warm store performs
// zero simulations and returns identical results.
func TestWarmStoreZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cold := storeRunner(t, dir)
	first, err := campaignPlan(cold).RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cold.Simulations(), campaignPlan(cold).Len(); got != want {
		t.Fatalf("cold campaign simulated %d points, want %d", got, want)
	}

	warm := storeRunner(t, dir)
	second, err := campaignPlan(warm).RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Simulations(); got != 0 {
		t.Fatalf("warm campaign simulated %d points, want 0", got)
	}
	if st := warm.Store().Stats(); st.Hits != int64(len(second)) {
		t.Fatalf("warm campaign store hits = %d, want %d", st.Hits, len(second))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("store round trip changed campaign results")
	}

	// And the disk tier matches a storeless simulation bit for bit.
	direct, err := campaignPlan(smallRunner(t, nil)).RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, second) {
		t.Fatal("stored results differ from directly simulated results")
	}
}

// TestTwoShardCampaign proves the sharding contract: the shards
// partition the plan (union == whole, pairwise disjoint), running them
// through one store performs zero overlapping simulations, and a
// subsequent merged pass resolves the full campaign from disk alone.
func TestTwoShardCampaign(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	probe := storeRunner(t, dir)
	whole := campaignPlan(probe)

	// Partition check, independent of execution.
	seen := map[string]int{}
	for _, pt := range whole.Points() {
		seen[probe.PointKey(pt).Hex()] = 0
	}
	shardLens := 0
	for i := 1; i <= 2; i++ {
		sub, err := whole.Shard(Shard{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		shardLens += sub.Len()
		for _, pt := range sub.Points() {
			seen[probe.PointKey(pt).Hex()]++
		}
	}
	if shardLens != whole.Len() {
		t.Fatalf("shard sizes sum to %d, want %d", shardLens, whole.Len())
	}
	for hex, n := range seen {
		if n != 1 {
			t.Fatalf("point %s assigned to %d shards, want exactly 1", hex[:16], n)
		}
	}

	// Execute each shard in its own runner (its own process, in
	// effect), all against one store directory.
	totalSims := 0
	for i := 1; i <= 2; i++ {
		r := storeRunner(t, dir)
		sub, err := campaignPlan(r).Shard(Shard{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sub.RunAll(ctx); err != nil {
			t.Fatal(err)
		}
		if got := r.Simulations(); got != sub.Len() {
			t.Fatalf("shard %d simulated %d points, want its %d — overlap or store miss", i, got, sub.Len())
		}
		totalSims += r.Simulations()
	}
	if totalSims != whole.Len() {
		t.Fatalf("shards simulated %d points total, want %d (zero overlap)", totalSims, whole.Len())
	}

	// Merge: the union of the shards resolves the whole campaign with
	// zero simulations, via RunAll and via store-only Lookup alike.
	merge := storeRunner(t, dir)
	merged, err := campaignPlan(merge).RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := merge.Simulations(); got != 0 {
		t.Fatalf("merge pass simulated %d points, want 0", got)
	}
	for i, pt := range campaignPlan(merge).Points() {
		res, ok := merge.Lookup(pt)
		if !ok {
			t.Fatalf("Lookup missed point %d after sharded run", i)
		}
		if !reflect.DeepEqual(res, merged[i]) {
			t.Fatalf("Lookup result %d differs from campaign result", i)
		}
	}

	// The sharded union is bit-identical to an unsharded simulation.
	direct, err := campaignPlan(smallRunner(t, nil)).RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, merged) {
		t.Fatal("sharded union differs from unsharded campaign")
	}
}

// TestLookupWithoutStore pins Lookup's no-store behaviour.
func TestLookupWithoutStore(t *testing.T) {
	r := smallRunner(t, nil)
	if _, ok := r.Lookup(Point{Bench: "FT", Cfg: baselineConfig()}); ok {
		t.Fatal("Lookup hit with no store attached")
	}
}

// TestLookupStoreOnly pins that Lookup resolves purely from the store:
// it never simulates, it misses on absent points even when the point
// is cheap to compute, and it honours the Cold flag and campaign
// prewarm policy when deriving the key.
func TestLookupStoreOnly(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir)
	warm := Point{Bench: "FT", Cfg: sharedConfig(8, 16, 4, 2)}
	cold := Point{Bench: "FT", Cfg: sharedConfig(8, 16, 4, 2), Cold: true}

	// Absent: a miss, and crucially zero simulations.
	if _, ok := r.Lookup(warm); ok {
		t.Fatal("Lookup hit on an empty store")
	}
	if got := r.Simulations(); got != 0 {
		t.Fatalf("Lookup simulated %d points; it must never simulate", got)
	}

	// Populate only the warm variant; the cold variant stays a miss
	// because Cold is part of the identity.
	res, err := runOne(r, warm)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup(warm)
	if !ok {
		t.Fatal("Lookup missed a stored point")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("Lookup returned a different result than the simulation stored")
	}
	if _, ok := r.Lookup(cold); ok {
		t.Fatal("Lookup conflated the cold variant with the warm one")
	}

	// A fresh runner over the same directory (a separate merge process,
	// in effect) resolves the point with zero simulations of its own.
	other := storeRunner(t, dir)
	if _, ok := other.Lookup(warm); !ok {
		t.Fatal("second process missed the stored point")
	}
	if other.Simulations() != 0 {
		t.Fatal("second process simulated during Lookup")
	}
}

// TestShardValidation pins the i/N parsing and range rules against the
// full zoo of malformed CLI spellings: zero or out-of-range indexes
// (0/N, i>N), negatives, non-numeric parts, whitespace, trailing
// garbage, missing halves and overflow.
func TestShardValidation(t *testing.T) {
	if sh, err := ParseShard("2/4"); err != nil || sh != (Shard{Index: 2, Count: 4}) {
		t.Fatalf("ParseShard(2/4) = %v, %v", sh, err)
	}
	if sh, err := ParseShard("1/1"); err != nil || sh != (Shard{Index: 1, Count: 1}) {
		t.Fatalf("ParseShard(1/1) = %v, %v", sh, err)
	}
	bad := []string{
		"", "3", "/", "1/", "/4", // missing halves
		"0/4", "5/4", "4/0", "1/0", // out of range: i=0, i>N, N=0
		"-1/4", "1/-4", "-1/-4", // negatives
		"a/b", "one/four", "1/4/", "1/2x", "x1/2", "1/2,2/2", "1/2/3", // garbage
		" 1/2", "1 /2", "1/ 2", "1/2 ", // whitespace is not trimmed silently
		"99999999999999999999/4", "1/99999999999999999999", // overflow
	}
	for _, s := range bad {
		if _, err := ParseShard(s); err == nil {
			t.Fatalf("ParseShard(%q) accepted", s)
		}
	}
	r := smallRunner(t, nil)
	if _, err := r.Plan().Shard(Shard{Index: 3, Count: 2}); err == nil {
		t.Fatal("Plan.Shard accepted an out-of-range shard")
	}
	if _, err := r.Plan().Shard(Shard{Index: 0, Count: 2}); err == nil {
		t.Fatal("Plan.Shard accepted shard index 0")
	}
	if _, err := r.Plan().Shard(Shard{Index: 1, Count: 0}); err == nil {
		t.Fatal("Plan.Shard accepted a zero shard count")
	}
}

// TestPointKeyStability pins that PointKey resolves the campaign
// prewarm policy and worker count, so two processes with equal options
// agree on every key.
func TestPointKeyStability(t *testing.T) {
	a := smallRunner(t, nil)
	b := smallRunner(t, nil)
	pt := Point{Bench: "FT", Cfg: sharedConfig(8, 16, 4, 2)}
	if a.PointKey(pt) != b.PointKey(pt) {
		t.Fatal("equal runners disagree on a point key")
	}
	cold := Point{Bench: "FT", Cfg: sharedConfig(8, 16, 4, 2), Cold: true}
	if a.PointKey(pt) == a.PointKey(cold) {
		t.Fatal("cold flag not part of the key")
	}
	other := smallRunner(t, func(o *Options) { o.Seed = 99 })
	if a.PointKey(pt) == other.PointKey(pt) {
		t.Fatal("seed not part of the key")
	}
}
