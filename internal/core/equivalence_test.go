package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"sharedicache/internal/interconnect"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
)

// These tests pin the fast path's defining invariant: the event-driven
// skip-ahead loop (Run) must produce a Result deep-equal to the naive
// tick-every-cycle loop (RunReference) — same cycles, same CPI stacks,
// same cache/bus/DRAM statistics, bit for bit. Any divergence is a bug
// in a NextEvent/StallWindow contract, never an acceptable
// approximation. See docs/PERFORMANCE.md.

// buildSim constructs one simulator over bench's workload, optionally
// prewarmed to steady state, mirroring experiments.detailedBackend.
func buildSim(t testing.TB, cfg Config, bench string, instr, seed uint64, warm bool) *Simulator {
	t.Helper()
	p, ok := synth.ProfileByName(bench)
	if !ok {
		t.Fatalf("no profile %q", bench)
	}
	w, err := synth.New(p, synth.Config{Workers: cfg.Workers, MasterInstructions: instr, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]trace.Source, w.NumThreads())
	for i := range srcs {
		srcs[i] = w.Source(i)
	}
	sim, err := New(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		ic := make([][]uint64, w.NumThreads())
		l2 := make([][]uint64, w.NumThreads())
		for i := range ic {
			ic[i] = w.WarmLines(i, cfg.ICache.LineBytes)
			l2[i] = w.L2WarmLines(i, cfg.Mem.L2.LineBytes)
		}
		sim.Prewarm(ic, l2)
	}
	return sim
}

// assertEquivalent runs the same point through both loops, requires
// deep-equal results and returns the fast loop's.
func assertEquivalent(t *testing.T, cfg Config, bench string, instr, seed uint64, warm bool) *Result {
	t.Helper()
	fast, err := buildSim(t, cfg, bench, instr, seed, warm).Run()
	if err != nil {
		t.Fatalf("fast loop: %v", err)
	}
	ref, err := buildSim(t, cfg, bench, instr, seed, warm).RunReference()
	if err != nil {
		t.Fatalf("reference loop: %v", err)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Errorf("fast and reference results diverge\nfast: %+v\nref:  %+v", fast, ref)
	}
	return fast
}

// resultDigest is a SHA-256 over the JSON encoding of every Result a
// differential test produces, in run order. Run and RunReference share
// the front-end and every other unit, so their agreement cannot see a
// change that is wrong in both loops; the digest pins the results
// themselves against testdata/results.sha256.
type resultDigest struct {
	h hash.Hash
	n int
}

func newResultDigest() *resultDigest { return &resultDigest{h: sha256.New()} }

func (d *resultDigest) add(t *testing.T, res *Result) {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	d.h.Write(b)
	d.n++
}

// check compares the digest with the line named name in
// testdata/results.sha256. A run that did not hash all want results (a
// -run filter, a failed subtest) is not comparable and is skipped.
func (d *resultDigest) check(t *testing.T, name string, want int) {
	t.Helper()
	if t.Failed() || d.n != want {
		t.Logf("digest %s not checked: %d of %d results hashed", name, d.n, want)
		return
	}
	got := hex.EncodeToString(d.h.Sum(nil))
	pinned, err := pinnedDigest(name)
	if err != nil {
		t.Fatalf("%v; this run's line: %s  %s", err, got, name)
	}
	if got != pinned {
		t.Errorf("results digest %s changed: the results are no longer those pinned in testdata/results.sha256\ngot line:  %s  %s\nwant line: %s  %s",
			name, got, name, pinned, name)
	}
}

// pinnedDigest reads name's digest from testdata/results.sha256, whose
// lines are "<hex>  <name>".
func pinnedDigest(name string) (string, error) {
	raw, err := os.ReadFile("testdata/results.sha256")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if fields := strings.Fields(line); len(fields) == 2 && fields[1] == name {
			return fields[0], nil
		}
	}
	return "", fmt.Errorf("testdata/results.sha256 has no digest named %q", name)
}

// digestName names a differential test's digest; -short runs a smaller
// space and so pins a digest of its own.
func digestName(base string) string {
	if testing.Short() {
		return base + "-short"
	}
	return base
}

// fig7Configs enumerates the Fig 7 design space across all three
// organizations: the private baseline, every worker-shared
// (cpc, size, buses) point, and the all-shared variant of §VI-E.
func fig7Configs() []Config {
	var cfgs []Config
	for _, sizeKB := range []int{16, 32} {
		base := DefaultConfig()
		base.ICache.SizeBytes = sizeKB << 10
		cfgs = append(cfgs, base)
		for _, buses := range []int{1, 2} {
			for _, cpc := range []int{2, 4, 8} {
				c := base
				c.Organization = OrgWorkerShared
				c.CPC = cpc
				c.Buses = buses
				cfgs = append(cfgs, c)
			}
			c := base
			c.Organization = OrgAllShared
			c.Buses = buses
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func TestFastPathEquivalenceFig7(t *testing.T) {
	benches := []string{"FT", "UA", "nab", "CoEVP"}
	instr := uint64(8_000)
	if testing.Short() {
		benches = benches[:2]
		instr = 4_000
	}
	digest, runs := newResultDigest(), 0
	for _, bench := range benches {
		for _, cfg := range fig7Configs() {
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s-cpc%d-%dKB-bus%d-warm=%v",
					bench, cfg.Organization, cfg.CPC, cfg.ICache.SizeBytes>>10, cfg.Buses, warm)
				runs++
				t.Run(name, func(t *testing.T) {
					digest.add(t, assertEquivalent(t, cfg, bench, instr, 11, warm))
				})
			}
		}
	}
	digest.check(t, digestName("fig7"), runs)
}

// TestFastPathEquivalenceRandom is the property-test form of the same
// invariant: random (but valid) configurations over random workloads,
// deterministic across runs via a fixed seed.
func TestFastPathEquivalenceRandom(t *testing.T) {
	profiles := synth.Profiles()
	rng := rand.New(rand.NewSource(9))
	n := 24
	if testing.Short() {
		n = 8
	}
	digest := newResultDigest()
	for i := 0; i < n; i++ {
		cfg := DefaultConfig()
		cfg.Workers = []int{2, 4, 6, 8}[rng.Intn(4)]
		switch rng.Intn(3) {
		case 0:
			cfg.Organization = OrgPrivate
		case 1:
			cfg.Organization = OrgWorkerShared
			divisors := []int{}
			for d := 2; d <= cfg.Workers; d++ {
				if cfg.Workers%d == 0 {
					divisors = append(divisors, d)
				}
			}
			cfg.CPC = divisors[rng.Intn(len(divisors))]
		case 2:
			cfg.Organization = OrgAllShared
		}
		cfg.ICache.SizeBytes = []int{8, 16, 32, 64}[rng.Intn(4)] << 10
		cfg.ICacheLatency = 1 + rng.Intn(3)
		cfg.LineBuffers = []int{1, 2, 4, 8}[rng.Intn(4)]
		cfg.FTQDepth = []int{2, 4, 8}[rng.Intn(3)]
		cfg.Buses = []int{1, 2, 4}[rng.Intn(3)] // shared-cache banks mirror buses and must be a power of two
		cfg.BusLatency = 1 + rng.Intn(4)
		cfg.Arbitration = []interconnect.Policy{
			interconnect.RoundRobin, interconnect.FixedPriority, interconnect.OldestFirst,
		}[rng.Intn(3)]
		cfg.MispredictPenaltyWorker = 4 + rng.Intn(12)
		cfg.InstrQueueCap = []int{8, 24, 48}[rng.Intn(3)]
		cfg.SharedWorkerPredictor = rng.Intn(2) == 0
		if err := cfg.Validate(); err != nil {
			t.Fatalf("case %d: generated invalid config: %v", i, err)
		}
		bench := profiles[rng.Intn(len(profiles))].Name
		seed := uint64(1 + rng.Intn(1000))
		instr := uint64(2_000 + rng.Intn(6_000))
		warm := rng.Intn(2) == 0
		name := fmt.Sprintf("case%02d-%s-%s-w%d", i, bench, cfg.Organization, cfg.Workers)
		t.Run(name, func(t *testing.T) {
			digest.add(t, assertEquivalent(t, cfg, bench, instr, seed, warm))
		})
	}
	digest.check(t, digestName("random"), n)
}

// TestFastPathSkips guards the fast path against silently degrading to
// per-cycle ticking. On a Fig 7 point whose stalls leave every unit
// idle (FT, 8 workers per 16 KB cache, one bus) Run must skip cycles
// while RunReference skips none; and on a trivial all-idle window a
// deadlocked sync wait must error out at the cycle bound quickly
// instead of ticking 5e7 cycles.
func TestFastPathSkips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ICache.SizeBytes = 16 << 10
	cfg.Organization = OrgWorkerShared
	cfg.CPC = 8
	cfg.Buses = 1
	fast := buildSim(t, cfg, "FT", 20_000, 1, true)
	if _, err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	if fast.skipped == 0 {
		t.Error("Run skipped no cycles on a stall-heavy shared point: the fast path never engaged")
	}
	ref := buildSim(t, cfg, "FT", 20_000, 1, true)
	if _, err := ref.RunReference(); err != nil {
		t.Fatal(err)
	}
	if ref.skipped != 0 {
		t.Errorf("RunReference skipped %d cycles; the reference loop must tick every cycle", ref.skipped)
	}

	cfg = DefaultConfig()
	cfg.MaxCycles = 50_000_000 // naive loop would grind; skip-ahead jumps
	// A single worker that blocks forever on a parallel region the
	// master never opens: every unit goes idle with no wake event.
	srcs := []trace.Source{
		&sliceSource{recs: []trace.Record{{Kind: trace.KindEnd}}},
		&sliceSource{recs: []trace.Record{{Kind: trace.KindParallelStart}}},
	}
	cfg.Workers = 1
	sim, err := New(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("deadlocked run should exceed the cycle bound")
	}
}

type sliceSource struct {
	recs []trace.Record
	idx  int
}

func (s *sliceSource) Next() (trace.Record, bool) {
	if s.idx >= len(s.recs) {
		return trace.Record{}, false
	}
	r := s.recs[s.idx]
	s.idx++
	return r, true
}
