package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sharedicache/internal/core"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
)

// Backend is one way of resolving a design point to a result. The
// cycle-level simulator is the "detailed" backend (the default, and
// the fidelity reference); the "analytical" backend estimates the same
// quantities from the Hill & Marty model plus a first-order cache
// model in microseconds instead of seconds, so million-point triage
// sweeps can run the full design space and reserve detailed
// simulation for the frontier the triage surfaces.
//
// Implementations must be deterministic — Execute is called at most
// once per (bench, cfg, prewarm) point behind the Runner's
// singleflight cache, and campaign reproducibility (sharding, merges,
// distributed workers) rests on every process computing identical
// results for identical points. They must also be safe for concurrent
// Execute calls: one Backend instance serves a whole campaign's
// fan-out.
type Backend interface {
	// Name is the registry key ("detailed", "analytical") drivers and
	// plan points select backends by.
	Name() string
	// Fingerprint is the versioned identity baked into every
	// persistent-store key (e.g. "detailed/v1"). Bump it whenever the
	// backend's results change, so stale entries become misses instead
	// of lies; keep it stable otherwise, so warm stores stay warm.
	Fingerprint() string
	// Execute resolves one design point, with cfg.Workers, not
	// Options.Workers, as its worker count (ext-scale sweeps it).
	// Execute is always a cache miss — the Runner has already consulted
	// both cache tiers.
	Execute(ctx context.Context, bench string, cfg core.Config, prewarm bool) (*core.Result, error)
}

// BackendFactory builds a backend bound to one campaign's options.
type BackendFactory func(opts Options) (Backend, error)

// DefaultBackend is the backend used when Options.Backend and
// Point.Backend are both empty: the cycle-level simulator.
const DefaultBackend = "detailed"

var (
	backendMu        sync.RWMutex
	backendFactories = map[string]BackendFactory{}
)

// RegisterBackend adds a backend under its selection name. The two
// built-ins register at init; external packages may register
// additional backends before building runners. Re-registering a name
// panics: silently replacing a backend would let two processes of one
// campaign compute different results for the same store key.
func RegisterBackend(name string, f BackendFactory) {
	if name == "" || f == nil {
		panic("experiments: RegisterBackend needs a name and a factory")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendFactories[name]; dup {
		panic(fmt.Sprintf("experiments: backend %q registered twice", name))
	}
	backendFactories[name] = f
}

// BackendRegistered reports whether a backend name is available in
// this process. Distributed workers use it to refuse points they
// cannot execute faithfully instead of guessing.
func BackendRegistered(name string) bool {
	backendMu.RLock()
	defer backendMu.RUnlock()
	_, ok := backendFactories[name]
	return ok
}

// BackendNames lists the registered backends, sorted.
func BackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backendFactories))
	for name := range backendFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newBackend instantiates a registered backend for one campaign.
func newBackend(name string, opts Options) (Backend, error) {
	backendMu.RLock()
	f, ok := backendFactories[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("experiments: unknown backend %q (have %v)", name, BackendNames())
	}
	return f(opts)
}

func init() {
	RegisterBackend(DefaultBackend, func(opts Options) (Backend, error) {
		return &detailedBackend{
			opts:   opts,
			synths: map[synthKey]*synthEntry{},
			warms:  map[warmKey]*warmEntry{},
		}, nil
	})
	RegisterBackend("analytical", func(opts Options) (Backend, error) {
		return &analyticalBackend{opts: opts}, nil
	})
}

// detailedBackend is the cycle-level simulator behind the historical
// Runner.execute path: synthesise the workload, optionally prewarm,
// run the full ACMP model. It is bit-identical to the pre-registry
// code and remains the fidelity reference every other backend is
// judged against.
//
// Workload synthesis and steady-state warm-line derivation are
// memoised across the design points of one campaign: (instructions,
// seed) are fixed in opts at construction, so the memo key reduces to
// the benchmark and the point's worker count (plus line sizes for warm
// sets), and the 52-point Fig 7 space synthesises each benchmark once
// instead of 52 times. Workloads are immutable after synth.New and
// warm-line slices are only read by Prewarm, so entries are shared
// across concurrent Execute calls without copying.
type detailedBackend struct {
	opts Options

	mu     sync.Mutex
	synths map[synthKey]*synthEntry
	warms  map[warmKey]*warmEntry

	synthHits, synthMisses     atomic.Uint64
	prewarmHits, prewarmMisses atomic.Uint64
}

// synthKey identifies one memoised workload.
type synthKey struct {
	bench   string
	workers int
}

// synthEntry memoises one synthesised workload. The per-entry once
// lets distinct workloads synthesise concurrently while concurrent
// requests for the same one wait for one leader, like the Runner's
// singleflight but keyed by synthKey.
type synthEntry struct {
	once sync.Once
	w    *synth.Workload
	err  error
}

// warmKey identifies one memoised steady-state warm-line set. The
// I-cache and L2 line sizes are config axes, so they stay in the key
// even though the Fig 7 space never varies them.
type warmKey struct {
	synthKey
	icLineBytes int
	l2LineBytes int
}

type warmEntry struct {
	once   sync.Once
	ic, l2 [][]uint64
}

// workload returns the memoised synthesis output for key.
func (b *detailedBackend) workload(key synthKey) (*synth.Workload, error) {
	b.mu.Lock()
	e, ok := b.synths[key]
	if !ok {
		e = &synthEntry{}
		b.synths[key] = e
	}
	b.mu.Unlock()
	if ok {
		b.synthHits.Add(1)
	} else {
		b.synthMisses.Add(1)
	}
	e.once.Do(func() {
		p, found := synth.ProfileByName(key.bench)
		if !found {
			e.err = fmt.Errorf("unknown benchmark %q", key.bench)
			return
		}
		e.w, e.err = synth.New(p, synth.Config{
			Workers:            key.workers,
			MasterInstructions: b.opts.Instructions,
			Seed:               b.opts.Seed,
		})
	})
	return e.w, e.err
}

// warmLines returns the memoised per-thread steady-state line sets of
// w, sk's workload, at the given line geometries. Callers must treat
// the returned slices as read-only; they are shared across points.
func (b *detailedBackend) warmLines(sk synthKey, w *synth.Workload, icLineBytes, l2LineBytes int) (ic, l2 [][]uint64) {
	key := warmKey{synthKey: sk, icLineBytes: icLineBytes, l2LineBytes: l2LineBytes}
	b.mu.Lock()
	e, ok := b.warms[key]
	if !ok {
		e = &warmEntry{}
		b.warms[key] = e
	}
	b.mu.Unlock()
	if ok {
		b.prewarmHits.Add(1)
	} else {
		b.prewarmMisses.Add(1)
	}
	e.once.Do(func() {
		n := w.NumThreads()
		e.ic = make([][]uint64, n)
		e.l2 = make([][]uint64, n)
		for i := 0; i < n; i++ {
			e.ic[i] = w.WarmLines(i, icLineBytes)
			e.l2[i] = w.L2WarmLines(i, l2LineBytes)
		}
	})
	return e.ic, e.l2
}

// MemoStats is a point-in-time snapshot of the synthesis/prewarm memo
// counters a backend may keep (see MemoStatsProvider).
type MemoStats struct {
	SynthHits, SynthMisses     uint64
	PrewarmHits, PrewarmMisses uint64
}

// MemoStatsProvider is implemented by backends that memoise derived
// workload state across design points. The Runner exposes the counters
// on its metrics registry (runner_synth_memo_* / runner_prewarm_memo_*)
// when both a registry and such a backend are attached.
type MemoStatsProvider interface {
	MemoStats() MemoStats
}

// MemoStats reports the memo's hit/miss counters.
func (b *detailedBackend) MemoStats() MemoStats {
	return MemoStats{
		SynthHits:     b.synthHits.Load(),
		SynthMisses:   b.synthMisses.Load(),
		PrewarmHits:   b.prewarmHits.Load(),
		PrewarmMisses: b.prewarmMisses.Load(),
	}
}

func (b *detailedBackend) Name() string { return DefaultBackend }

// Fingerprint identifies the detailed simulator's result schema inside
// store keys. v1 is the format-version-2 store baseline.
func (b *detailedBackend) Fingerprint() string { return "detailed/v1" }

// Execute synthesises the workload and runs the cycle-level simulation
// for one design point. The simulation loop itself is not
// interruptible; ctx cancellation is handled by the engine before the
// point starts.
func (b *detailedBackend) Execute(_ context.Context, bench string, cfg core.Config, prewarm bool) (*core.Result, error) {
	sk := synthKey{bench: bench, workers: cfg.Workers}
	w, err := b.workload(sk)
	if err != nil {
		return nil, err
	}
	srcs := make([]trace.Source, w.NumThreads())
	for i := range srcs {
		srcs[i] = w.Source(i)
	}
	sim, err := core.New(cfg, srcs)
	if err != nil {
		return nil, err
	}
	if prewarm {
		ic, l2 := b.warmLines(sk, w, cfg.ICache.LineBytes, cfg.Mem.L2.LineBytes)
		sim.Prewarm(ic, l2)
	}
	return sim.Run()
}
