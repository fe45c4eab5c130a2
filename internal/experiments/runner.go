// Package experiments regenerates every table and figure of the
// paper's evaluation (Figs 1-4, Table I, Figs 7-13) from the simulator
// and models in this repository. Each figure has a Fig* function
// returning a structured result with a Table() renderer; the registry
// in registry.go exposes them by id to cmd/experiments and the root
// bench harness.
//
// Simulations are executed by a parallel campaign engine: every figure
// declares its full design-point set up front as a Plan (engine.go)
// and fans it out across Options.Parallelism worker goroutines, while
// the Runner's singleflight run cache guarantees each distinct
// (benchmark, configuration, prewarm) point is simulated exactly once
// — even when figures sharing design points (e.g. the cpc=8
// single-bus runs of Figs 7, 8 and 10) run concurrently. Results are
// deterministic: a campaign at Parallelism 8 produces bit-identical
// figures to the same campaign at Parallelism 1.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/metrics"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/synth"
	"sharedicache/internal/tracing"
)

// Options scales a whole experiment campaign.
type Options struct {
	// Workers is the lean-core count (paper: 8) the figures build their
	// design points with, and the thread count of the characterisation
	// traces (Figs 2-4). Each point's own Cfg.Workers is what it
	// simulates: ext-scale's points span other counts.
	Workers int
	// Instructions is the master-thread instruction budget per
	// benchmark. The paper traces >=20 G instructions; the default here
	// is laptop-scale. ROADMAP.md records the effect until its planned
	// EXPERIMENTS.md ledger lands.
	Instructions uint64
	// Seed drives workload synthesis.
	Seed uint64
	// Benchmarks restricts the run to a subset of profile names; nil
	// means all 24.
	Benchmarks []string
	// Prewarm starts timing runs from steady-state cache contents (the
	// state the paper's 20+ G instruction traces measure). Miss-count
	// experiments (Fig 11) always run cold regardless, because the
	// cold-miss dynamics are the phenomenon they study.
	Prewarm bool
	// CharInstructions is the master instruction budget for the
	// trace-characterisation figures (2-4), which walk traces without
	// cycle simulation and so afford much longer runs. Task-based
	// (kernel-skewed) benchmarks need the length for every worker to
	// wrap the whole code region, as the real runs do. 0 means
	// max(Instructions, 2M).
	CharInstructions uint64
	// Parallelism bounds how many simulations a Plan runs concurrently
	// (see Plan.RunAll). 0 means runtime.GOMAXPROCS(0). Results are
	// independent of this value: workload synthesis and simulation are
	// deterministic per design point, and results are returned in plan
	// order.
	Parallelism int
	// Backend selects the simulation backend every point of the
	// campaign runs on, unless a Point carries its own override. Empty
	// means DefaultBackend ("detailed", the cycle-level simulator);
	// "analytical" trades fidelity for orders-of-magnitude speed (see
	// RegisterBackend). The backend is part of every persistent-store
	// key, so campaigns on different backends never share entries.
	Backend string
}

// DefaultOptions returns the campaign configuration used by
// cmd/experiments and the benches.
func DefaultOptions() Options {
	return Options{Workers: 8, Instructions: 120_000, Seed: 1, Prewarm: true}
}

// charInstructions resolves the characterisation budget.
func (o Options) charInstructions() uint64 {
	if o.CharInstructions > 0 {
		return o.CharInstructions
	}
	if o.Instructions > 2_000_000 {
		return o.Instructions
	}
	return 2_000_000
}

// parallelism resolves the concurrent-simulation bound.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// backendName resolves the campaign-wide backend selection.
func (o Options) backendName() string {
	if o.Backend != "" {
		return o.Backend
	}
	return DefaultBackend
}

// Validate reports option errors, including unknown benchmark names
// and unregistered backends.
func (o Options) Validate() error {
	if o.Workers < 1 {
		return fmt.Errorf("experiments: Workers = %d must be positive", o.Workers)
	}
	if o.Instructions < 1000 {
		return fmt.Errorf("experiments: Instructions = %d below synthesis minimum", o.Instructions)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("experiments: Parallelism = %d must be >= 0", o.Parallelism)
	}
	if !BackendRegistered(o.backendName()) {
		return fmt.Errorf("experiments: unknown backend %q (have %v)", o.backendName(), BackendNames())
	}
	for _, b := range o.Benchmarks {
		if _, ok := synth.ProfileByName(b); !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", b)
		}
	}
	return nil
}

// profiles returns the selected benchmark profiles in plotting order.
func (o Options) profiles() []synth.Profile {
	all := synth.Profiles()
	if len(o.Benchmarks) == 0 {
		return all
	}
	sel := make([]synth.Profile, 0, len(o.Benchmarks))
	for _, name := range o.Benchmarks {
		if p, ok := synth.ProfileByName(name); ok {
			sel = append(sel, p)
		}
	}
	return sel
}

// Runner executes and caches simulations for one experiment campaign.
// The run cache has singleflight semantics: the first caller to ask
// for a (benchmark, configuration, prewarm) point becomes its leader
// and simulates it; concurrent callers for the same point block on a
// per-key latch and share the leader's result, so figures sharing
// design points (e.g. the cpc=8 single-bus runs of Figs 7, 8 and 10)
// pay for each simulation exactly once no matter how they overlap.
// Batches of points are declared with Plan and fanned out across
// Options.Parallelism goroutines by Plan.RunAll. A Runner is safe for
// concurrent use.
//
// The cache is two-tier when a persistent store is attached with
// SetStore: lookups go memory -> disk -> simulate, and every fresh
// simulation is written back to disk, so repeated campaigns are
// near-instant and sharded campaigns sharing one store directory share
// work across processes.
type Runner struct {
	opts Options

	mu    sync.Mutex
	runs  map[runKey]*runEntry
	store ResultStore
	// backends memoises instantiated backends by name. simsBy counts
	// simulations actually executed (cache misses in both tiers) per
	// backend: the singleflight regression tests pin the total against
	// duplicated work, the persistent-cache tests pin it at zero
	// against a warm store, and the analytical smoke tests pin
	// simsBy["detailed"] at zero for triage sweeps.
	backends map[string]Backend
	simsBy   map[string]int64

	// metrics, when attached with SetMetrics, receives the cache-tier
	// and simulation counters; nil leaves the runner unobserved.
	metrics *metrics.Registry

	// tracer, when attached with SetTracer, records one span per
	// executed design point with children for the store lookup, the
	// backend execution and the write-back; nil (the default) records
	// nothing and costs a few nil checks.
	tracer *tracing.Tracer

	// reporter, when attached with SetReporter, collects one
	// simreport.Report per resolved design point — captured around live
	// executions, rebuilt from the stored result on warm hits; nil (the
	// default) captures nothing and costs one nil check per point.
	reporter *simreport.Collector
}

// runKey identifies one design point in the memory cache tier. The
// backend is part of the identity: the same (bench, cfg, prewarm)
// point under two backends is two runs, never one.
type runKey struct {
	backend string
	bench   string
	cfg     core.Config
	prewarm bool
}

// runEntry is the singleflight latch for one design point: done is
// closed once the leader has stored res/err.
type runEntry struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// NewRunner builds a Runner; it errors on invalid options.
func NewRunner(opts Options) (*Runner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Runner{
		opts:     opts,
		runs:     map[runKey]*runEntry{},
		backends: map[string]Backend{},
		simsBy:   map[string]int64{},
	}, nil
}

// backend returns the memoised backend instance for name.
func (r *Runner) backend(name string) (Backend, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.backends[name]; ok {
		return b, nil
	}
	b, err := newBackend(name, r.opts)
	if err != nil {
		return nil, err
	}
	r.backends[name] = b
	if r.metrics != nil {
		registerMemoCounters(r.metrics, name, b)
	}
	return b, nil
}

// registerMemoCounters exposes a memoising backend's synthesis and
// prewarm hit/miss counters as func-backed series, sampled at scrape
// time from the backend's own atomics. Backends without a memo (the
// analytical backend derives nothing worth caching) register nothing.
func registerMemoCounters(reg *metrics.Registry, name string, b Backend) {
	p, ok := b.(MemoStatsProvider)
	if !ok {
		return
	}
	l := metrics.L("backend", name)
	reg.CounterFunc("runner_synth_memo_hits_total",
		"workload-synthesis memo hits across design points, by backend",
		func() float64 { return float64(p.MemoStats().SynthHits) }, l)
	reg.CounterFunc("runner_synth_memo_misses_total",
		"workload syntheses actually performed (memo misses), by backend",
		func() float64 { return float64(p.MemoStats().SynthMisses) }, l)
	reg.CounterFunc("runner_prewarm_memo_hits_total",
		"steady-state warm-line memo hits across design points, by backend",
		func() float64 { return float64(p.MemoStats().PrewarmHits) }, l)
	reg.CounterFunc("runner_prewarm_memo_misses_total",
		"warm-line set derivations actually performed (memo misses), by backend",
		func() float64 { return float64(p.MemoStats().PrewarmMisses) }, l)
}

// PointBackend resolves the backend a plan point runs on under these
// options: the point's own override if set, the campaign backend
// otherwise, DefaultBackend if neither names one. It is THE resolution
// rule — the engine dispatches with it, and the distributed
// coordinator resolves each point's backend with it for validation
// and for granting leases only to workers registering that backend,
// so neither can drift from what a runner would actually execute.
func (o Options) PointBackend(pt Point) string {
	if pt.Backend != "" {
		return pt.Backend
	}
	return o.backendName()
}

// pointBackend is the runner-side shorthand for Options.PointBackend.
func (r *Runner) pointBackend(pt Point) string {
	return r.opts.PointBackend(pt)
}

// Options returns the campaign options.
func (r *Runner) Options() Options { return r.opts }

// ResultStore is the persistent second cache tier a Runner consumes:
// Get resolves a design point some other process may have simulated,
// Put publishes a fresh simulation for them, and Stats reports the
// traffic so drivers can account for the campaign's work. The on-disk
// *runstore.Store implements it for processes sharing a filesystem;
// the campaign coordinator's RemoteStore implements it over HTTP, so
// the memory -> store -> simulate tiering is oblivious to where the
// store actually lives.
//
// Implementations must be safe for concurrent use and must preserve
// the runstore contract: Get treats anything untrustworthy as a miss
// (never an error), and Put either durably publishes the result or
// returns an error — a campaign whose shards cannot see each other's
// results is broken, not degraded.
type ResultStore interface {
	Get(runstore.Key) (*core.Result, bool)
	Put(runstore.Key, *core.Result) error
	Stats() runstore.Stats
}

// SetStore attaches a persistent result store as the second cache
// tier. Attach it before running plans; results already cached in
// memory are not written back retroactively.
func (r *Runner) SetStore(s ResultStore) {
	r.mu.Lock()
	r.store = s
	r.mu.Unlock()
}

// Store returns the attached persistent store, or nil.
func (r *Runner) Store() ResultStore {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// SetMetrics attaches a metrics registry. The runner then publishes
// per-tier cache traffic (runner_cache_hits_total / _misses_total /
// _writes_total, labelled tier="memory"|"store") and executed
// simulations by backend (runner_simulations_total). Per-point host
// cost is not a metric: it lives only in the simreport (SetReporter).
// Attach before running plans; a nil registry detaches.
func (r *Runner) SetMetrics(reg *metrics.Registry) {
	r.mu.Lock()
	r.metrics = reg
	rep := r.reporter
	if reg != nil {
		for name, b := range r.backends {
			registerMemoCounters(reg, name, b)
		}
	}
	r.mu.Unlock()
	if reg != nil && rep != nil {
		r.registerStallShares(reg)
	}
}

// SetTracer attaches a span tracer. Each design point the runner
// actually resolves past the memory tier then records a "point" span
// (attrs: bench, backend, org, cpc, prewarm) with "store.lookup",
// "backend.execute" and "store.write" children, parented under
// whatever span context the caller's ctx carries — locally a refine
// phase span, in a worker the coordinator's lease span. Attach before
// running plans; a nil tracer detaches.
func (r *Runner) SetTracer(tr *tracing.Tracer) {
	r.mu.Lock()
	r.tracer = tr
	r.mu.Unlock()
}

// Tracer returns the attached tracer, or nil.
func (r *Runner) Tracer() *tracing.Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// SetReporter attaches a simulation-report collector. Every design
// point the runner resolves past the memory tier then contributes one
// simreport.Report: a live execution is captured with its host cost
// (the backend execution's wall time, the one record of it), and a
// warm-store hit rebuilds the report from the stored result, marked
// Replayed with no host cost. If a metrics registry is attached too,
// campaign-wide stall-share gauges are registered against the
// collector. Attach before running plans; a nil collector detaches.
func (r *Runner) SetReporter(c *simreport.Collector) {
	r.mu.Lock()
	r.reporter = c
	reg := r.metrics
	r.mu.Unlock()
	if c != nil && reg != nil {
		r.registerStallShares(reg)
	}
}

// Reporter returns the attached report collector, or nil.
func (r *Runner) Reporter() *simreport.Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reporter
}

// registerStallShares exposes the collector's aggregate CPI stack as
// scrape-time share gauges, one series per stall category. The
// closures read the runner's current reporter, so re-attaching either
// side keeps the series live (GaugeFunc re-registration replaces the
// callback).
func (r *Runner) registerStallShares(reg *metrics.Registry) {
	for _, kind := range simreport.ShareKinds {
		kind := kind
		reg.GaugeFunc("runner_stall_share",
			"share of simulated core cycles by CPI-stack category, over all collected reports",
			func() float64 {
				return simreport.StackShares(r.Reporter().AggregateStack())[kind]
			},
			metrics.L("kind", kind))
	}
}

// countCache books one cache-tier event on the attached registry.
func (r *Runner) countCache(tier string, hit bool) {
	r.mu.Lock()
	reg := r.metrics
	r.mu.Unlock()
	if reg == nil {
		return
	}
	name := "runner_cache_misses_total"
	if hit {
		name = "runner_cache_hits_total"
	}
	reg.Counter(name, "run-cache lookups by tier and outcome", metrics.L("tier", tier)).Inc()
}

// countWrite books one store-tier write-back.
func (r *Runner) countWrite() {
	r.mu.Lock()
	reg := r.metrics
	r.mu.Unlock()
	if reg == nil {
		return
	}
	reg.Counter("runner_cache_writes_total", "fresh results written back to the persistent tier",
		metrics.L("tier", "store")).Inc()
}

// observeExecution books one executed simulation.
func (r *Runner) observeExecution(backend string) {
	r.mu.Lock()
	reg := r.metrics
	r.mu.Unlock()
	if reg == nil {
		return
	}
	reg.Counter("runner_simulations_total", "simulations executed (cache misses in both tiers) by backend",
		metrics.L("backend", backend)).Inc()
}

// storeKey builds the persistent-store key for one resolved design
// point. Its campaign fingerprint holds the result-affecting options,
// with the point's own cfg.Workers as Workers. CharInstructions is
// stored resolved so an explicit budget equal to the default hashes
// identically, and the backend identity is stored as its versioned
// fingerprint (e.g. "detailed/v1") so backends can never
// cross-pollute each other's cached entries. An unregistered name
// falls back to the name itself so key computation stays total
// (Plan.Shard and PointKey cannot fail) — but such keys never match
// the ones a process that HAS the backend writes, so they must stay
// local: the campaign coordinator's Server.Enqueue refuses plans with
// unresolvable backends outright rather than let the divergence
// silently wedge a merge.
func (r *Runner) storeKey(backend, bench string, cfg core.Config, prewarm bool) runstore.Key {
	id := backend
	if b, err := r.backend(backend); err == nil {
		id = b.Fingerprint()
	}
	return runstore.Key{Bench: bench, Config: cfg, Prewarm: prewarm, Campaign: runstore.Fingerprint{
		Workers:          cfg.Workers,
		Instructions:     r.opts.Instructions,
		Seed:             r.opts.Seed,
		CharInstructions: r.opts.charInstructions(),
		Backend:          id,
	}}
}

// PointKey returns the persistent-store key the runner would use for
// pt — the stable identity that sharding and merge tooling hash.
func (r *Runner) PointKey(pt Point) runstore.Key {
	return r.storeKey(r.pointBackend(pt), pt.Bench, pt.Cfg, r.opts.Prewarm && !pt.Cold)
}

// Lookup resolves pt from the persistent store only, without
// simulating; it reports false when no store is attached or the point
// is absent. Merge tooling uses it to render campaigns that sharded
// runs have already simulated.
func (r *Runner) Lookup(pt Point) (*core.Result, bool) {
	st := r.Store()
	if st == nil {
		return nil, false
	}
	return st.Get(r.PointKey(pt))
}

// charWorkload synthesises the longer workload the characterisation
// figures (2-4) walk.
func (r *Runner) charWorkload(p synth.Profile) (*synth.Workload, error) {
	return synth.New(p, synth.Config{
		Workers:            r.opts.Workers,
		MasterInstructions: r.opts.charInstructions(),
		Seed:               r.opts.Seed,
	})
}

// simulate resolves one design point through the singleflight cache.
func (r *Runner) simulate(ctx context.Context, backend, bench string, cfg core.Config, prewarm bool) (*core.Result, error) {
	key := runKey{backend: backend, bench: bench, cfg: cfg, prewarm: prewarm}

	r.mu.Lock()
	if e, ok := r.runs[key]; ok {
		r.mu.Unlock()
		r.countCache("memory", true)
		select {
		case <-e.done:
			return e.res, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Bail out on a dead context before becoming the key's leader: an
	// entry is only ever settled with a real result or simulation
	// error, never with one caller's cancellation, so waiters with
	// live contexts cannot be poisoned.
	if err := ctx.Err(); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	e := &runEntry{done: make(chan struct{})}
	r.runs[key] = e
	st := r.store
	tr := r.tracer
	r.mu.Unlock()
	r.countCache("memory", false)

	// The leader records the point span; memory-tier followers share
	// the leader's result and record nothing.
	pctx, span := tr.Start(ctx, "point",
		tracing.A("bench", bench),
		tracing.A("backend", backend),
		tracing.A("org", fmt.Sprint(cfg.Organization)),
		tracing.AInt("cpc", cfg.CPC),
		tracing.A("prewarm", fmt.Sprint(prewarm)))
	e.res, e.err = r.executeOrLoad(pctx, tr, st, backend, bench, cfg, prewarm)
	if e.err != nil {
		span.SetAttr("error", e.err.Error())
	}
	span.End()
	if e.err != nil {
		// Drop failed entries so a later call can retry; waiters already
		// holding the entry still observe the error.
		e.err = fmt.Errorf("experiments: %s on %s/cpc=%d [%s]: %w",
			bench, cfg.Organization, cfg.CPC, backend, e.err)
		r.mu.Lock()
		delete(r.runs, key)
		r.mu.Unlock()
	}
	close(e.done)
	return e.res, e.err
}

// ContextResultStore is the optional per-call-context extension of
// ResultStore: stores that carry requests over the network implement
// it so each lookup and write can propagate the caller's trace
// context (the X-Trace-Context header on the campaign store plane)
// and, on a write, the execution wall time (WallFromContext). The
// runner type-asserts and prefers these methods when present; plain
// stores (the on-disk runstore.Store) need not care.
type ContextResultStore interface {
	GetCtx(context.Context, runstore.Key) (*core.Result, bool)
	PutCtx(context.Context, runstore.Key, *core.Result) error
}

type wallKey struct{}

// ContextWithWall returns ctx carrying the backend execution wall time
// of the result being written. The runner sets it on every write-back
// of a live execution, so a network store can send the point's one
// host-cost fact with the write that makes the point durable.
func ContextWithWall(ctx context.Context, wall time.Duration) context.Context {
	return context.WithValue(ctx, wallKey{}, wall)
}

// WallFromContext returns the wall time ContextWithWall attached.
func WallFromContext(ctx context.Context) (time.Duration, bool) {
	wall, ok := ctx.Value(wallKey{}).(time.Duration)
	return wall, ok
}

// storeGet dispatches a store lookup, threading ctx when the store
// accepts it.
func storeGet(ctx context.Context, st ResultStore, key runstore.Key) (*core.Result, bool) {
	if cs, ok := st.(ContextResultStore); ok {
		return cs.GetCtx(ctx, key)
	}
	return st.Get(key)
}

// storePut dispatches a store write-back, threading ctx when the
// store accepts it.
func storePut(ctx context.Context, st ResultStore, key runstore.Key, res *core.Result) error {
	if cs, ok := st.(ContextResultStore); ok {
		return cs.PutCtx(ctx, key, res)
	}
	return st.Put(key, res)
}

// executeOrLoad resolves a memory-tier miss: disk first when a store
// is attached, then the selected backend with a write-back. A persist
// failure is surfaced as an error — a sharded campaign whose shards
// cannot see each other's results is broken, not degraded.
func (r *Runner) executeOrLoad(ctx context.Context, tr *tracing.Tracer, st ResultStore, backend, bench string, cfg core.Config, prewarm bool) (*core.Result, error) {
	rep := r.Reporter()
	key := r.storeKey(backend, bench, cfg, prewarm)
	if st != nil {
		lctx, lookup := tr.Start(ctx, "store.lookup")
		res, ok := storeGet(lctx, st, key)
		lookup.SetAttr("hit", fmt.Sprint(ok))
		lookup.End()
		if ok {
			r.countCache("store", true)
			// The report's microarchitectural half is a pure function of
			// the stored result; the host cost of a replay is unknown.
			if rep != nil {
				report := simreport.FromResult(key.Hex(), bench, backend, prewarm, res)
				report.Host.Replayed = true
				rep.Add(report)
			}
			return res, nil
		}
		r.countCache("store", false)
	}
	// A dead context must not fall through to the backend: a remote
	// store answers a cancelled lookup with a plain miss (never an
	// error), so without this check a cancelled campaign would still pay
	// for a full simulation only to fail at the write-back — and the
	// stream's terminal record would carry a wrapped persist error
	// instead of the cancellation the consumer asked for.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ectx, exec := tr.Start(ctx, "backend.execute", tracing.A("backend", backend))
	res, wall, err := r.execute(ectx, backend, bench, cfg, prewarm)
	exec.End()
	if err != nil {
		return nil, err
	}
	if rep != nil {
		report := simreport.FromResult(key.Hex(), bench, backend, prewarm, res)
		report.Host.WallSeconds = wall.Seconds()
		rep.Add(report)
	}
	if st != nil {
		wctx, write := tr.Start(ctx, "store.write")
		err := storePut(ContextWithWall(wctx, wall), st, key, res)
		write.End()
		if err != nil {
			return nil, fmt.Errorf("persist result: %w", err)
		}
		r.countWrite()
	}
	return res, nil
}

// execute dispatches one design point (always a cache miss) to its
// backend, books the execution in the per-backend counters and
// returns its wall time: the report's host cost, which also rides the
// store write-back (ContextWithWall).
func (r *Runner) execute(ctx context.Context, backend, bench string, cfg core.Config, prewarm bool) (*core.Result, time.Duration, error) {
	b, err := r.backend(backend)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := b.Execute(ctx, bench, cfg, prewarm)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	r.mu.Lock()
	r.simsBy[backend]++
	r.mu.Unlock()
	r.observeExecution(backend)
	return res, wall, nil
}

// CachedRuns reports how many distinct simulations have completed
// successfully.
func (r *Runner) CachedRuns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.runs {
		select {
		case <-e.done:
			if e.err == nil {
				n++
			}
		default:
		}
	}
	return n
}

// Simulations reports how many simulations have actually executed —
// with an effective cache this equals CachedRuns; a larger value means
// duplicated work.
func (r *Runner) Simulations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, c := range r.simsBy {
		n += c
	}
	return int(n)
}

// BackendRuns reports executed simulations broken down by backend
// name. Backends that never ran are absent; the analytical triage
// smoke tests pin the "detailed" entry at zero.
func (r *Runner) BackendRuns() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.simsBy))
	for name, n := range r.simsBy {
		out[name] = int(n)
	}
	return out
}
