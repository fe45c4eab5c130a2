package core

import (
	"fmt"

	"sharedicache/internal/backend"
	"sharedicache/internal/branch"
	"sharedicache/internal/cachesim"
	"sharedicache/internal/frontend"
	"sharedicache/internal/interconnect"
	"sharedicache/internal/memsys"
	"sharedicache/internal/omprt"
	"sharedicache/internal/trace"
)

// coreSim is one simulated core: trace cursor, front-end, back-end and
// section accounting.
type coreSim struct {
	id int

	src trace.Source
	// peeked/hasPeeked buffer one look-ahead record by value: a pointer
	// here would force every record returned by Next onto the heap
	// (one allocation per record, the dominant churn of the hot loop).
	peeked    trace.Record
	hasPeeked bool
	srcEOF    bool

	fe        *frontend.FrontEnd
	be        *backend.Backend
	privCache *cachesim.Cache // nil when fetching through a shared cache

	finished   bool
	inParallel bool

	serialCycles   uint64
	parallelCycles uint64
	serialInstr    uint64
	parallelInstr  uint64
}

func (c *coreSim) peek() (trace.Record, bool) {
	if !c.hasPeeked {
		if c.srcEOF {
			return trace.Record{}, false
		}
		rec, ok := c.src.Next()
		if !ok {
			c.srcEOF = true
			return trace.Record{}, false
		}
		c.peeked = rec
		c.hasPeeked = true
	}
	return c.peeked, true
}

func (c *coreSim) pop() { c.hasPeeked = false }

// Simulator runs one workload on one ACMP configuration. It is single
// use: construct, Run once, read the Result.
type Simulator struct {
	cfg    Config
	rt     *omprt.Runtime
	mem    *memsys.System
	shared []*sharedICache
	cores  []*coreSim
	ran    bool
	// skipped counts the cycles skipTo accounted in bulk instead of
	// ticking; tests read it to pin that the fast path engages. It is
	// not part of the Result.
	skipped uint64
}

// New builds a simulator for cfg over the given per-thread trace
// sources (sources[0] is the master). Sources are consumed by Run.
func New(cfg Config, sources []trace.Source) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Cores() {
		return nil, fmt.Errorf("core: %d trace sources for %d cores", len(sources), cfg.Cores())
	}
	memCfg := cfg.Mem
	memCfg.Cores = cfg.Cores()
	s := &Simulator{
		cfg: cfg,
		rt:  omprt.New(cfg.Cores()),
		mem: memsys.New(memCfg),
	}

	// Fetch ports per core. All ports share one request arena: the
	// Simulator is single-goroutine, so slab handout needs no locking.
	arena := &reqArena{}
	ports := make([]frontend.ICachePort, cfg.Cores())
	newPrivate := func(core int) (*cachesim.Cache, frontend.ICachePort) {
		cache := cachesim.New(cfg.ICache)
		return cache, &privatePort{cache: cache, mem: s.mem, core: core, cacheLat: cfg.ICacheLatency, arena: arena}
	}
	var privCaches []*cachesim.Cache = make([]*cachesim.Cache, cfg.Cores())
	switch cfg.Organization {
	case OrgPrivate:
		for i := 0; i < cfg.Cores(); i++ {
			privCaches[i], ports[i] = newPrivate(i)
		}
	case OrgWorkerShared:
		privCaches[0], ports[0] = newPrivate(0)
		groups := cfg.Workers / cfg.CPC
		for g := 0; g < groups; g++ {
			members := make([]int, cfg.CPC)
			for k := 0; k < cfg.CPC; k++ {
				members[k] = 1 + g*cfg.CPC + k
			}
			sc := newSharedICache(cfg, members, s.mem, arena)
			s.shared = append(s.shared, sc)
			for k, core := range members {
				ports[core] = sc.port(k)
			}
		}
	case OrgAllShared:
		members := make([]int, cfg.Cores())
		for i := range members {
			members[i] = i
		}
		sc := newSharedICache(cfg, members, s.mem, arena)
		s.shared = append(s.shared, sc)
		for i := range members {
			ports[i] = sc.port(i)
		}
	}

	s.cores = make([]*coreSim, cfg.Cores())
	var workerPred *branch.Predictor
	if cfg.SharedWorkerPredictor {
		workerPred = branch.NewDefault()
	}
	for i := 0; i < cfg.Cores(); i++ {
		penalty := cfg.MispredictPenaltyWorker
		if i == 0 {
			penalty = cfg.MispredictPenaltyMaster
		}
		feCfg := frontend.Config{
			LineBuffers:       cfg.LineBuffers,
			FTQDepth:          cfg.FTQDepth,
			LineBytes:         cfg.ICache.LineBytes,
			MispredictPenalty: penalty,
		}
		pred := branch.NewDefault()
		if workerPred != nil && i > 0 {
			pred = workerPred
		}
		s.cores[i] = &coreSim{
			id:        i,
			src:       sources[i],
			fe:        frontend.New(feCfg, ports[i], pred),
			be:        backend.New(cfg.InstrQueueCap, 1000),
			privCache: privCaches[i],
		}
	}
	return s, nil
}

// handleSync consumes one synchronisation record. The pipeline is
// drained when this is called, matching join semantics.
func (s *Simulator) handleSync(c *coreSim, rec trace.Record) {
	switch rec.Kind {
	case trace.KindParallelStart:
		s.rt.ParallelStart(c.id)
		c.inParallel = true
	case trace.KindParallelEnd:
		s.rt.Arrive(c.id)
		c.inParallel = false
	case trace.KindBarrier:
		s.rt.Arrive(c.id)
	case trace.KindCriticalWait:
		s.rt.Acquire(c.id, rec.Sync)
	case trace.KindCriticalSignal:
		s.rt.Release(c.id, rec.Sync)
	case trace.KindEnd:
		c.finished = true
	default:
		panic(fmt.Sprintf("core: unexpected record %v in handleSync", rec.Kind))
	}
}

// tickCore advances one core by one cycle.
func (s *Simulator) tickCore(now uint64, c *coreSim) {
	if c.finished {
		return
	}
	if s.rt.Blocked(c.id) {
		c.be.Tick(backend.StallSync)
		c.account(0)
		return
	}
	if rec, ok := c.peek(); ok {
		switch rec.Kind {
		case trace.KindFetchBlock:
			if c.fe.CanAccept(now) {
				c.fe.PushBlock(now, rec)
				c.pop()
			}
		case trace.KindIPCSet:
			c.be.SetIPC(rec.IPCMilli)
			c.pop()
		default:
			if c.fe.Drained() && c.be.Drained() {
				c.pop()
				s.handleSync(c, rec)
			}
		}
	}
	if c.finished {
		return
	}
	c.fe.Tick(now, c.be)
	committed := c.be.Tick(c.fe.BlockReason(now))
	c.account(committed)
}

// account books one elapsed cycle and its commits to the current
// section.
func (c *coreSim) account(committed int) {
	if c.inParallel {
		c.parallelCycles++
		c.parallelInstr += uint64(committed)
	} else {
		c.serialCycles++
		c.serialInstr += uint64(committed)
	}
}

// skipAccount books n elapsed zero-commit cycles to the current
// section, the bulk form of n account(0) calls. The section cannot
// flip inside a skipped window: inParallel changes only in handleSync,
// which runs only on real ticks.
func (c *coreSim) skipAccount(n uint64) {
	if c.inParallel {
		c.parallelCycles += n
	} else {
		c.serialCycles += n
	}
}

func (s *Simulator) allFinished() bool {
	for _, c := range s.cores {
		if !c.finished {
			return false
		}
	}
	return true
}

// icacheFor returns the cache serving the given core's fetches.
func (s *Simulator) icacheFor(core int) *cachesim.Cache {
	if c := s.cores[core].privCache; c != nil {
		return c
	}
	for _, sc := range s.shared {
		for _, m := range sc.groupCores {
			if m == core {
				return sc.cache
			}
		}
	}
	return nil
}

// Prewarm installs steady-state line sets before Run: icLines[i] into
// the I-cache serving core i (its private cache, or the shared cache of
// its group) and l2Lines[i] into core i's private L2. Installs count no
// accesses or misses (see cachesim.Cache.Install). Either slice may be
// shorter than the core count; calling after Run has no effect on the
// completed result.
func (s *Simulator) Prewarm(icLines, l2Lines [][]uint64) {
	for i := 0; i < len(icLines) && i < len(s.cores); i++ {
		cache := s.icacheFor(i)
		for _, line := range icLines[i] {
			cache.Install(line)
		}
	}
	for i := 0; i < len(l2Lines) && i < len(s.cores); i++ {
		for _, line := range l2Lines[i] {
			s.mem.Install(i, line)
		}
	}
}

// defaultMaxCycles bounds runaway simulations when Config.MaxCycles is
// zero: far above any legitimate run at library scale.
const defaultMaxCycles = 1 << 27

// Run executes the simulation to completion and returns the collected
// results. It errors if the cycle bound is exceeded (deadlock guard) or
// if Run was already called.
//
// Run uses an event-driven fast path: whenever every unit is provably
// idle it jumps straight to the earliest next-event cycle, replaying
// the skipped window as bulk stall accounting instead of per-cycle
// ticks. The Result is bit-identical to RunReference's naive loop (see
// docs/PERFORMANCE.md for the contract and its invariants).
func (s *Simulator) Run() (*Result, error) { return s.run(true) }

// RunReference executes the simulation with the naive
// tick-every-unit-every-cycle loop, no skip-ahead. It exists as the
// semantic reference for differential tests of the fast path; results
// must be deep-equal to Run's on every workload and configuration.
func (s *Simulator) RunReference() (*Result, error) { return s.run(false) }

func (s *Simulator) run(fast bool) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("core: Simulator is single-use; construct a new one")
	}
	s.ran = true
	maxCycles := s.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = defaultMaxCycles
	}
	now := uint64(0)
	for !s.allFinished() {
		if now >= maxCycles {
			return nil, fmt.Errorf("core: exceeded %d cycles (deadlock or runaway trace)", maxCycles)
		}
		if fast {
			if next := s.nextEvent(now); next > now {
				// Everything idles until next: account the window in
				// bulk and jump. Clamping to the cycle bound keeps the
				// deadlock guard (and a true deadlock's next == never)
				// on the naive loop's error path.
				if next > maxCycles {
					next = maxCycles
				}
				s.skipTo(now, next)
				now = next
				continue
			}
		}
		for _, sc := range s.shared {
			sc.Tick(now)
		}
		for _, c := range s.cores {
			s.tickCore(now, c)
		}
		now++
	}
	return s.collect(now), nil
}

// nextEvent returns the earliest cycle ≥ now at which any unit can make
// progress. A return of now means some unit is active and this cycle
// must be simulated; a later cycle T is a proof that ticking every
// cycle in [now, T) would change nothing but idle-stall accounting,
// which skipTo reproduces in bulk. Sources of events:
//
//   - shared-cache fabrics: the next cycle a queued request can be
//     granted (idle fabrics never fire on their own);
//   - cores: a consumable trace record, a non-empty instruction queue
//     (commit pacing is not skipped), or the front-end's own clock —
//     resolved fill arrivals and redirect-bubble expiry.
//
// Finished cores are inert, and cores blocked in the runtime wake only
// through another core's sync handling, which happens on real ticks
// only — neither contributes an event.
func (s *Simulator) nextEvent(now uint64) uint64 {
	const never = ^uint64(0)
	event := never
	for _, sc := range s.shared {
		e := sc.nextEvent(now)
		if e <= now {
			return now
		}
		if e < event {
			event = e
		}
	}
	for _, c := range s.cores {
		if c.finished || s.rt.Blocked(c.id) {
			continue
		}
		if !c.be.Drained() {
			return now
		}
		if rec, ok := c.peek(); ok {
			switch rec.Kind {
			case trace.KindFetchBlock:
				if c.fe.CanAccept(now) {
					return now
				}
				// Blocked on a redirect bubble (expiry is a front-end
				// event below) or a full FTQ (drains only through
				// front-end progress, also an event below).
			case trace.KindIPCSet:
				return now
			default:
				// Sync records consume once both ends are drained; the
				// back-end already is.
				if c.fe.Drained() {
					return now
				}
			}
		}
		e, idle := c.fe.NextEvent(now)
		if !idle {
			return now
		}
		if e < event {
			event = e
		}
	}
	return event
}

// skipTo bulk-accounts the idle window [now, target) for every core,
// reproducing exactly what per-cycle ticking would have recorded:
// runtime-blocked cores book sync stalls; running-but-stalled cores
// book their front-end's stall classification, split into the
// piecewise-constant sub-windows StallWindow reports (a request's
// bus-traversal window ending mid-skip flips attribution from bus
// latency to cache miss, say). Shared caches need no accounting — an
// idle fabric's tick is a no-op, which is what made the skip legal.
func (s *Simulator) skipTo(now, target uint64) {
	s.skipped += target - now
	for _, c := range s.cores {
		if c.finished {
			continue
		}
		if s.rt.Blocked(c.id) {
			c.be.SkipIdle(backend.StallSync, target-now)
			c.skipAccount(target - now)
			continue
		}
		for t := now; t < target; {
			kind, until := c.fe.StallWindow(t)
			end := target
			if until < end {
				end = until
			}
			if end <= t {
				panic("core: stall window does not advance")
			}
			c.be.SkipIdle(kind, end-t)
			c.skipAccount(end - t)
			t = end
		}
	}
}

// CoreResult is per-core output.
type CoreResult struct {
	Instructions         uint64
	SerialInstructions   uint64
	ParallelInstructions uint64
	SerialCycles         uint64
	ParallelCycles       uint64
	Stack                backend.CPIStack
	FE                   frontend.Stats
}

// Result aggregates one simulation run.
type Result struct {
	Config Config
	// Cycles is the total execution time (all threads joined).
	Cycles uint64
	Cores  []CoreResult

	// WorkerICache aggregates the caches serving worker fetches
	// (private per-core in the baseline, the shared caches otherwise);
	// MasterICache is the master's path.
	WorkerICache cachesim.Stats
	MasterICache cachesim.Stats

	// Bus aggregates all shared-I-cache fabrics (zero in the private
	// baseline). MergedFills counts requests satisfied by in-flight
	// fills (mutual prefetching).
	Bus         interconnect.Stats
	MergedFills uint64

	DRAM    memsys.DRAMStats
	Runtime omprt.Stats
}

func (s *Simulator) collect(cycles uint64) *Result {
	res := &Result{Config: s.cfg, Cycles: cycles, DRAM: s.mem.DRAMStats(), Runtime: s.rt.Stats()}
	for _, c := range s.cores {
		res.Cores = append(res.Cores, CoreResult{
			Instructions:         c.be.Committed(),
			SerialInstructions:   c.serialInstr,
			ParallelInstructions: c.parallelInstr,
			SerialCycles:         c.serialCycles,
			ParallelCycles:       c.parallelCycles,
			Stack:                c.be.Stack(),
			FE:                   c.fe.Stats(),
		})
	}
	switch s.cfg.Organization {
	case OrgPrivate:
		res.MasterICache = s.cores[0].privCache.Stats()
		for _, c := range s.cores[1:] {
			res.WorkerICache.Add(c.privCache.Stats())
		}
	case OrgWorkerShared:
		res.MasterICache = s.cores[0].privCache.Stats()
		for _, sc := range s.shared {
			res.WorkerICache.Add(sc.CacheStats())
			bs := sc.BusStats()
			res.Bus.Submitted += bs.Submitted
			res.Bus.Granted += bs.Granted
			res.Bus.WaitCycles += bs.WaitCycles
			res.Bus.BusyCycles += bs.BusyCycles
			res.MergedFills += sc.merged
		}
	case OrgAllShared:
		sc := s.shared[0]
		res.WorkerICache = sc.CacheStats()
		res.MasterICache = sc.CacheStats()
		res.Bus = sc.BusStats()
		res.MergedFills = sc.merged
	}
	return res
}

// WorkerInstructions sums committed instructions across worker cores.
func (r *Result) WorkerInstructions() uint64 {
	var n uint64
	for _, c := range r.Cores[1:] {
		n += c.Instructions
	}
	return n
}

// WorkerMPKI is worker-side I-cache misses per kilo worker instruction
// (the Fig 11 metric).
func (r *Result) WorkerMPKI() float64 {
	return r.WorkerICache.MPKI(r.WorkerInstructions())
}

// WorkerAccessRatio is the aggregate Fig 9 metric over worker cores.
func (r *Result) WorkerAccessRatio() float64 {
	var st frontend.Stats
	for _, c := range r.Cores[1:] {
		st.LineNeeds += c.FE.LineNeeds
		st.CacheFetches += c.FE.CacheFetches
	}
	return st.AccessRatio()
}

// WorkerStack sums worker CPI stacks (the Fig 8 breakdown).
func (r *Result) WorkerStack() backend.CPIStack {
	var st backend.CPIStack
	for _, c := range r.Cores[1:] {
		st.Add(c.Stack)
	}
	return st
}

// TotalInstructions sums committed instructions over all cores.
func (r *Result) TotalInstructions() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Instructions
	}
	return n
}
