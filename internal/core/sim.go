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

	// quietUntil is the next cycle Run ticks this core for real: the
	// cycles before it were played out in bulk by fold. It is never
	// while the core is finished or parked.
	quietUntil uint64
	// parked marks a runtime-blocked core Run does not tick; parkedAt
	// is the first cycle of its sync stall, booked in bulk on release.
	parked   bool
	parkedAt uint64

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
	// grantLat bounds how soon after its grant a shared fetch's data
	// can be ready: bus traversal plus SRAM access.
	grantLat uint64
	// syncs counts handled sync records, so Run can tell that a tick
	// may have released parked cores.
	syncs uint64
	// streamed and parked count the core-cycles Run played out in bulk
	// (by FrontEnd.Stream, and as parked sync stalls) instead of
	// ticking; tests read them to pin that the fast path engages. They
	// are not part of the Result.
	streamed, parked uint64
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
		cfg:      cfg,
		rt:       omprt.New(cfg.Cores()),
		mem:      memsys.New(memCfg),
		grantLat: uint64(cfg.BusLatency + cfg.ICacheLatency),
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
	s.syncs++
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
func (c *coreSim) account(committed int) { c.accountSpan(1, uint64(committed)) }

// accountSpan books n elapsed cycles and their commits to the current
// section, the bulk form of account. The section cannot flip inside a
// span played out in bulk: inParallel changes only in handleSync, which
// runs only on real ticks.
func (c *coreSim) accountSpan(n, committed uint64) {
	if c.inParallel {
		c.parallelCycles += n
		c.parallelInstr += committed
	} else {
		c.serialCycles += n
		c.serialInstr += committed
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

// never is a cycle no simulation reaches: the quietUntil of a finished
// or parked core, the next event of an idle fabric.
const never = ^uint64(0)

// start marks the simulator used and returns the cycle bound.
func (s *Simulator) start() (uint64, error) {
	if s.ran {
		return 0, fmt.Errorf("core: Simulator is single-use; construct a new one")
	}
	s.ran = true
	if s.cfg.MaxCycles == 0 {
		return defaultMaxCycles, nil
	}
	return s.cfg.MaxCycles, nil
}

func errMaxCycles(maxCycles uint64) error {
	return fmt.Errorf("core: exceeded %d cycles (deadlock or runaway trace)", maxCycles)
}

// Run executes the simulation to completion and returns the collected
// results. It errors if the cycle bound is exceeded (deadlock guard) or
// if Run was already called.
//
// Run folds quiet cycles per core: after each real tick a core plays
// out the cycles that follow in bulk for as long as it can prove from
// its own state that they change nothing but its instruction queue,
// commit credits and stall accounting (fold); a runtime-blocked core is
// parked until another core's sync releases it; a fabric ticks only
// when it can grant, which is polled once per step. Time jumps straight
// to the next cycle some core or fabric must act in. The Result is
// bit-identical to RunReference's naive loop (see docs/PERFORMANCE.md
// for the contract and its invariants).
func (s *Simulator) Run() (*Result, error) {
	maxCycles, err := s.start()
	if err != nil {
		return nil, err
	}
	// events[i] is shared cache i's next possible grant, taken at the
	// end of the last step. Only a core's request submits to a fabric,
	// and no core ticks between then and this step's grant check, so
	// events[i] <= now exactly when nextEvent(now) <= now.
	events := make([]uint64, len(s.shared))
	for i, sc := range s.shared {
		events[i] = sc.nextEvent(0)
	}
	live, now := len(s.cores), uint64(0)
	for {
		if now >= maxCycles {
			return nil, errMaxCycles(maxCycles)
		}
		for i, sc := range s.shared {
			if events[i] <= now {
				sc.Tick(now)
			}
		}
		for _, c := range s.cores {
			if c.quietUntil > now {
				continue
			}
			syncs := s.syncs
			s.tickCore(now, c)
			if s.syncs != syncs {
				if c.finished {
					live--
				}
				s.unpark(now, c)
			}
			s.fold(now, c, maxCycles)
		}
		if live == 0 {
			return s.collect(now + 1), nil
		}
		next := never
		for _, c := range s.cores {
			next = min(next, c.quietUntil)
		}
		for i, sc := range s.shared {
			events[i] = sc.nextEvent(now + 1)
			next = min(next, events[i])
		}
		// A deadlock (next == never) lands on the cycle bound's error.
		now = min(next, maxCycles)
	}
}

// fold sets c.quietUntil after c's real tick at now and books the
// cycles before it in bulk. A finished core is inert; a blocked one
// parks. A running core streams (FrontEnd.Stream) unless its next trace
// record could act before the front-end's own state changes: a fetch
// block is pushed once the redirect bubble ends if the FTQ has room
// (it cannot gain room in a quiet cycle), an IPC change is consumed at
// once, and a sync record once both ends drain, which cannot happen
// while the FTQ holds a block. Every fold stops at the cycle bound.
func (s *Simulator) fold(now uint64, c *coreSim, maxCycles uint64) {
	switch {
	case c.finished:
		c.quietUntil = never
		return
	case s.rt.Blocked(c.id):
		c.parked, c.parkedAt, c.quietUntil = true, now+1, never
		return
	}
	bound := maxCycles
	if rec, ok := c.peek(); ok {
		switch rec.Kind {
		case trace.KindFetchBlock:
			bound = min(bound, c.fe.AcceptFrom())
		case trace.KindIPCSet:
			bound = now
		default:
			if c.fe.Empty() {
				bound = now
			}
		}
	}
	next, committed := c.fe.Stream(now, bound, s.grantLat, c.be)
	c.accountSpan(next-now-1, committed)
	s.streamed += next - now - 1
	c.quietUntil = next
}

// unpark releases the parked cores that waker's sync at cycle now
// unblocked, booking each one's sync stall in bulk. The per-cycle loop
// ticks cores in index order, so a core before the waker was still
// blocked when it ticked at now and resumes at now+1, while a core
// after it resumes at now itself, later in this cycle's pass.
func (s *Simulator) unpark(now uint64, waker *coreSim) {
	for _, c := range s.cores {
		if !c.parked || s.rt.Blocked(c.id) {
			continue
		}
		resume := now
		if c.id < waker.id {
			resume = now + 1
		}
		c.be.SkipIdle(backend.StallSync, resume-c.parkedAt)
		c.accountSpan(resume-c.parkedAt, 0)
		s.parked += resume - c.parkedAt
		c.parked, c.quietUntil = false, resume
	}
}

// RunReference executes the simulation with the naive
// tick-every-unit-every-cycle loop, no folding. It exists as the
// semantic reference for differential tests of the fast path; results
// must be deep-equal to Run's on every workload and configuration.
func (s *Simulator) RunReference() (*Result, error) {
	maxCycles, err := s.start()
	if err != nil {
		return nil, err
	}
	now := uint64(0)
	for !s.allFinished() {
		if now >= maxCycles {
			return nil, errMaxCycles(maxCycles)
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
