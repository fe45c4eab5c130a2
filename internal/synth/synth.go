package synth

import (
	"fmt"

	"sharedicache/internal/trace"
)

// Address-space layout for generated code regions. Keeping regions in
// disjoint ranges makes sharing measurable by address and prevents
// accidental aliasing between serial, parallel and per-thread code.
const (
	baseSerialHot    = 0x0040_0000
	baseSerialCold   = 0x0100_0000
	baseParallelHot  = 0x0200_0000
	baseParallelCold = 0x0300_0000
	basePrivate      = 0x0400_0000
	privateStride    = 0x0010_0000
)

// instrBytes is the fixed instruction size (RISC-style, as on the
// paper's ARM lean cores).
const instrBytes = 4

// Config controls trace synthesis for one workload run.
type Config struct {
	// Workers is the number of lean cores (paper: 8). Threads are
	// numbered 0 (master) .. Workers.
	Workers int
	// MasterInstructions is the total master-thread instruction budget
	// across all phases. Workers execute ≈ MasterInstructions ×
	// (1 − SerialFrac) each. The paper traces ≥20 G instructions;
	// scaled-down runs keep every behavioural shape but inflate
	// cold-miss MPKI proportionally (recorded in ROADMAP.md until its
	// planned EXPERIMENTS.md ledger lands).
	MasterInstructions uint64
	// Seed makes the whole workload deterministic.
	Seed uint64
}

// DefaultConfig returns an 8-worker configuration with a laptop-scale
// instruction budget.
func DefaultConfig() Config {
	return Config{Workers: 8, MasterInstructions: 1_000_000, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("synth: Workers = %d, need at least 1", c.Workers)
	}
	if c.MasterInstructions < 1000 {
		return fmt.Errorf("synth: MasterInstructions = %d, need at least 1000", c.MasterInstructions)
	}
	return nil
}

// rng is xorshift64*: cheap, deterministic, good enough for workload
// synthesis (not cryptographic).
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// block is one basic block of straight-line code ending in a branch.
type block struct {
	addr uint64
	size uint32
}

func (b block) instrs() uint32 { return b.size / instrBytes }

// region is a contiguous sequence of basic blocks partitioned into
// kernels (innermost hot-loop bodies).
type region struct {
	blocks  []block
	kernels [][2]int // [start, end) block indices
}

// buildRegion lays out ~footprint bytes of basic blocks with mean size
// meanBB at base, grouped into kernels of ~body bytes.
func buildRegion(base uint64, footprint, meanBB, body int, r *rng) *region {
	if meanBB < 8 {
		meanBB = 8
	}
	if body < meanBB {
		body = meanBB
	}
	reg := &region{}
	addr := uint64(base)
	total := 0
	kStart, kBytes := 0, 0
	for total < footprint {
		// Uniform in [meanBB/2, 3·meanBB/2], multiple of 4, ≥ 8.
		sz := meanBB/2 + r.intn(meanBB+1)
		sz = (sz / instrBytes) * instrBytes
		if sz < 8 {
			sz = 8
		}
		reg.blocks = append(reg.blocks, block{addr: addr, size: uint32(sz)})
		addr += uint64(sz)
		total += sz
		kBytes += sz
		if kBytes >= body {
			reg.kernels = append(reg.kernels, [2]int{kStart, len(reg.blocks)})
			kStart, kBytes = len(reg.blocks), 0
		}
	}
	if kStart < len(reg.blocks) {
		reg.kernels = append(reg.kernels, [2]int{kStart, len(reg.blocks)})
	}
	return reg
}

// Footprint returns the region size in bytes.
func (rg *region) Footprint() int {
	n := 0
	for _, b := range rg.blocks {
		n += int(b.size)
	}
	return n
}

// hotCursor walks a region kernel by kernel, executing each kernel as
// a loop with data-dependent skip branches. Each kernel's trip count
// is fixed across visits (HPC inner loops iterate over problem
// dimensions, which do not change between outer iterations — which is
// why the loop predictor of Table I works), but varies across kernels
// by a deterministic +/-25% so the region is not uniform.
type hotCursor struct {
	reg       *region
	noise     float64
	baseTrips int
	rnd       *rng

	kernel int
	trip   int
	trips  int // trip count of the current kernel
	blk    int // absolute block index within region
}

func newHotCursor(reg *region, trips int, noise float64, rnd *rng, startKernel int) *hotCursor {
	if trips < 2 {
		trips = 2
	}
	c := &hotCursor{reg: reg, noise: noise, baseTrips: trips, rnd: rnd,
		kernel: startKernel % len(reg.kernels)}
	c.beginVisit()
	return c
}

// kernelTrips returns kernel k's fixed trip count.
func (c *hotCursor) kernelTrips(k int) int {
	h := uint64(k)*0x9E3779B97F4A7C15 + 0x1234
	h ^= h >> 29
	t := c.baseTrips*3/4 + int(h%uint64(c.baseTrips/2+1))
	if t < 1 {
		t = 1
	}
	return t
}

func (c *hotCursor) beginVisit() {
	c.trips = c.kernelTrips(c.kernel)
	c.trip = 0
	c.blk = c.reg.kernels[c.kernel][0]
}

// emit appends records until ~budget instructions are produced,
// preserving position across calls. It returns instructions emitted.
func (c *hotCursor) emit(buf *[]trace.Record, budget int) int {
	emitted := 0
	for emitted < budget {
		k := c.reg.kernels[c.kernel]
		b := c.reg.blocks[c.blk]
		rec := trace.Record{
			Kind: trace.KindFetchBlock, Addr: b.addr, Len: b.size,
			NumInstr: b.instrs(), HasBranch: true,
			BranchAddr: b.addr + uint64(b.size) - instrBytes,
		}
		last := c.blk == k[1]-1
		switch {
		case last && c.trip < c.trips-1:
			// Loop back edge.
			rec.Taken = true
			rec.Target = c.reg.blocks[k[0]].addr
			c.trip++
			c.blk = k[0]
		case last:
			// Loop exit: fall through to the next kernel (or wrap).
			c.kernel++
			if c.kernel >= len(c.reg.kernels) {
				c.kernel = 0
				rec.Taken = true // wrap jump back to region start
			}
			c.beginVisit()
			rec.Target = c.reg.blocks[c.reg.kernels[c.kernel][0]].addr
		case c.blk+2 < k[1] && c.rnd.float() < c.noise:
			// Data-dependent skip over the next block.
			rec.Taken = true
			rec.Target = c.reg.blocks[c.blk+2].addr
			c.blk += 2
		default:
			rec.Target = c.reg.blocks[c.blk+1].addr
			c.blk++
		}
		*buf = append(*buf, rec)
		emitted += int(rec.NumInstr)
	}
	return emitted
}

// coldCursor streams a large region linearly (wrapping), the pattern
// that manufactures capacity/compulsory misses.
type coldCursor struct {
	reg   *region
	noise float64
	rnd   *rng
	pos   int
}

func newColdCursor(reg *region, noise float64, rnd *rng) *coldCursor {
	return &coldCursor{reg: reg, noise: noise, rnd: rnd}
}

func (c *coldCursor) emit(buf *[]trace.Record, budget int) int {
	emitted := 0
	for emitted < budget {
		b := c.reg.blocks[c.pos]
		rec := trace.Record{
			Kind: trace.KindFetchBlock, Addr: b.addr, Len: b.size,
			NumInstr: b.instrs(), HasBranch: true,
			BranchAddr: b.addr + uint64(b.size) - instrBytes,
		}
		switch {
		case c.pos == len(c.reg.blocks)-1:
			rec.Taken = true
			rec.Target = c.reg.blocks[0].addr
			c.pos = 0
		case c.pos+2 < len(c.reg.blocks) && c.rnd.float() < c.noise:
			rec.Taken = true
			rec.Target = c.reg.blocks[c.pos+2].addr
			c.pos += 2
		default:
			rec.Target = c.reg.blocks[c.pos+1].addr
			c.pos++
		}
		*buf = append(*buf, rec)
		emitted += int(rec.NumInstr)
	}
	return emitted
}

// Workload holds the built code regions for one benchmark and hands out
// per-thread trace sources.
type Workload struct {
	p       Profile
	cfg     Config
	serHot  *region
	serCold *region
	parHot  *region
	parCold *region
	private []*region
}

// New builds the workload's code regions deterministically from
// cfg.Seed. It returns an error for invalid configuration.
func New(p Profile, cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p.Name == "" {
		return nil, fmt.Errorf("synth: profile has no name")
	}
	layout := newRNG(cfg.Seed ^ 0xC0DE)
	w := &Workload{p: p, cfg: cfg}
	w.serHot = buildRegion(baseSerialHot, p.SerialFootprint, p.SerialBB, p.SerialHotBody, layout)
	w.serCold = buildRegion(baseSerialCold, p.ColdFootprint, p.SerialBB, p.ColdFootprint, layout)
	w.parHot = buildRegion(baseParallelHot, p.ParallelFootprint, p.ParallelBB, p.ParallelHotBody, layout)
	if p.ParallelColdFrac > 0 {
		w.parCold = buildRegion(baseParallelCold, p.ColdFootprint, p.ParallelBB, p.ColdFootprint, layout)
	}
	n := cfg.Workers + 1
	w.private = make([]*region, n)
	for t := 0; t < n; t++ {
		base := uint64(basePrivate + t*privateStride)
		fp := p.PrivateFootprint
		if fp < 64 {
			fp = 64
		}
		w.private[t] = buildRegion(base, fp, p.ParallelBB, p.ParallelHotBody, layout)
	}
	return w, nil
}

// Profile returns the profile the workload was built from.
func (w *Workload) Profile() Profile { return w.p }

// NumThreads returns 1 + Workers (thread 0 is the master).
func (w *Workload) NumThreads() int { return w.cfg.Workers + 1 }

// Source returns a fresh trace source for the given thread. Sources are
// independent: each starts from the beginning of the thread's trace and
// regenerates the identical record stream.
func (w *Workload) Source(thread int) trace.Source {
	if thread < 0 || thread >= w.NumThreads() {
		panic(fmt.Sprintf("synth: thread %d out of range [0,%d)", thread, w.NumThreads()))
	}
	g := &genSource{w: w, thread: thread}
	g.init()
	return g
}

// Sources returns fresh trace sources for every thread, master first —
// the slice shape core.New expects.
func (w *Workload) Sources() []trace.Source {
	srcs := make([]trace.Source, w.NumThreads())
	for i := range srcs {
		srcs[i] = w.Source(i)
	}
	return srcs
}

// genSource streams one thread's trace, generating records one phase at
// a time to bound memory.
type genSource struct {
	w      *Workload
	thread int
	phase  int
	buf    []trace.Record
	idx    int
	done   bool

	rnd     *rng
	hot     *hotCursor
	priv    *hotCursor
	serHot  *hotCursor
	serCold *coldCursor
	parCold *coldCursor
}

func (g *genSource) init() {
	w, p := g.w, g.w.p
	g.rnd = newRNG(w.cfg.Seed*0x9E37 + uint64(g.thread)*0x85EB + 1)
	startKernel := 0
	if p.Skew {
		startKernel = g.thread * len(w.parHot.kernels) / w.NumThreads()
	}
	g.hot = newHotCursor(w.parHot, p.Trips, p.ParallelBranchNoise, g.rnd, startKernel)
	g.priv = newHotCursor(w.private[g.thread], p.Trips, p.ParallelBranchNoise, g.rnd, 0)
	if g.thread == 0 {
		g.serHot = newHotCursor(w.serHot, p.Trips, p.SerialBranchNoise, g.rnd, 0)
		g.serCold = newColdCursor(w.serCold, p.SerialBranchNoise, g.rnd)
	}
	if w.parCold != nil {
		g.parCold = newColdCursor(w.parCold, p.ParallelBranchNoise, g.rnd)
	}
}

// Next implements trace.Source.
func (g *genSource) Next() (trace.Record, bool) {
	for g.idx >= len(g.buf) {
		if g.done {
			return trace.Record{}, false
		}
		g.buf = g.buf[:0]
		g.idx = 0
		g.genPhase()
		g.phase++
		if g.phase >= g.w.p.Phases {
			g.buf = append(g.buf, trace.Record{Kind: trace.KindEnd})
			g.done = true
		}
	}
	r := g.buf[g.idx]
	g.idx++
	return r, true
}

// Interleave chunk sizes in instructions: hot and cold code stream in
// sizeable runs; private code appears as shorter excursions.
const (
	hotChunk  = 512
	coldChunk = 512
	privChunk = 256
)

// emitClass is one dynamic instruction class within a section.
type emitClass struct {
	emit    func(buf *[]trace.Record, budget int) int
	budget  int
	emitted int
	chunk   int
}

// emitSection emits ~budget instructions split between looped hot code,
// cold streaming and private code according to the given dynamic
// fractions, plus crit critical-section pairs spread across the section.
// Classes interleave by deficit so every prefix of the section holds the
// configured mix even when the section is short.
func (g *genSource) emitSection(budget int, hot *hotCursor, cold *coldCursor,
	coldFrac float64, priv *hotCursor, privFrac float64, crit int) {
	if budget <= 0 {
		return
	}
	coldB, privB := 0, 0
	if cold != nil {
		coldB = int(float64(budget) * coldFrac)
	}
	if priv != nil {
		privB = int(float64(budget) * privFrac)
	}
	classes := []emitClass{
		{emit: hot.emit, budget: budget - coldB - privB, chunk: hotChunk},
	}
	if coldB > 0 {
		classes = append(classes, emitClass{emit: cold.emit, budget: coldB, chunk: coldChunk})
	}
	if privB > 0 {
		classes = append(classes, emitClass{emit: priv.emit, budget: privB, chunk: privChunk})
	}
	total, critDone := 0, 0
	for {
		if crit > 0 && critDone < crit && total >= (critDone+1)*budget/(crit+1) {
			g.buf = append(g.buf, trace.Record{Kind: trace.KindCriticalWait, Sync: 0})
			total += priv.emit(&g.buf, 12)
			g.buf = append(g.buf, trace.Record{Kind: trace.KindCriticalSignal, Sync: 0})
			critDone++
		}
		// Pick the class with the smallest completion fraction.
		best := -1
		for i := range classes {
			c := &classes[i]
			if c.emitted >= c.budget {
				continue
			}
			if best < 0 ||
				c.emitted*classes[best].budget < classes[best].emitted*c.budget {
				best = i
			}
		}
		if best < 0 {
			return
		}
		c := &classes[best]
		want := c.budget - c.emitted
		if want > c.chunk {
			want = c.chunk
		}
		e := c.emit(&g.buf, want)
		c.emitted += e
		total += e
	}
}

// fixupTransitions repairs branch targets at cursor switch points: when
// control transfers between regions (hot→cold, hot→private, ...), the
// previous block's recorded target cannot know the next block in the
// stream, so mark the transition as a taken jump to wherever execution
// actually continued. This models the call/return glue the real
// programs have at those boundaries.
func fixupTransitions(recs []trace.Record) {
	var prev *trace.Record
	for i := range recs {
		r := &recs[i]
		if r.Kind != trace.KindFetchBlock {
			prev = nil
			continue
		}
		if prev != nil && prev.Target != r.Addr {
			prev.Taken = true
			prev.Target = r.Addr
		}
		prev = r
	}
}

// emitParallel emits one parallel section's instructions, split by the
// profile's mid-region barriers (all team members emit the same
// barrier count, as OpenMP worksharing requires).
func (g *genSource) emitParallel(budget, crit int) {
	p := g.w.p
	chunks := p.BarriersPerRegion + 1
	per := budget / chunks
	for c := 0; c < chunks; c++ {
		b := per
		if c == chunks-1 {
			b = budget - per*(chunks-1)
		}
		critHere := 0
		if c == 0 {
			critHere = crit
		}
		g.emitSection(b, g.hot, g.parCold, p.ParallelColdFrac, g.priv, p.PrivateFrac, critHere)
		if c < chunks-1 {
			g.buf = append(g.buf, trace.Record{Kind: trace.KindBarrier})
		}
	}
}

// genPhase appends one phase of records for this thread.
func (g *genSource) genPhase() {
	w, p := g.w, g.w.p
	perPhase := w.cfg.MasterInstructions / uint64(p.Phases)
	serialBudget := int(float64(perPhase) * p.SerialFrac)
	parallelBudget := int(perPhase) - serialBudget

	if g.thread == 0 {
		if serialBudget > 0 {
			g.buf = append(g.buf, trace.Record{Kind: trace.KindIPCSet, IPCMilli: uint32(p.MasterSerialIPC)})
			g.emitSection(serialBudget, g.serHot, g.serCold, p.SerialColdFrac, nil, 0, 0)
		}
		g.buf = append(g.buf, trace.Record{Kind: trace.KindParallelStart})
		g.buf = append(g.buf, trace.Record{Kind: trace.KindIPCSet, IPCMilli: uint32(p.MasterParallelIPC)})
		g.emitParallel(parallelBudget, 0)
		g.buf = append(g.buf, trace.Record{Kind: trace.KindParallelEnd})
		fixupTransitions(g.buf)
		return
	}
	// Worker: jitter the budget ±2% so threads do not finish in perfect
	// lockstep (barrier wait is real work imbalance).
	jittered := parallelBudget * (980 + g.rnd.intn(41)) / 1000
	g.buf = append(g.buf, trace.Record{Kind: trace.KindParallelStart})
	g.buf = append(g.buf, trace.Record{Kind: trace.KindIPCSet, IPCMilli: uint32(p.WorkerIPC)})
	g.emitParallel(jittered, p.CriticalSections)
	g.buf = append(g.buf, trace.Record{Kind: trace.KindParallelEnd})
	fixupTransitions(g.buf)
}
