// Package frontend implements the decoupled core front-end of §IV-A:
// a fetch (branch) predictor feeding a fetch target queue (FTQ), a
// small set of line buffers that act as prefetch buffers and
// outstanding-request slots, and delivery of fetched instructions into
// the back-end's instruction queue.
//
// The branch predictor is decoupled from the I-cache by the FTQ: blocks
// are pushed as fast as prediction allows, and line fetches for FTQ
// entries run ahead of consumption, which is what hides a multi-cycle
// shared I-cache latency when it works — and what Fig 7/8 measure when
// it does not.
package frontend

import (
	"fmt"

	"sharedicache/internal/backend"
	"sharedicache/internal/branch"
	"sharedicache/internal/trace"
)

// Config sizes one core's front-end.
type Config struct {
	// LineBuffers is the number of 64 B line buffers (Table I: 2/4/8).
	LineBuffers int
	// FTQDepth is the fetch target queue capacity in blocks.
	FTQDepth int
	// LineBytes is the I-cache line size (Table I: 64).
	LineBytes int
	// MispredictPenalty is the redirect bubble in cycles.
	MispredictPenalty int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LineBuffers < 1 {
		return fmt.Errorf("frontend: need at least 1 line buffer, got %d", c.LineBuffers)
	}
	if c.FTQDepth < 1 {
		return fmt.Errorf("frontend: need FTQ depth >= 1, got %d", c.FTQDepth)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("frontend: line size %d not a positive power of two", c.LineBytes)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("frontend: negative mispredict penalty")
	}
	return nil
}

// Stats counts front-end activity.
type Stats struct {
	BlocksPushed   uint64
	InstrDelivered uint64
	// LineNeeds is every (block, line) fetch request the front-end
	// generated; CacheFetches is the subset that had to go to the
	// I-cache because no line buffer held the line. Their ratio is the
	// paper's Fig 9 "I-cache access ratio".
	LineNeeds    uint64
	CacheFetches uint64
	Mispredicts  uint64
}

// AccessRatio returns CacheFetches / LineNeeds in [0,1].
func (s Stats) AccessRatio() float64 {
	if s.LineNeeds == 0 {
		return 0
	}
	return float64(s.CacheFetches) / float64(s.LineNeeds)
}

type ftqEntry struct {
	addr     uint64
	length   uint32
	numInstr uint32
	// consumed tracks delivery progress in bytes from addr.
	consumed uint32
	// needIssued tracks request-issue progress in bytes from addr
	// (line granularity, runs ahead of consumed).
	needIssued uint32
}

type lineBuffer struct {
	lineAddr uint64
	valid    bool
	pending  *LineRequest
	lastUse  uint64
	inUse    bool
}

// FrontEnd is one core's instruction-fetch pipeline.
type FrontEnd struct {
	cfg  Config
	port ICachePort
	pred *branch.Predictor

	ftq        []ftqEntry
	bufs       []lineBuffer
	stallUntil uint64
	stats      Stats
	lineMask   uint64

	// gen is bumped by every mutation that can change issue's outcome
	// or which buffer holds the head line: a fill latch, a Request, an
	// issue-cursor advance or rewind, a delivery that crosses a line or
	// pops, a flush, a push into an empty FTQ, and a change in which
	// buffer deliver marked in use. It keys the headBuffer cache.
	gen uint64
	// wake is bumped by the subset of gen's mutations that can let a
	// failed allocation succeed: every one but a head line-cross, a
	// fill latch of a buffer the blocked walk could not take, and a pop
	// that leaves the blocked entry behind the head. A blocked cycle
	// then costs O(1): see docs/PERFORMANCE.md, "Fetch-blocked cycles".
	wake uint64
	// blockedWake is the wake count at which issue's last allocation
	// failed, and blockedAt the FTQ index of the entry it failed for;
	// while wake == blockedWake, a walk would fail there again.
	blockedWake uint64
	blockedAt   int
	// headBuf is findBuffer of the head block's current line, valid
	// while headGen == gen.
	headGen uint64
	headBuf int
	// marked is the buffer deliver last marked in use, or -1.
	marked int
}

// New builds a front-end fetching through port with predictor pred.
// It panics on invalid configuration.
func New(cfg Config, port ICachePort, pred *branch.Predictor) *FrontEnd {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if port == nil || pred == nil {
		panic("frontend: nil port or predictor")
	}
	return &FrontEnd{
		cfg:      cfg,
		port:     port,
		pred:     pred,
		bufs:     make([]lineBuffer, cfg.LineBuffers),
		lineMask: ^uint64(cfg.LineBytes - 1),
		gen:      1, // headGen starts out stale
		wake:     1, // and so does blockedWake
		marked:   -1,
	}
}

// CanAccept reports whether a new fetch block can enter the FTQ at
// cycle now (space available and no active redirect bubble).
func (f *FrontEnd) CanAccept(now uint64) bool {
	return now >= f.stallUntil && len(f.ftq) < f.cfg.FTQDepth
}

// PushBlock inserts the next fetch block from the (correct-path) trace.
// The terminating branch, if any, is run through the predictor; a
// misprediction opens a redirect bubble during which no further blocks
// are accepted.
func (f *FrontEnd) PushBlock(now uint64, rec trace.Record) {
	if rec.Kind != trace.KindFetchBlock {
		panic(fmt.Sprintf("frontend: PushBlock got %v", rec.Kind))
	}
	if !f.CanAccept(now) {
		panic("frontend: PushBlock without CanAccept")
	}
	if len(f.ftq) == 0 {
		f.bump() // a new head line
	}
	// A push behind an existing head changes nothing issue can reach: a
	// blocked issue returns before the new tail entry, and an entry with
	// nothing issued owns no live line.
	f.ftq = append(f.ftq, ftqEntry{addr: rec.Addr, length: rec.Len, numInstr: rec.NumInstr})
	f.stats.BlocksPushed++
	if rec.HasBranch {
		if _, correct := f.pred.Predict(rec.BranchAddr, rec.Taken); !correct {
			f.stats.Mispredicts++
			f.stallUntil = now + uint64(f.cfg.MispredictPenalty)
			f.flush()
		}
	}
}

// flush models the redirect of §IV-A: "the pending I-cache requests
// are discarded and all front-end stages of the pipeline flushed".
// Buffers with in-flight fills are dropped (the fill completes in the
// cache but the orphaned grant is ignored), so the blocks that needed
// those lines refetch them after the redirect and pay the full I-cache
// path latency again — the mechanism that makes a shared I-cache
// expensive for branchy serial code (Fig 13). Already-valid buffers
// survive, as their data lives in registers that a redirect does not
// scrub.
func (f *FrontEnd) flush() {
	f.bump()
	for i := range f.bufs {
		if f.bufs[i].pending != nil {
			f.bufs[i] = lineBuffer{}
		}
	}
}

// bump records a mutation that can change both which buffer holds the
// head line and whether a blocked issue can now allocate.
func (f *FrontEnd) bump() {
	f.gen++
	f.wake++
}

// blocked reports whether issue's last allocation failed and nothing
// since could let it succeed: a walk now would fail at blockedAt.
func (f *FrontEnd) blocked() bool { return f.blockedWake == f.wake }

// findBuffer returns the buffer index holding lineAddr (valid or
// pending), or -1.
func (f *FrontEnd) findBuffer(lineAddr uint64) int {
	for i := range f.bufs {
		b := &f.bufs[i]
		if (b.valid || b.pending != nil) && b.lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

// headBuffer returns findBuffer of the line the head block is consuming
// (or about to), cached per generation. The FTQ must not be empty.
func (f *FrontEnd) headBuffer() int {
	if f.headGen != f.gen {
		e := &f.ftq[0]
		f.headBuf = f.findBuffer((e.addr + uint64(e.consumed)) & f.lineMask)
		f.headGen = f.gen
	}
	return f.headBuf
}

// liveOwner reports whether lineAddr is live — issued but not yet
// consumed past by some FTQ entry, so its line buffer is still owed to
// the pipeline and evicting it forces a duplicate fetch — and if so the
// oldest (lowest-index) entry needing it. It scans the FTQ directly
// instead of materialising a line→owner map per eviction decision; the
// FTQ and per-entry line counts are small, and the hot loop stays
// allocation-free.
func (f *FrontEnd) liveOwner(lineAddr uint64) (int, bool) {
	for i := range f.ftq {
		e := &f.ftq[i]
		if e.needIssued <= e.consumed {
			continue
		}
		// The issued-not-consumed bytes [addr+consumed, addr+needIssued)
		// are contiguous, so the lines they touch are exactly the range
		// [first, last] — an interval test instead of a line walk.
		first := (e.addr + uint64(e.consumed)) & f.lineMask
		last := (e.addr + uint64(e.needIssued) - 1) & f.lineMask
		if lineAddr >= first && lineAddr <= last {
			return i, true
		}
	}
	return 0, false
}

// allocBuffer picks a victim buffer for a request by FTQ entry
// forEntry: an empty slot if one exists, else the least-recently-used
// valid, not-pending, not-in-use buffer whose line no FTQ entry still
// needs. When the requester is the pipeline head and every candidate
// is still live, the line owned by the youngest non-head entry is
// sacrificed (it refetches later via the head rewind) so the head can
// always make progress; younger requesters wait instead of thrashing.
// It returns -1 when no victim is eligible.
func (f *FrontEnd) allocBuffer(forEntry int) int {
	victim := -1
	lastResort, lastOwner := -1, 0
	for i := range f.bufs {
		b := &f.bufs[i]
		if b.pending != nil || b.inUse {
			continue
		}
		if !b.valid {
			return i
		}
		if owner, ok := f.liveOwner(b.lineAddr); ok {
			if owner > lastOwner {
				lastResort, lastOwner = i, owner
			}
			continue
		}
		if victim < 0 || b.lastUse < f.bufs[victim].lastUse {
			victim = i
		}
	}
	if victim < 0 && forEntry == 0 {
		return lastResort
	}
	return victim
}

// Tick advances the fetch pipeline one cycle: complete fills, issue at
// most one new line request, and deliver ready instructions from the
// FTQ head into the back-end queue (at most one line's worth per
// cycle, the fetch bandwidth of Table I).
func (f *FrontEnd) Tick(now uint64, be *backend.Backend) {
	f.latch(now)
	f.issue(now)
	f.deliver(now, be)
}

// latch is the fill stage: it latches completed requests.
func (f *FrontEnd) latch(now uint64) {
	for i := range f.bufs {
		b := &f.bufs[i]
		if b.pending != nil && b.pending.Ready(now) {
			b.valid = true
			b.pending = nil
			f.gen++
			// A buffer the blocked walk could not take stays
			// untakeable until some other mutation bumps wake.
			if !f.blocked() || f.evictable(b.lineAddr) {
				f.wake++
			}
		}
	}
}

// evictable reports whether a valid, unmarked buffer holding lineAddr
// could be allocBuffer's choice for the blocked entry: its line is not
// live, or the blocked entry is the head and may take the last resort,
// a line owned by a younger entry.
func (f *FrontEnd) evictable(lineAddr uint64) bool {
	owner, live := f.liveOwner(lineAddr)
	return !live || f.blockedAt == 0 && owner > 0
}

// issue requests the first line of the FTQ that is not yet covered by
// a line buffer (one request per cycle, one outstanding request per
// buffer).
func (f *FrontEnd) issue(now uint64) {
	f.protectHead()
	if f.blocked() {
		// Nothing that could free a buffer happened since allocation
		// last failed: the walk would reach the same line and fail
		// again, counting nothing.
		return
	}
	f.walk(now)
}

// protectHead protects the line the head block is consuming (or is
// about to): it must not be evicted by requests for younger blocks, and
// if it already was, the head's issue cursor is rewound so it is
// fetched again.
func (f *FrontEnd) protectHead() {
	if len(f.ftq) == 0 {
		return
	}
	e := &f.ftq[0]
	if j := f.headBuffer(); j >= 0 {
		f.bufs[j].inUse = true
	} else if e.needIssued > e.consumed {
		e.needIssued = e.consumed
		f.bump()
	}
}

// walk goes through the FTQ in order, moving each issue cursor past
// lines a buffer already holds, and requests the first line none does.
// It returns the FTQ index whose allocation failed, or -1 when it
// requested a line or found nothing left to issue.
func (f *FrontEnd) walk(now uint64) int {
	for i := range f.ftq {
		e := &f.ftq[i]
		for e.needIssued < e.length {
			line := (e.addr + uint64(e.needIssued)) & f.lineMask
			f.stats.LineNeeds++
			if j := f.findBuffer(line); j >= 0 {
				f.bufs[j].lastUse = now
				e.needIssued = f.advanceToNextLine(e, e.needIssued, line)
				f.bump()
				continue
			}
			j := f.allocBuffer(i)
			if j < 0 {
				// All buffers busy: retry once something could free
				// one. Un-count the need so the retry is not
				// double-counted.
				f.stats.LineNeeds--
				f.blockedWake, f.blockedAt = f.wake, i
				return i
			}
			b := &f.bufs[j]
			b.lineAddr = line
			b.valid = false
			b.lastUse = now
			b.pending = f.port.Request(now, line)
			f.bump()
			f.stats.CacheFetches++
			e.needIssued = f.advanceToNextLine(e, e.needIssued, line)
			return -1 // one request per cycle
		}
	}
	return -1
}

// advanceToNextLine moves the issue cursor past the portion of the
// block covered by line.
func (f *FrontEnd) advanceToNextLine(e *ftqEntry, offset uint32, line uint64) uint32 {
	lineEnd := line + uint64(f.cfg.LineBytes)
	covered := lineEnd - (e.addr + uint64(offset))
	next := offset + uint32(covered)
	if next > e.length {
		next = e.length
	}
	return next
}

// deliver moves instructions of the FTQ head block into the back-end
// queue, up to one line's worth per cycle.
func (f *FrontEnd) deliver(now uint64, be *backend.Backend) {
	// Clear in-use marks; re-set for the line being consumed.
	for i := range f.bufs {
		f.bufs[i].inUse = false
	}
	j := -1
	if len(f.ftq) > 0 {
		if j = f.headBuffer(); j >= 0 && !f.bufs[j].valid {
			j = -1 // line not arrived yet
		}
	}
	if j != f.marked {
		// The marks the next issue starts from change: the clear above
		// may have freed a buffer (after a pop, the old head's) while
		// keeping or moving the head's own mark.
		f.marked = j
		f.bump()
	}
	if j < 0 {
		return
	}
	e := &f.ftq[0]
	cur := e.addr + uint64(e.consumed)
	line := cur & f.lineMask
	b := &f.bufs[j]
	b.lastUse = now
	b.inUse = true
	lineEnd := line + uint64(f.cfg.LineBytes)
	blockEnd := e.addr + uint64(e.length)
	avail := lineEnd
	if blockEnd < lineEnd {
		avail = blockEnd
	}
	instrAvail := int(avail-cur) / 4
	n := be.Push(min(instrAvail, be.Free()))
	e.consumed += uint32(n * 4)
	f.stats.InstrDelivered += uint64(n)
	if e.consumed >= e.length {
		// Pop by copying down instead of reslicing forward: the slice
		// keeps its backing array, so a long run never reallocates the
		// FTQ past its configured depth.
		copy(f.ftq, f.ftq[1:])
		f.ftq = f.ftq[:len(f.ftq)-1]
		f.gen++
		// Only a blocked entry that is now the head gains a way to
		// allocate (the last resort); the old head's line leaves the
		// live set, but its buffer stays marked until a mark change
		// bumps wake.
		if f.blockedAt <= 1 {
			f.wake++
		}
		f.blockedAt--
	} else if (e.addr+uint64(e.consumed))&f.lineMask != line {
		// The head moved on to its next line. The old line may leave
		// the live set, but its buffer stays marked until the next
		// deliver moves the mark, which bumps wake.
		f.gen++
	}
}

// never marks a horizon that no front-end-internal clock will reach:
// the state can only change through an external event (a bus grant, a
// push, a runtime release) that forces a real tick anyway.
const never = ^uint64(0)

// BlockReason classifies what the front-end is blocked on at cycle now,
// for CPI-stack attribution when the back-end queue runs dry.
func (f *FrontEnd) BlockReason(now uint64) backend.StallKind {
	k, _ := f.StallWindow(now)
	return k
}

// StallWindow is the bulk-accounting form of BlockReason: it returns
// the stall classification at cycle now plus the first later cycle at
// which that classification can change on its own clock (never when
// only an external event — a grant, a fill latch, a runtime release —
// can change it; those all force a real tick). Stream books a waiting
// window as piecewise-constant stall sub-windows, so the CPI stack
// comes out identical to per-cycle attribution.
// BlockReason delegates here, which keeps the two from drifting.
func (f *FrontEnd) StallWindow(now uint64) (backend.StallKind, uint64) {
	if now < f.stallUntil {
		return backend.StallBranch, f.stallUntil
	}
	if len(f.ftq) == 0 {
		return backend.StallDrain, never
	}
	if j := f.headBuffer(); j >= 0 {
		b := &f.bufs[j]
		if b.valid {
			// Data present; the stall is elsewhere (delivery this
			// cycle will drain it).
			return backend.StallDrain, never
		}
		return b.pending.StallWindow(now)
	}
	// Request not yet issued (buffer shortage): the front-end cannot
	// even ask — classify as congestion, since more buffers or more
	// bandwidth would relieve it.
	return backend.StallBusQueue, never
}

// AcceptFrom returns the first cycle at which CanAccept can hold with
// no further Tick: the end of the redirect bubble while the FTQ has
// room, never while it is full (only a Tick that pops the head makes
// room).
func (f *FrontEnd) AcceptFrom() uint64 {
	if len(f.ftq) < f.cfg.FTQDepth {
		return f.stallUntil
	}
	return never
}

// Empty reports whether the FTQ holds no block.
func (f *FrontEnd) Empty() bool { return len(f.ftq) == 0 }

// Stream plays out, after a real Tick at cycle now, the quiet cycles
// that follow it: cycles in which a Tick would change nothing but the
// back-end's queue and commit credits, the head block's delivery
// progress and the marked buffer's LRU stamp. It books them on be
// exactly as per-cycle Tick plus be.Tick(BlockReason) would, and
// returns next, the first cycle that must be ticked for real, with the
// instructions committed over [now+1, next). next is now+1 when no
// cycle is quiet, and never exceeds bound unless bound <= now+1.
//
// A cycle is quiet when issue would do nothing (it is blocked, or no
// FTQ entry has unissued bytes), no head rewind is due, no fill
// latches, and the front-end is in one of two states:
//
//   - streaming: the head line is valid in the buffer deliver last
//     marked, and this cycle's delivery does not finish that line;
//   - waiting: nothing is deliverable and no mark is held. The queue
//     drains first (busy cycles); once it is empty, the cycles are
//     booked as the piecewise-constant StallWindow sub-windows, which
//     needs the head request resolved: an unresolved one changes its
//     stall kind at a grant Stream cannot see.
//
// Nothing outside the front-end can change that state except a grant
// resolving one of its requests, which is why Stream stops before the
// earliest resolved fill's ReadyAt and, while any request is
// unresolved, before now+1+grantLat: a grant comes at cycle now+1 at the
// earliest, and grantLat bounds how much later its data can be ready.
// Pushing a block is the caller's business; it passes the cycle the
// next push can happen in as bound.
func (f *FrontEnd) Stream(now, bound, grantLat uint64, be *backend.Backend) (next, committed uint64) {
	next = now + 1
	limit := bound
	for i := range f.bufs {
		if r := f.bufs[i].pending; r != nil {
			if !r.Resolved {
				limit = min(limit, now+1+grantLat)
			} else {
				limit = min(limit, r.ReadyAt)
			}
		}
	}
	if limit <= next || !f.issueIdle() {
		return next, 0
	}
	head := -1
	if len(f.ftq) > 0 {
		e := &f.ftq[0]
		if head = f.headBuffer(); head < 0 && e.needIssued > e.consumed {
			return next, 0 // head rewind due
		}
	}
	if f.marked >= 0 {
		if head != f.marked || !f.bufs[head].valid {
			return next, 0 // deliver would move or drop the mark
		}
		return f.stream(next, limit, be)
	}
	if head >= 0 && f.bufs[head].valid {
		return next, 0 // deliver would act
	}
	// Waiting: drain the queue, then book idle sub-windows.
	for next < limit && be.QueueLen() > 0 {
		committed += uint64(be.Tick(backend.StallNone))
		next++
	}
	if next == limit || head >= 0 && !f.bufs[head].pending.Resolved {
		return next, committed
	}
	for next < limit {
		kind, until := f.StallWindow(next)
		if until <= next {
			panic("frontend: stall window does not advance")
		}
		end := min(limit, until)
		be.SkipIdle(kind, end-next)
		next = end
	}
	return next, committed
}

// issueIdle reports whether issue does nothing beyond re-marking the
// head's buffer: it is blocked, or no FTQ entry has unissued bytes.
func (f *FrontEnd) issueIdle() bool {
	if f.blocked() {
		return true
	}
	for i := range f.ftq {
		if f.ftq[i].needIssued < f.ftq[i].length {
			return false
		}
	}
	return true
}

// stream is Stream's streaming state: delivery from the marked head
// line, one back-end cycle at a time from cycle next, stopping before
// the cycle whose delivery would finish the line. The queue is never
// empty at commit, so every cycle is busy and the stall cause unused.
func (f *FrontEnd) stream(next, limit uint64, be *backend.Backend) (uint64, uint64) {
	e := &f.ftq[0]
	cur := e.addr + uint64(e.consumed)
	avail := min(cur&f.lineMask+uint64(f.cfg.LineBytes), e.addr+uint64(e.length))
	left := int(avail-cur) / 4
	start, committed := next, uint64(0)
	for next < limit {
		n := min(left, be.Free())
		if n == left {
			break
		}
		be.Push(n)
		left -= n
		e.consumed += uint32(n * 4)
		f.stats.InstrDelivered += uint64(n)
		committed += uint64(be.Tick(backend.StallNone))
		next++
	}
	if next > start {
		// The next real deliver re-stamps this buffer before anything
		// reads it; stamping here keeps the state per-cycle ticking
		// leaves.
		f.bufs[f.marked].lastUse = next - 1
	}
	return next, committed
}

// Drained reports whether the FTQ is empty and no fills are pending,
// i.e. the front-end holds no in-flight work.
func (f *FrontEnd) Drained() bool {
	if len(f.ftq) > 0 {
		return false
	}
	for i := range f.bufs {
		if f.bufs[i].pending != nil {
			return false
		}
	}
	return true
}

// Stats returns a copy of the accumulated statistics.
func (f *FrontEnd) Stats() Stats { return f.stats }
