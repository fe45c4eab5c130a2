// Package backend models the core back-end the way the paper does
// (§V-A): each cycle it attempts to commit up to a configured rate of
// instructions (per-section IPC measured on real hardware) from the
// instruction queue the front-end fills. Whether the back-end can keep
// that rate depends entirely on front-end performance, which is the
// quantity under study.
//
// The backend also owns the CPI-stack accounting of Fig 8: every cycle
// with no commit is attributed to the front-end condition that blocked
// it (branch misprediction bubble, bus queueing, bus latency, cache
// miss, synchronisation, ...).
package backend

import "fmt"

// StallKind classifies why the back-end could not commit in a cycle.
type StallKind int

// Stall categories, matching the paper's Fig 8 CPI stack.
const (
	// StallNone means the cycle made progress (or was base-rate pacing).
	StallNone StallKind = iota
	// StallBranch is a branch misprediction redirect bubble.
	StallBranch
	// StallBusQueue is time waiting for the shared I-bus ("I-bus
	// congestion" in Fig 8).
	StallBusQueue
	// StallBusLatency is the base traversal latency of the shared
	// I-interconnect ("I-bus latency").
	StallBusLatency
	// StallCacheHit is the I-cache access latency itself (1 cycle in
	// Table I; visible only when the front-end has run dry).
	StallCacheHit
	// StallCacheMiss is time waiting on an I-cache miss being filled
	// from L2/DRAM ("I-cache latency").
	StallCacheMiss
	// StallSync is time blocked in the runtime: waiting for a parallel
	// region, at a barrier, or on a critical section.
	StallSync
	// StallDrain is time with an empty pipeline for any other reason
	// (e.g. trace exhausted, waiting on a section boundary drain).
	StallDrain
)

// String returns the stall mnemonic.
func (k StallKind) String() string {
	switch k {
	case StallNone:
		return "none"
	case StallBranch:
		return "branch"
	case StallBusQueue:
		return "bus-queue"
	case StallBusLatency:
		return "bus-latency"
	case StallCacheHit:
		return "cache-hit"
	case StallCacheMiss:
		return "cache-miss"
	case StallSync:
		return "sync"
	case StallDrain:
		return "drain"
	default:
		return fmt.Sprintf("StallKind(%d)", int(k))
	}
}

// CPIStack is cycle counts by category. Busy covers every cycle in
// which at least one instruction committed or the back-end was pacing
// at its configured rate with work available.
type CPIStack struct {
	Busy       uint64
	Branch     uint64
	BusQueue   uint64
	BusLatency uint64
	CacheHit   uint64
	CacheMiss  uint64
	Sync       uint64
	Drain      uint64
}

// Total returns the summed cycles of all categories.
func (s CPIStack) Total() uint64 {
	return s.Busy + s.Branch + s.BusQueue + s.BusLatency +
		s.CacheHit + s.CacheMiss + s.Sync + s.Drain
}

// Add accumulates o into s.
func (s *CPIStack) Add(o CPIStack) {
	s.Busy += o.Busy
	s.Branch += o.Branch
	s.BusQueue += o.BusQueue
	s.BusLatency += o.BusLatency
	s.CacheHit += o.CacheHit
	s.CacheMiss += o.CacheMiss
	s.Sync += o.Sync
	s.Drain += o.Drain
}

// record attributes one stalled cycle.
func (s *CPIStack) record(k StallKind) { s.skip(k, 1) }

// skip attributes n stalled cycles at once (the bulk form record
// delegates to, used when the simulator folds idle cycles).
func (s *CPIStack) skip(k StallKind, n uint64) {
	switch k {
	case StallBranch:
		s.Branch += n
	case StallBusQueue:
		s.BusQueue += n
	case StallBusLatency:
		s.BusLatency += n
	case StallCacheHit:
		s.CacheHit += n
	case StallCacheMiss:
		s.CacheMiss += n
	case StallSync:
		s.Sync += n
	default:
		s.Drain += n
	}
}

// Backend is the commit-rate back-end for one core. The zero value is
// unusable; use New.
type Backend struct {
	ipcMilli  uint32
	credits   uint32
	queue     int
	queueCap  int
	committed uint64
	stack     CPIStack
}

// creditCap bounds accumulated commit credit so an idle stretch cannot
// bank an unrealistic burst.
const creditCap = 8000

// New builds a back-end with the given instruction-queue capacity and
// an initial rate of ipcMilli thousandths of an instruction per cycle.
func New(queueCap int, ipcMilli uint32) *Backend {
	if queueCap < 1 {
		panic(fmt.Sprintf("backend: queue capacity %d must be positive", queueCap))
	}
	if ipcMilli == 0 {
		ipcMilli = 1000
	}
	return &Backend{queueCap: queueCap, ipcMilli: ipcMilli}
}

// SetIPC changes the commit rate (trace IPCSet events).
func (b *Backend) SetIPC(milli uint32) {
	if milli == 0 {
		milli = 1
	}
	b.ipcMilli = milli
}

// IPCMilli returns the current commit rate.
func (b *Backend) IPCMilli() uint32 { return b.ipcMilli }

// Free returns how many instructions the queue can still accept.
func (b *Backend) Free() int { return b.queueCap - b.queue }

// QueueLen returns the number of queued instructions.
func (b *Backend) QueueLen() int { return b.queue }

// Push inserts up to n instructions, returning how many were accepted.
func (b *Backend) Push(n int) int {
	if n < 0 {
		panic("backend: negative push")
	}
	if free := b.Free(); n > free {
		n = free
	}
	b.queue += n
	return n
}

// Tick advances one cycle. If nothing commits and the queue is empty,
// the cycle is attributed to cause. It returns the instructions
// committed this cycle.
func (b *Backend) Tick(cause StallKind) int {
	b.credits += b.ipcMilli
	if b.credits > creditCap {
		b.credits = creditCap
	}
	n := int(b.credits / 1000)
	if n > b.queue {
		n = b.queue
	}
	if n > 0 {
		b.credits -= uint32(n) * 1000
		b.queue -= n
		b.committed += uint64(n)
		b.stack.Busy++
		return n
	}
	if b.queue > 0 {
		// Work available, pacing at configured rate: base CPI.
		b.stack.Busy++
		return 0
	}
	b.stack.record(cause)
	return 0
}

// SkipIdle books n consecutive idle cycles at once, each attributed to
// cause, exactly as n calls of Tick(cause) with an empty queue would:
// credits accumulate at the commit rate and saturate at the same cap
// (min is monotone, so one clamped addition equals n per-cycle clamped
// additions), nothing commits, and the CPI stack gains n cycles in
// cause's bucket. The simulator's fast path uses it for folded idle
// cycles and parked sync stalls. It panics if instructions are queued —
// a non-empty queue commits or paces every cycle and must be ticked.
func (b *Backend) SkipIdle(cause StallKind, n uint64) {
	if n == 0 {
		return
	}
	if b.queue != 0 {
		panic("backend: SkipIdle with queued instructions")
	}
	c := uint64(b.credits) + n*uint64(b.ipcMilli)
	if c > creditCap {
		c = creditCap
	}
	b.credits = uint32(c)
	b.stack.skip(cause, n)
}

// Committed returns total committed instructions.
func (b *Backend) Committed() uint64 { return b.committed }

// Stack returns a copy of the CPI stack.
func (b *Backend) Stack() CPIStack { return b.stack }

// Drained reports whether the instruction queue is empty.
func (b *Backend) Drained() bool { return b.queue == 0 }
