// Package interconnect models the paper's I-interconnect between lean
// cores and the shared I-cache: single or double bus, round-robin
// arbitration, 32 B width, 2-cycle base latency plus contention. The
// L2–DRAM bus is not modelled here; it is memsys.Timeline, held by
// memsys.System as its bus.
//
// A Bus is a cycle-driven arbitrated resource: requesters Submit
// requests into per-requester FIFOs; each cycle the owner calls Tick,
// which grants at most one request (round-robin across requesters) and
// holds the bus busy for the transfer occupancy. Contention — the
// cycles a request waits on a busy bus, the quantity the paper's Fig 8
// charges to "I-bus congestion" — is reported per grant.
package interconnect

import "fmt"

// Request is one bus transaction.
type Request struct {
	// Requester is the index of the submitting agent (core).
	Requester int
	// Addr is the line address being fetched, used by multi-bus
	// routing and by the served cache.
	Addr uint64
	// Token is an opaque caller tag (e.g. line-buffer slot) carried
	// through to the grant.
	Token uint64
	// SubmitCycle is stamped by Submit.
	SubmitCycle uint64
}

// Grant is the arbitration outcome for one request.
type Grant struct {
	Request
	// GrantCycle is the cycle the bus accepted the request.
	GrantCycle uint64
	// WaitCycles is GrantCycle - SubmitCycle: the contention the
	// request experienced.
	WaitCycles uint64
}

// Stats aggregates bus behaviour over a run.
type Stats struct {
	Submitted  uint64
	Granted    uint64
	WaitCycles uint64 // total queueing delay (contention)
	BusyCycles uint64 // cycles the bus spent transferring
}

// AvgWait returns mean contention cycles per granted request.
func (s Stats) AvgWait() float64 {
	if s.Granted == 0 {
		return 0
	}
	return float64(s.WaitCycles) / float64(s.Granted)
}

// Utilization returns BusyCycles/elapsed.
func (s Stats) Utilization(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(elapsed)
}

// Bus is a single arbitrated bus. Create with NewBus.
type Bus struct {
	latency   int
	occupancy int
	policy    Policy
	queues    [][]Request
	pending   int // total queued requests, so NextEvent is O(1)
	rr        int
	busyUntil uint64
	stats     Stats
}

// NewBus builds a bus for n requesters. latency is the base traversal
// latency in cycles (Table I: 2 for the I-interconnect); occupancy is
// how many cycles each granted transfer holds the bus (line bytes /
// bus width; Table I: 64/32 = 2).
func NewBus(n, latency, occupancy int) *Bus {
	if n <= 0 {
		panic(fmt.Sprintf("interconnect: requester count %d must be positive", n))
	}
	if latency < 0 || occupancy < 1 {
		panic(fmt.Sprintf("interconnect: bad timing latency=%d occupancy=%d", latency, occupancy))
	}
	return &Bus{
		latency:   latency,
		occupancy: occupancy,
		policy:    RoundRobin,
		queues:    make([][]Request, n),
	}
}

// SetPolicy changes the arbitration discipline; it panics on an
// unknown policy. Call before simulation starts.
func (b *Bus) SetPolicy(p Policy) {
	if !p.Valid() {
		panic(fmt.Sprintf("interconnect: unknown policy %d", int(p)))
	}
	b.policy = p
}

// Policy returns the arbitration discipline in effect.
func (b *Bus) Policy() Policy { return b.policy }

// Latency returns the base traversal latency in cycles.
func (b *Bus) Latency() int { return b.latency }

// Submit enqueues a request at cycle now. Requests from one requester
// are served FIFO; across requesters, round-robin.
func (b *Bus) Submit(now uint64, req Request) {
	if req.Requester < 0 || req.Requester >= len(b.queues) {
		panic(fmt.Sprintf("interconnect: requester %d out of range [0,%d)", req.Requester, len(b.queues)))
	}
	req.SubmitCycle = now
	b.queues[req.Requester] = append(b.queues[req.Requester], req)
	b.pending++
	b.stats.Submitted++
}

// Pending returns the number of queued (not yet granted) requests.
func (b *Bus) Pending() int { return b.pending }

// Busy reports whether the bus is occupied at cycle now.
func (b *Bus) Busy(now uint64) bool { return b.busyUntil > now }

// NextEvent returns the earliest cycle ≥ now at which Tick can grant a
// request: now when a request is pending and the bus is free, the end
// of the current transfer when it is busy, and never (^uint64(0)) when
// nothing is queued. A Tick before that cycle changes no state, so the
// simulator ticks a fabric only when its NextEvent has come.
func (b *Bus) NextEvent(now uint64) uint64 {
	if b.pending == 0 {
		return ^uint64(0)
	}
	if b.busyUntil > now {
		return b.busyUntil
	}
	return now
}

// Tick performs one arbitration cycle at time now. If the bus is free
// and a request is pending, it grants exactly one request round-robin
// and returns it with ok=true.
func (b *Bus) Tick(now uint64) (Grant, bool) {
	if b.busyUntil > now {
		return Grant{}, false
	}
	idx := pick(b.queues, b.policy, b.rr)
	if idx < 0 {
		return Grant{}, false
	}
	q := b.queues[idx]
	req := q[0]
	copy(q, q[1:])
	b.queues[idx] = q[:len(q)-1]
	b.pending--
	b.rr = (idx + 1) % len(b.queues)
	b.busyUntil = now + uint64(b.occupancy)
	g := Grant{Request: req, GrantCycle: now, WaitCycles: now - req.SubmitCycle}
	b.stats.Granted++
	b.stats.WaitCycles += g.WaitCycles
	b.stats.BusyCycles += uint64(b.occupancy)
	return g, true
}

// Stats returns a copy of the accumulated statistics.
func (b *Bus) Stats() Stats { return b.stats }

// Fabric routes requests across one or more buses by line-address
// interleave, modelling the paper's single vs double I-bus design: with
// two buses, even cache lines use bus 0 and odd lines bus 1 (each bus
// is dedicated to one bank of the 2-banked shared I-cache).
type Fabric struct {
	buses     []*Bus
	lineShift uint
	grants    []Grant // Tick's reusable result buffer
}

// NewFabric builds nBuses buses for n requesters. lineBytes determines
// the interleave granularity.
func NewFabric(nBuses, n, latency, occupancy, lineBytes int) *Fabric {
	if nBuses < 1 {
		panic("interconnect: need at least one bus")
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("interconnect: lineBytes must be a positive power of two")
	}
	f := &Fabric{buses: make([]*Bus, nBuses)}
	for i := range f.buses {
		f.buses[i] = NewBus(n, latency, occupancy)
	}
	for s := lineBytes; s > 1; s >>= 1 {
		f.lineShift++
	}
	return f
}

// SetPolicy changes the arbitration discipline of every bus.
func (f *Fabric) SetPolicy(p Policy) {
	for _, b := range f.buses {
		b.SetPolicy(p)
	}
}

// Route returns the bus index serving addr.
func (f *Fabric) Route(addr uint64) int {
	if len(f.buses) == 1 {
		return 0
	}
	return int((addr >> f.lineShift) % uint64(len(f.buses)))
}

// Submit enqueues req on the bus serving its address.
func (f *Fabric) Submit(now uint64, req Request) {
	f.buses[f.Route(req.Addr)].Submit(now, req)
}

// Tick arbitrates every bus for cycle now, returning all grants (at
// most one per bus). The returned slice is reused by the next Tick;
// callers consume it before ticking again.
func (f *Fabric) Tick(now uint64) []Grant {
	f.grants = f.grants[:0]
	for _, b := range f.buses {
		if g, ok := b.Tick(now); ok {
			f.grants = append(f.grants, g)
		}
	}
	return f.grants
}

// NextEvent returns the earliest cycle ≥ now at which any bus of the
// fabric can grant a request (never when all queues are empty).
func (f *Fabric) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	for _, b := range f.buses {
		if e := b.NextEvent(now); e < next {
			next = e
		}
	}
	return next
}

// Buses returns the number of buses in the fabric.
func (f *Fabric) Buses() int { return len(f.buses) }

// Latency returns the base traversal latency of the fabric's buses.
func (f *Fabric) Latency() int { return f.buses[0].latency }

// Pending returns total queued requests across all buses.
func (f *Fabric) Pending() int {
	n := 0
	for _, b := range f.buses {
		n += b.Pending()
	}
	return n
}

// Stats returns the summed statistics of all buses.
func (f *Fabric) Stats() Stats {
	var s Stats
	for _, b := range f.buses {
		bs := b.Stats()
		s.Submitted += bs.Submitted
		s.Granted += bs.Granted
		s.WaitCycles += bs.WaitCycles
		s.BusyCycles += bs.BusyCycles
	}
	return s
}
