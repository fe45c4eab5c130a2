package core

import (
	"sharedicache/internal/cachesim"
	"sharedicache/internal/frontend"
	"sharedicache/internal/interconnect"
	"sharedicache/internal/memsys"
)

// reqArena hands out LineRequests from chunked slabs, replacing the
// one-heap-object-per-fetch pattern on the hot path. A Simulator is
// single-use and single-goroutine, so one arena per Simulator with no
// synchronisation and no recycling is enough: slabs are garbage once
// the last request handed out of them is dropped. Entries come out of
// a fresh slab zeroed, exactly like &frontend.LineRequest{}.
type reqArena struct {
	chunk []frontend.LineRequest
}

const reqArenaChunk = 256

func (a *reqArena) get() *frontend.LineRequest {
	if len(a.chunk) == 0 {
		a.chunk = make([]frontend.LineRequest, reqArenaChunk)
	}
	r := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return r
}

// privatePort is the Fig 5a fetch path: a per-core I-cache answered in
// ICacheLatency cycles, with misses filled through the core's L2.
// Requests resolve synchronously because there is no arbitration.
type privatePort struct {
	cache    *cachesim.Cache
	mem      *memsys.System
	core     int
	cacheLat int
	arena    *reqArena
}

func (p *privatePort) Request(now uint64, lineAddr uint64) *frontend.LineRequest {
	req := p.arena.get()
	*req = frontend.LineRequest{
		LineAddr: lineAddr, Core: p.core,
		SubmitAt: now, Granted: true, GrantAt: now,
		Resolved: true, CacheLatency: p.cacheLat,
	}
	if p.cache.Access(lineAddr).Hit {
		req.Hit = true
		req.ReadyAt = now + uint64(p.cacheLat)
		return req
	}
	fill := p.mem.FetchLine(now+uint64(p.cacheLat), p.core, lineAddr)
	req.ReadyAt = fill.Done
	return req
}

// sharedICache is the Fig 5b structure: one multi-banked I-cache behind
// one or two round-robin buses, shared by a group of cores. Line fills
// from L2 are tracked in an MSHR so that near-simultaneous requests for
// the same line — the common case when SPMD threads run in loose
// lockstep — merge instead of multiplying misses. That merge is the
// "mutual prefetching" mechanism of §VI-C.
type sharedICache struct {
	cache    *cachesim.Cache
	fabric   *interconnect.Fabric
	mem      *memsys.System
	cacheLat int
	// groupCores maps fabric requester index -> global core id (the
	// L2 used for fills is the requesting core's own).
	groupCores []int

	// slots holds each queued request at the index its bus token
	// names; free lists the empty slots. A grant empties its slot, so
	// the table stays as large as the most requests ever queued at
	// once, orphans of a flush included (they are granted like any
	// other).
	slots []*frontend.LineRequest
	free  []uint64
	mshr  map[uint64]uint64 // line -> cycle its L2/DRAM fill completes
	arena *reqArena

	merged uint64 // requests satisfied by an in-flight fill
}

func newSharedICache(cfg Config, groupCores []int, mem *memsys.System, arena *reqArena) *sharedICache {
	cacheCfg := cfg.ICache
	cacheCfg.Banks = cfg.Buses
	fabric := interconnect.NewFabric(cfg.Buses, len(groupCores),
		cfg.BusLatency, cfg.busOccupancy(), cfg.ICache.LineBytes)
	fabric.SetPolicy(cfg.Arbitration)
	return &sharedICache{
		cache:      cachesim.New(cacheCfg),
		fabric:     fabric,
		mem:        mem,
		cacheLat:   cfg.ICacheLatency,
		groupCores: groupCores,
		mshr:       map[uint64]uint64{},
		arena:      arena,
	}
}

// port returns the fetch port for the group-local requester index.
func (s *sharedICache) port(local int) frontend.ICachePort {
	return &sharedPort{s: s, local: local}
}

type sharedPort struct {
	s     *sharedICache
	local int
}

func (p *sharedPort) Request(now uint64, lineAddr uint64) *frontend.LineRequest {
	s := p.s
	req := s.arena.get()
	*req = frontend.LineRequest{
		LineAddr: lineAddr, Core: s.groupCores[p.local],
		SubmitAt: now, Shared: true,
		BusLatency: s.fabric.Latency(), CacheLatency: s.cacheLat,
	}
	var tok uint64
	if n := len(s.free); n > 0 {
		tok = s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[tok] = req
	} else {
		tok = uint64(len(s.slots))
		s.slots = append(s.slots, req)
	}
	s.fabric.Submit(now, interconnect.Request{
		Requester: p.local, Addr: lineAddr, Token: tok,
	})
	return req
}

// Tick arbitrates the buses for cycle now and resolves granted
// requests: bus traversal + SRAM access on a hit; an L2/DRAM fill
// (recorded in the MSHR) on a miss; an MSHR merge for lines already in
// flight.
func (s *sharedICache) Tick(now uint64) {
	for _, g := range s.fabric.Tick(now) {
		req := s.slots[g.Token]
		s.slots[g.Token] = nil
		s.free = append(s.free, g.Token)
		req.Granted = true
		req.GrantAt = g.GrantCycle
		base := g.GrantCycle + uint64(s.fabric.Latency()+s.cacheLat)
		if fill, ok := s.mshr[g.Addr]; ok && fill > now {
			// Hit under fill: ride the in-flight line.
			s.merged++
			req.Hit = true
			req.Resolved = true
			req.ReadyAt = fill + uint64(s.fabric.Latency())
			if base > req.ReadyAt {
				req.ReadyAt = base
			}
			continue
		}
		res := s.cache.Access(g.Addr)
		req.Resolved = true
		if res.Hit {
			req.Hit = true
			req.ReadyAt = base
			continue
		}
		fill := s.mem.FetchLine(base, req.Core, g.Addr)
		req.ReadyAt = fill.Done + uint64(s.fabric.Latency())
		s.mshr[g.Addr] = fill.Done
	}
	// Lazily trim completed fills so the MSHR map stays small.
	if len(s.mshr) > 64 {
		for line, done := range s.mshr {
			if done <= now {
				delete(s.mshr, line)
			}
		}
	}
}

// nextEvent returns the earliest cycle ≥ now at which Tick can make
// progress: the fabric's next possible grant. A Tick that grants
// nothing mutates nothing (stale MSHR entries are already semantically
// absent — lookups check fill > now — so deferring the lazy trim
// changes no behaviour), which lets Run tick a fabric only when it can
// grant.
func (s *sharedICache) nextEvent(now uint64) uint64 {
	return s.fabric.NextEvent(now)
}

// Stats of the underlying cache.
func (s *sharedICache) CacheStats() cachesim.Stats { return s.cache.Stats() }

// BusStats aggregates the fabric's buses.
func (s *sharedICache) BusStats() interconnect.Stats { return s.fabric.Stats() }
