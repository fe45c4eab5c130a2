// Package core assembles the full ACMP simulator of the paper: one
// heavyweight master core plus a set of lean worker cores, each with
// the decoupled front-end of §IV, connected to private or shared
// I-caches, private L2s and DDR3 DRAM. It is the paper's primary
// contribution: the shared-I-cache organisation (Fig 5b) against the
// private baseline (Fig 5a), including the all-shared variant of §VI-E.
package core

import (
	"fmt"

	"sharedicache/internal/cachesim"
	"sharedicache/internal/interconnect"
	"sharedicache/internal/memsys"
)

// Organization selects the I-cache arrangement.
type Organization int

const (
	// OrgPrivate is the Fig 5a baseline: every core has a private
	// I-cache (cpc = 1).
	OrgPrivate Organization = iota
	// OrgWorkerShared shares I-caches among groups of CPC worker
	// cores (Fig 5b); the master keeps its private I-cache.
	OrgWorkerShared
	// OrgAllShared attaches the master to the workers' shared I-cache
	// as well (§VI-E); CPC is ignored and a single cache serves all
	// cores.
	OrgAllShared
)

// String returns the organisation mnemonic.
func (o Organization) String() string {
	switch o {
	case OrgPrivate:
		return "private"
	case OrgWorkerShared:
		return "worker-shared"
	case OrgAllShared:
		return "all-shared"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// Config is the simulated ACMP configuration (Table I).
type Config struct {
	// Workers is the number of lean cores (Table I: 8).
	Workers int
	// Organization selects private/worker-shared/all-shared I-caches.
	Organization Organization
	// CPC is cores-per-cache for OrgWorkerShared (Table I: 1,2,4,8).
	CPC int

	// ICache is the geometry of each I-cache (Table I: 32 KB, 8-way,
	// 64 B lines; the shared design also evaluates 16 KB).
	ICache cachesim.Config
	// ICacheLatency is the SRAM access latency (Table I: 1 cycle).
	ICacheLatency int

	// LineBuffers per core (Table I: 2, 4, 8).
	LineBuffers int
	// FTQDepth is the fetch target queue depth in blocks.
	FTQDepth int
	// Buses per shared I-cache: 1 (single) or 2 (double); each bus is
	// 32 B wide, 2-cycle latency plus contention, round-robin.
	Buses int
	// BusLatency is the base I-interconnect traversal (Table I: 2).
	BusLatency int
	// BusWidthBytes is the interconnect width (Table I: 32).
	BusWidthBytes int
	// Arbitration selects the I-bus arbitration policy (Table I:
	// round-robin; the alternatives support the §VII fetch-policy
	// ablation).
	Arbitration interconnect.Policy

	// MispredictPenaltyMaster/Worker are redirect bubbles in cycles
	// (deep OoO pipeline vs short lean pipeline).
	MispredictPenaltyMaster int
	MispredictPenaltyWorker int

	// InstrQueueCap is the per-core instruction queue feeding the
	// commit-rate back-end.
	InstrQueueCap int

	// SharedWorkerPredictor gives all worker cores one fetch predictor
	// instance instead of private ones — the §VII future-work item:
	// SPMD threads train each other's branches (constructive aliasing).
	SharedWorkerPredictor bool

	// Mem configures L2s, the L2-DRAM bus and DRAM. Mem.Cores is
	// overridden to Workers+1.
	Mem memsys.Config

	// MaxCycles aborts runaway simulations (0 = default bound).
	MaxCycles uint64
}

// DefaultConfig returns the Table I baseline: private 32 KB I-caches,
// 4 line buffers, single-bus interconnect parameters, 1 master + 8
// workers.
func DefaultConfig() Config {
	return Config{
		Workers:       8,
		Organization:  OrgPrivate,
		CPC:           1,
		ICache:        cachesim.Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8},
		ICacheLatency: 1,
		LineBuffers:   4,
		FTQDepth:      8,
		Buses:         1,
		BusLatency:    2,
		BusWidthBytes: 32,

		MispredictPenaltyMaster: 14,
		MispredictPenaltyWorker: 8,
		InstrQueueCap:           24,

		Mem: memsys.DefaultConfig(9),
	}
}

// SharedConfig returns the paper's preferred design point: a 16 KB
// I-cache shared by all 8 workers (cpc=8) behind a double bus with 4
// line buffers per core.
func SharedConfig() Config { return WorkerSharedConfig(8, 8, 16, 4, 2) }

// PrivateConfig returns the Fig 5a baseline with the given worker
// count. It, WorkerSharedConfig and AllSharedConfig are the one
// mapping from the design axes to a Config, one per organisation; all
// other fields keep their Table I defaults.
func PrivateConfig(workers int) Config {
	c := DefaultConfig()
	c.Workers = workers
	return c
}

// WorkerSharedConfig returns the Fig 5b organisation: workers lean
// cores, cpc of them per sizeKB I-cache, each core with lineBuffers
// line buffers, buses buses per cache.
func WorkerSharedConfig(workers, cpc, sizeKB, lineBuffers, buses int) Config {
	c := AllSharedConfig(workers, sizeKB, lineBuffers, buses)
	c.Organization = OrgWorkerShared
	c.CPC = cpc
	return c
}

// AllSharedConfig returns the §VI-E organisation: one sizeKB I-cache
// for all cores, the master included.
func AllSharedConfig(workers, sizeKB, lineBuffers, buses int) Config {
	c := PrivateConfig(workers)
	c.Organization = OrgAllShared
	c.ICache.SizeBytes = sizeKB << 10
	c.LineBuffers = lineBuffers
	c.Buses = buses
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("core: Workers = %d, need >= 1", c.Workers)
	}
	switch c.Organization {
	case OrgPrivate:
	case OrgWorkerShared:
		if c.CPC < 2 || c.Workers%c.CPC != 0 {
			return fmt.Errorf("core: CPC = %d must divide Workers = %d and be >= 2", c.CPC, c.Workers)
		}
	case OrgAllShared:
	default:
		return fmt.Errorf("core: unknown organization %d", c.Organization)
	}
	if err := c.ICache.Validate(); err != nil {
		return fmt.Errorf("core: I-cache: %w", err)
	}
	if c.ICacheLatency < 1 {
		return fmt.Errorf("core: I-cache latency %d must be >= 1", c.ICacheLatency)
	}
	if c.LineBuffers < 1 || c.FTQDepth < 1 {
		return fmt.Errorf("core: LineBuffers/FTQDepth must be positive")
	}
	if c.Buses < 1 || c.Buses > 8 {
		return fmt.Errorf("core: Buses = %d out of range [1,8]", c.Buses)
	}
	if c.BusLatency < 0 || c.BusWidthBytes < 1 {
		return fmt.Errorf("core: bad bus parameters")
	}
	if !c.Arbitration.Valid() {
		return fmt.Errorf("core: unknown arbitration policy %d", int(c.Arbitration))
	}
	if c.InstrQueueCap < 1 {
		return fmt.Errorf("core: InstrQueueCap must be positive")
	}
	return nil
}

// Cores returns the total core count (master + workers).
func (c Config) Cores() int { return c.Workers + 1 }

// busOccupancy is the cycles one line transfer holds a bus.
func (c Config) busOccupancy() int {
	occ := (c.ICache.LineBytes + c.BusWidthBytes - 1) / c.BusWidthBytes
	if occ < 1 {
		occ = 1
	}
	return occ
}

// workerCaches returns how many shared worker I-caches the
// configuration implies.
func (c Config) workerCaches() int {
	switch c.Organization {
	case OrgWorkerShared:
		return c.Workers / c.CPC
	case OrgAllShared:
		return 1
	default:
		return c.Workers
	}
}
