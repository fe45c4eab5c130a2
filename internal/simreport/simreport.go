// Package simreport is the third observability surface: per-point
// microarchitectural telemetry. Where metrics answer "is the service
// healthy" and tracing answers "where did wall-time go", a simulation
// report answers "what did the simulated hardware do, and what did it
// cost us to simulate it": the full per-core CPI stall stack of the
// paper's Fig 8, the serial/parallel cycle split, per-level I-cache
// traffic and MPKI, I-bus occupancy and contention, DRAM row behaviour
// and runtime synchronisation counts — plus the host-side cost of
// producing them (wall time, from which Summary derives simulated
// cycles per second). The report is the only record of that host cost.
//
// Reports are captured by the experiments Runner around each executed
// simulation (see Runner.SetReporter). A warm-store hit rebuilds its
// report from the stored result — the microarchitectural half is a pure
// function of it — marked Replayed, with no host cost. In a distributed
// campaign workers ship no reports: the coordinator builds each point's
// report from the entry the worker's PUT stores, with the wall time
// that PUT carries. Collector.Summary aggregates reports campaign-wide —
// served at the coordinator's GET /v1/simstatsz and written by the
// drivers' -report flag. Like tracing, the whole layer is off by default and nil-safe:
// an unattached collector costs a nil check per point.
package simreport

import (
	"fmt"

	"sharedicache/internal/backend"
	"sharedicache/internal/core"
	"sharedicache/internal/memsys"
	"sharedicache/internal/omprt"
)

// CoreReport is one core's share of the report: instruction and cycle
// accounting by section, and the CPI stall stack. For the detailed
// backend the stack satisfies cycle conservation: Stack.Total() ==
// SerialCycles + ParallelCycles (every simulated cycle books exactly
// one stack category and one section).
type CoreReport struct {
	Core                 int
	Instructions         uint64
	SerialInstructions   uint64
	ParallelInstructions uint64
	SerialCycles         uint64
	ParallelCycles       uint64
	Stack                backend.CPIStack
}

// CacheReport is one I-cache level's traffic. Level is
// "icache.master" or "icache.worker" (the aggregate over the caches
// serving worker fetches — private per-core in the baseline, the
// shared caches otherwise).
type CacheReport struct {
	Level     string
	Accesses  uint64
	Misses    uint64
	MissRatio float64
	MPKI      float64
}

// BusReport is the shared I-bus fabric's occupancy and contention
// (zero in the private baseline).
type BusReport struct {
	Submitted   uint64
	Granted     uint64
	WaitCycles  uint64
	BusyCycles  uint64
	Utilization float64
	MeanWait    float64
	MergedFills uint64
}

// HostCost is what producing the report cost the simulating host.
type HostCost struct {
	// WallSeconds is the backend execution wall time. Summary derives
	// the simulation rate (Cycles / WallSeconds) from it.
	WallSeconds float64
	// Replayed marks a report rebuilt from a stored result rather than
	// captured around a live execution: the microarchitectural half is
	// exact, the host cost unknown (zeroed).
	Replayed bool
}

// Report is one design point's telemetry.
type Report struct {
	// Key is the point's persistent-store content address (hex); the
	// collector deduplicates by it.
	Key     string
	Bench   string
	Backend string
	Org     string
	CPC     int
	Prewarm bool

	// Cycles is total execution time; Instructions sums committed
	// instructions over all cores. SerialCycles/ParallelCycles sum the
	// per-core section accounting.
	Cycles         uint64
	Instructions   uint64
	SerialCycles   uint64
	ParallelCycles uint64

	Cores   []CoreReport
	Caches  []CacheReport
	Bus     BusReport
	DRAM    memsys.DRAMStats
	Runtime omprt.Stats

	Host HostCost
}

// FromResult derives the microarchitectural half of a report from a
// simulation result. The caller fills Host (or marks it Replayed).
func FromResult(keyHex, bench, backendName string, prewarm bool, res *core.Result) Report {
	r := Report{
		Key:     keyHex,
		Bench:   bench,
		Backend: backendName,
		Org:     fmt.Sprint(res.Config.Organization),
		CPC:     res.Config.CPC,
		Prewarm: prewarm,
		Cycles:  res.Cycles,
	}
	for i, c := range res.Cores {
		r.Instructions += c.Instructions
		r.SerialCycles += c.SerialCycles
		r.ParallelCycles += c.ParallelCycles
		r.Cores = append(r.Cores, CoreReport{
			Core:                 i,
			Instructions:         c.Instructions,
			SerialInstructions:   c.SerialInstructions,
			ParallelInstructions: c.ParallelInstructions,
			SerialCycles:         c.SerialCycles,
			ParallelCycles:       c.ParallelCycles,
			Stack:                c.Stack,
		})
	}
	masterInstr := uint64(0)
	if len(res.Cores) > 0 {
		masterInstr = res.Cores[0].Instructions
	}
	r.Caches = []CacheReport{
		{
			Level:     "icache.master",
			Accesses:  res.MasterICache.Accesses,
			Misses:    res.MasterICache.Misses,
			MissRatio: res.MasterICache.MissRatio(),
			MPKI:      res.MasterICache.MPKI(masterInstr),
		},
		{
			Level:     "icache.worker",
			Accesses:  res.WorkerICache.Accesses,
			Misses:    res.WorkerICache.Misses,
			MissRatio: res.WorkerICache.MissRatio(),
			MPKI:      res.WorkerICache.MPKI(res.WorkerInstructions()),
		},
	}
	r.Bus = BusReport{
		Submitted:   res.Bus.Submitted,
		Granted:     res.Bus.Granted,
		WaitCycles:  res.Bus.WaitCycles,
		BusyCycles:  res.Bus.BusyCycles,
		Utilization: res.Bus.Utilization(res.Cycles),
		MeanWait:    res.Bus.AvgWait(),
		MergedFills: res.MergedFills,
	}
	r.DRAM = res.DRAM
	r.Runtime = res.Runtime
	return r
}

// StackTotal sums the CPI-stack cycles over all cores.
func (r *Report) StackTotal() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Stack.Total()
	}
	return n
}

// CoreCycles sums the section-accounted cycles over all cores; for the
// detailed backend it equals StackTotal (cycle conservation).
func (r *Report) CoreCycles() uint64 { return r.SerialCycles + r.ParallelCycles }

// Stack sums the per-core CPI stacks.
func (r *Report) Stack() backend.CPIStack {
	var st backend.CPIStack
	for _, c := range r.Cores {
		st.Add(c.Stack)
	}
	return st
}
