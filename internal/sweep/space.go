// Package sweep defines the design-space campaign shared by cmd/sweep
// and the distributed coordinator cmd/campaignd: the same Space
// expansion produces the same plan, and the same CSV emitter renders
// the same bytes, so a campaign merged from remote workers is
// byte-identical to a single-process sweep by construction rather than
// by convention.
//
// The package splits the campaign into three composable pieces:
//
//   - Space expands the swept axes into an ordered plan plus Row
//     metadata tying each CSV row to its plan indexes (Build);
//   - Evaluator derives each row's Metrics (normalised time, MPKI,
//     area/energy ratios) from raw simulation results;
//   - CSV renders rows — batch (Row/WriteRow) or streaming
//     (EmitStream) — in a Shape: optional backend and phase columns
//     and a metric-adjust hook the auto-refine pipeline
//     (internal/refine) uses to apply its calibration fit.
//
// Flags (RegisterFlags) keeps the two drivers' design-space flag sets
// identical, and Maint is their shared -storeop maintenance path.
// Outputs is the runtime every cmd/ driver shares (run store, metrics
// registry and listener, pprof, -trace, -report, -cpuprofile,
// -memprofile), and Main and ExitCode their process entry and
// exit-status mapping.
package sweep

import (
	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
)

// Space enumerates the swept design-space axes. The worker-core count
// and everything else that affects simulation results lives in the
// runner's campaign options, not here.
type Space struct {
	// Benches are the benchmark names, one CSV row group per name.
	Benches []string
	// CPCs, SizesKB, LineBuffers and Buses are the shared-I-cache axes;
	// their cross product (minus invalid combinations) is the swept set.
	CPCs, SizesKB, LineBuffers, Buses []int
	// Backend stamps every swept point (and its baseline) with a
	// simulation-backend override. Empty keeps the campaign default;
	// the points carry the name explicitly, so a distributed worker
	// executes the coordinator's choice rather than its own default.
	Backend string
}

// Row ties one CSV output row to its plan indexes: the shared design
// point it reports and the private baseline it is normalised against.
// Backend records which simulation backend produced the row, for the
// optional backend CSV column; Phase labels which campaign phase it
// belongs to ("triage", "refine") for the optional phase column of
// auto-refine output, and is empty for plain sweeps.
type Row struct {
	Bench             string
	CPC, KB, LB, Bus  int
	BaseIdx, PointIdx int
	Backend           string
	Phase             string
}

// Build declares the full campaign on r in CSV emission order — per
// benchmark one private baseline followed by every valid shared point
// — and returns the plan alongside the row metadata that maps plan
// results back to CSV rows. Invalid combinations (cpc < 2, worker
// count not divisible by cpc, configurations the simulator rejects)
// are skipped exactly as cmd/sweep always has.
func (sp Space) Build(r *experiments.Runner) (*experiments.Plan, []Row) {
	workers := r.Options().Workers
	plan := r.Plan()
	baseIdx := map[string]int{}
	var rows []Row
	add := func(bench string, cfg core.Config) int {
		return plan.AddPoint(experiments.Point{Bench: bench, Cfg: cfg, Backend: sp.Backend})
	}
	// Rows are labelled with the backend the points will actually run
	// on — resolved through the runner's own rule, so a Space left at
	// "" over a runner with Options.Backend set still labels truthfully.
	rowBackend := r.Options().PointBackend(experiments.Point{Backend: sp.Backend})
	for _, b := range sp.Benches {
		baseIdx[b] = add(b, BaseConfig(workers))
		for _, cpc := range sp.CPCs {
			if workers%cpc != 0 || cpc < 2 {
				continue
			}
			for _, kb := range sp.SizesKB {
				for _, lb := range sp.LineBuffers {
					for _, bus := range sp.Buses {
						cfg := PointConfig(workers, cpc, kb, lb, bus)
						if err := cfg.Validate(); err != nil {
							continue
						}
						rows = append(rows, Row{
							Bench: b, CPC: cpc, KB: kb, LB: lb, Bus: bus,
							BaseIdx: baseIdx[b], PointIdx: add(b, cfg),
							Backend: rowBackend,
						})
					}
				}
			}
		}
	}
	return plan, rows
}

// BaseConfig is the private-I-cache baseline every row is normalised
// against.
func BaseConfig(workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// PointConfig is the worker-shared configuration one Row's axes
// describe — the single place the axes-to-Config mapping lives, so
// tooling that rebuilds a row's design point from its CSV coordinates
// (the auto-refine frontier re-plan) cannot drift from Build.
func PointConfig(workers, cpc, kb, lb, bus int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.Organization = core.OrgWorkerShared
	cfg.CPC = cpc
	cfg.ICache.SizeBytes = kb << 10
	cfg.LineBuffers = lb
	cfg.Buses = bus
	return cfg
}
