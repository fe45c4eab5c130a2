// Package sweep defines the design-space campaign shared by cmd/sweep,
// the distributed coordinator cmd/campaignd and auto-refine: one
// layout (Expand) produces every campaign's plan, and the same CSV
// emitter renders the same bytes, so a campaign merged from remote
// workers is byte-identical to a single-process sweep by construction
// rather than by convention.
//
// The package splits the campaign into three composable pieces:
//
//   - Expand lays row coordinates out as an ordered plan plus Row
//     metadata tying each CSV row to its plan indexes; Space.Build
//     feeds it the swept axes' cross product;
//   - Evaluator derives each row's Metrics (normalised time, MPKI,
//     area/energy ratios) from raw simulation results;
//   - CSV renders rows — batch (Row/WriteRow) or streaming
//     (EmitStream) — in a Shape: optional backend and phase columns
//     and a metric-adjust hook the auto-refine pipeline
//     (internal/refine) uses to apply its calibration fit.
//
// Flags (RegisterFlags) keeps the two drivers' design-space flag sets
// identical.
// Outputs is the runtime every cmd/ driver shares (run store, metrics
// registry and listener, pprof, -trace, -report, -cpuprofile,
// -memprofile), and Main and ExitCode their process entry and
// exit-status mapping.
package sweep

import (
	"fmt"

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

// Coord is one campaign row's coordinates: a benchmark and the
// shared-I-cache axes, with an optional backend override for the
// row's design point.
type Coord struct {
	Bench            string
	CPC, KB, LB, Bus int
	// Backend overrides the campaign backend for this row ("" keeps it).
	Backend string `json:",omitempty"`
}

// Build declares the full campaign on r in CSV emission order — per
// benchmark one private baseline followed by every valid shared point
// of the cross product — and returns the plan alongside the row
// metadata that maps plan results back to CSV rows. Invalid
// combinations are skipped (see Expand).
func (sp Space) Build(r *experiments.Runner) (*experiments.Plan, []Row) {
	coords := sp.coords()
	// At most one baseline per benchmark: exact when each has a valid row.
	points := make([]experiments.Point, 0, len(coords)+len(sp.Benches))
	points, rows, _ := Expand(points, r.Options(), sp.Backend, coords)
	return r.Plan(points...), rows
}

// Rows lays the space out under opts without declaring a plan: its
// valid rows, or, for a space without one, an error naming the first
// invalid row and why (see Expand). Drivers refuse such a space with
// it before anything runs.
func (sp Space) Rows(opts experiments.Options) ([]Row, error) {
	_, rows, err := Expand(nil, opts, sp.Backend, sp.coords())
	if len(rows) == 0 {
		return nil, fmt.Errorf("design space has no valid row: %w", err)
	}
	return rows, nil
}

// coords lists the space's cross product in CSV emission order.
func (sp Space) coords() []Coord {
	out := make([]Coord, 0, len(sp.Benches)*len(sp.CPCs)*len(sp.SizesKB)*len(sp.LineBuffers)*len(sp.Buses))
	for _, b := range sp.Benches {
		for _, cpc := range sp.CPCs {
			for _, kb := range sp.SizesKB {
				for _, lb := range sp.LineBuffers {
					for _, bus := range sp.Buses {
						out = append(out, Coord{Bench: b, CPC: cpc, KB: kb, LB: lb, Bus: bus})
					}
				}
			}
		}
	}
	return out
}

// Expand appends to points the campaign coords lay out, in CSV
// emission order: each benchmark's private baseline at its first valid
// row, then each valid row's shared point. Baselines run on backend, a
// row's point on its override, else on backend. The rows index into
// the returned slice and carry the backend their point resolves to
// under opts, so a backend column never mislabels a row.
//
// A row is valid when its configuration passes core.Config.Validate,
// which for a shared I-cache also demands a cpc of at least 2 dividing
// opts.Workers. Invalid rows are skipped; err names the first by its
// position in coords, for callers handed explicit rows.
func Expand(points []experiments.Point, opts experiments.Options, backend string, coords []Coord) ([]experiments.Point, []Row, error) {
	workers := opts.Workers
	base := BaseConfig(workers)
	label := opts.PointBackend(experiments.Point{Backend: backend})
	rows := make([]Row, 0, len(coords))
	baseIdx := map[string]int{}
	var first error
	for k, c := range coords {
		cfg := PointConfig(workers, c.CPC, c.KB, c.LB, c.Bus)
		if err := cfg.Validate(); err != nil {
			if first == nil {
				first = fmt.Errorf("row %d (%s cpc %d): %w", k, c.Bench, c.CPC, err)
			}
			continue
		}
		bi, ok := baseIdx[c.Bench]
		if !ok {
			bi = len(points)
			baseIdx[c.Bench] = bi
			points = append(points, experiments.Point{Bench: c.Bench, Cfg: base, Backend: backend})
		}
		// An override is its own label: PointBackend resolves only "".
		b, l := backend, label
		if c.Backend != "" {
			b, l = c.Backend, c.Backend
		}
		rows = append(rows, Row{
			Bench: c.Bench, CPC: c.CPC, KB: c.KB, LB: c.LB, Bus: c.Bus,
			BaseIdx: bi, PointIdx: len(points), Backend: l,
		})
		points = append(points, experiments.Point{Bench: c.Bench, Cfg: cfg, Backend: b})
	}
	return points, rows, first
}

// BaseConfig is the private-I-cache baseline every row is normalised
// against.
func BaseConfig(workers int) core.Config { return core.PrivateConfig(workers) }

// PointConfig is the worker-shared configuration one row's axes
// describe: the mapping every sweep, shard and campaign row goes
// through. It is core.WorkerSharedConfig, which the figure generators
// build through as well.
func PointConfig(workers, cpc, kb, lb, bus int) core.Config {
	return core.WorkerSharedConfig(workers, cpc, kb, lb, bus)
}
