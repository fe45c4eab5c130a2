package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/power"
)

// Metrics are the derived values of one sweep row: the design point
// normalised against its per-benchmark private baseline, plus the
// power model's area/energy ratios. They are computed by
// Evaluator.Metrics and rendered by CSV.WriteRow; the auto-refine
// pipeline (internal/refine) fits and applies calibration corrections
// on this struct, between those two steps.
type Metrics struct {
	// TimeRatio is execution time relative to the baseline (< 1 is a
	// speedup).
	TimeRatio float64
	// WorkerMPKI is the worker I-cache misses per kilo-instruction.
	WorkerMPKI float64
	// AccessRatio is worker I-cache accesses per instruction.
	AccessRatio float64
	// BusAvgWait is the mean cycles a fetch waits for the shared bus.
	BusAvgWait float64
	// AreaRatio and EnergyRatio are the power model's worker-cluster
	// area and energy relative to the baseline cluster.
	AreaRatio, EnergyRatio float64
}

// Evaluator derives row Metrics from raw simulation results. It
// memoises the per-baseline power report by the baseline's plan index
// — not by benchmark name — because a mixed-backend plan (auto-refine)
// carries two baselines per benchmark, one per backend, whose reports
// must not be conflated. An Evaluator is bound to one plan's index
// space; build a fresh one per plan.
type Evaluator struct {
	tech     power.Tech
	baseCfg  core.Config
	baseReps map[int]power.Report
}

// NewEvaluator builds a metric evaluator for a sweep over the given
// worker count.
func NewEvaluator(workers int) *Evaluator {
	return &Evaluator{
		tech:     power.Default45nm(),
		baseCfg:  BaseConfig(workers),
		baseReps: map[int]power.Report{},
	}
}

// Metrics computes one row's derived values from the design point's
// result and its baseline's, evaluating (and memoising) the baseline
// power report on first use.
func (e *Evaluator) Metrics(m Row, base, res *core.Result) (Metrics, error) {
	rep, err := e.tech.Evaluate(experiments.ClusterFor(res.Config), experiments.ActivityFor(res))
	if err != nil {
		return Metrics{}, err
	}
	baseRep, ok := e.baseReps[m.BaseIdx]
	if !ok {
		if baseRep, err = e.tech.Evaluate(experiments.ClusterFor(e.baseCfg), experiments.ActivityFor(base)); err != nil {
			return Metrics{}, err
		}
		e.baseReps[m.BaseIdx] = baseRep
	}
	_, er, ar := rep.Relative(baseRep)
	return Metrics{
		TimeRatio:   float64(res.Cycles) / float64(base.Cycles),
		WorkerMPKI:  res.WorkerMPKI(),
		AccessRatio: res.WorkerAccessRatio(),
		BusAvgWait:  res.Bus.AvgWait(),
		AreaRatio:   ar,
		EnergyRatio: er,
	}, nil
}

// CSV renders sweep rows: each design point against its per-benchmark
// private baseline, with the power model's area/energy ratios. It
// wraps a csv.Writer whose sticky error is surfaced by Flush, so a
// full disk or closed pipe exits non-zero instead of silently
// truncating the output.
type CSV struct {
	w    *csv.Writer
	eval *Evaluator
	// backendCol inserts a backend column after the benchmark name;
	// phaseCol inserts a phase column before it (auto-refine output).
	// Both are off by default so the historical CSV schema — which the
	// byte-identity guarantees of the store and coordinator smoke
	// tests diff against — is unchanged unless a backend was named.
	backendCol, phaseCol bool
	// adjust, when set, rewrites a row's metrics between computation
	// and rendering — the seam the auto-refine pipeline uses to apply
	// its calibration fit to triage-phase rows.
	adjust func(Row, *Metrics)
}

// NewCSV builds an emitter for a sweep over the given worker count.
func NewCSV(out io.Writer, workers int) *CSV {
	return &CSV{w: csv.NewWriter(out), eval: NewEvaluator(workers)}
}

// IncludeBackendColumn adds a backend column to the output (call
// before Header). Drivers enable it exactly when a -backend flag was
// given, so default output stays byte-identical to older releases.
func (c *CSV) IncludeBackendColumn() { c.backendCol = true }

// IncludePhaseColumn adds a phase column to the output (call before
// Header), rendering each Row's Phase label. The auto-refine drivers
// enable it so triage and refine rows are distinguishable in one
// merged CSV.
func (c *CSV) IncludePhaseColumn() { c.phaseCol = true }

// SetAdjust installs a metric rewrite applied to every row between
// computing its metrics and rendering them. The auto-refine pipeline
// uses it to apply the calibration fit to triage-phase rows; rows the
// function leaves untouched render exactly as without it.
func (c *CSV) SetAdjust(f func(Row, *Metrics)) { c.adjust = f }

// Header writes the column header row.
func (c *CSV) Header() error {
	cols := []string{"benchmark"}
	if c.phaseCol {
		cols = append(cols, "phase")
	}
	if c.backendCol {
		cols = append(cols, "backend")
	}
	cols = append(cols, "cpc", "size_kb", "line_buffers", "buses",
		"time_ratio", "worker_mpki", "access_ratio", "bus_avg_wait",
		"area_ratio", "energy_ratio")
	return c.w.Write(cols)
}

// Row computes one design point's metrics against its baseline and
// renders them, honouring the installed adjust hook.
func (c *CSV) Row(m Row, base, res *core.Result) error {
	v, err := c.eval.Metrics(m, base, res)
	if err != nil {
		return err
	}
	if c.adjust != nil {
		c.adjust(m, &v)
	}
	return c.WriteRow(m, v)
}

// WriteRow renders one row from already-computed metrics.
func (c *CSV) WriteRow(m Row, v Metrics) error {
	cells := []string{m.Bench}
	if c.phaseCol {
		cells = append(cells, m.Phase)
	}
	if c.backendCol {
		backend := m.Backend
		if backend == "" {
			backend = experiments.DefaultBackend
		}
		cells = append(cells, backend)
	}
	cells = append(cells,
		strconv.Itoa(m.CPC), strconv.Itoa(m.KB),
		strconv.Itoa(m.LB), strconv.Itoa(m.Bus),
		f(v.TimeRatio), f(v.WorkerMPKI), f(v.AccessRatio), f(v.BusAvgWait),
		f(v.AreaRatio), f(v.EnergyRatio),
	)
	return c.w.Write(cells)
}

// Flush drains the writer and surfaces its sticky error.
func (c *CSV) Flush() error {
	c.w.Flush()
	if err := c.w.Error(); err != nil {
		return fmt.Errorf("write CSV: %w", err)
	}
	return nil
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
