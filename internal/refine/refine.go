// Package refine closes the triage-then-refine loop the backend
// registry opened: it turns one design-space sweep into an automated
// two-phase campaign that spends cycle-level simulation only where the
// cheap model says it matters.
//
// The pipeline (Prepare) runs over the existing Runner/Plan/store
// machinery in two phases:
//
//  1. Calibration — a small "golden" slice of the design space runs on
//     BOTH backends; per-metric least-squares corrections (Fit,
//     detailed ≈ a·analytical + b over the speedup and energy ratios)
//     are fitted with their residual error. The fit is recomputed on
//     every campaign and never persisted: with a run store attached to
//     the Runner, a repeat campaign's golden points are store hits, so
//     the refit costs zero simulations, and any change that would alter
//     a golden result (options, a backend revision, the golden space)
//     changes those points' store keys, so a stale fit cannot exist.
//
//  2. Frontier selection — the full space runs analytically, the fit
//     corrects each row's metrics, and a pluggable Selector (TopK,
//     Pareto, Band) picks the frontier. Prepare then extends the
//     triage plan into a mixed plan whose frontier points carry
//     Point.Backend = "detailed", with row metadata labelling every
//     CSV row's phase ("triage" or "refine").
//
// The caller — cmd/sweep's -refine mode, cmd/campaignd serving a
// refine plan to remote workers (both through Flags.Campaign), or
// examples/autorefine — executes the returned plan like any other and
// emits one merged CSV through the shared sweep emitter in
// Result.Shape: phase and backend columns, with the calibration
// applied to triage rows. Because the
// analytical phase already ran inside Prepare, executing the mixed
// plan re-simulates nothing analytical; only the frontier's detailed
// points (plus their baselines, usually warm from the golden pass)
// cost anything. docs/REFINE.md derives the math and walks an
// end-to-end recipe.
package refine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

// Backend names the pipeline pins. The triage phase always runs the
// analytical backend and the refine phase always runs the detailed
// one — that asymmetry IS the pipeline, so it is not configurable.
const (
	backendDetailed   = "detailed"
	backendAnalytical = "analytical"
)

// Phase labels stamped on row metadata (and rendered in the CSV phase
// column).
const (
	PhaseTriage = "triage"
	PhaseRefine = "refine"
)

// DefaultGoldenMax is the default calibration budget: how many shared
// design points the golden space samples from the full space.
const DefaultGoldenMax = 8

// Config assembles one auto-refine campaign.
type Config struct {
	// Space is the full design space to triage. Its Backend field must
	// be empty: the pipeline owns backend assignment per phase.
	Space sweep.Space
	// Runner supplies the campaign options (fidelity, seed, prewarm,
	// parallelism) and executes both phases. Attach a store to it
	// before calling Prepare if results should persist; a repeat
	// campaign then recalibrates from store hits.
	Runner *experiments.Runner
	// Selector picks the frontier from the calibrated triage metrics.
	Selector Selector
	// GoldenMax bounds how many shared design points the calibration
	// golden space samples (0 means DefaultGoldenMax). The golden pass
	// additionally runs the baseline of each benchmark it samples on
	// both backends.
	GoldenMax int
	// Log, when non-nil, receives the pipeline's accounting lines
	// (calibration fit, triage size, frontier size).
	Log io.Writer
}

// Result is a prepared auto-refine campaign: the mixed plan, the
// phase-labelled row metadata for the merged CSV, and the calibration
// to apply to triage rows. Execute Plan with RunAllStream (or serve
// its Points through a campaign coordinator) and emit Rows through a
// sweep.CSV with phase and backend columns and Adjust installed.
type Result struct {
	// Plan is the mixed campaign: the full space analytical, then the
	// frontier detailed (with the detailed baselines they normalise
	// against). The analytical points are already resolved — Prepare
	// ran them — so executing the plan costs only the detailed points.
	Plan *experiments.Plan
	// Rows is the merged CSV metadata in emission order: every triage
	// row (Phase "triage", analytical), then every frontier row (Phase
	// "refine", detailed).
	Rows []sweep.Row
	// Calibration is the fit applied to triage metrics.
	Calibration Calibration
	// GoldenRows is how many shared design points the golden space
	// sampled; GoldenDetailedSims is how many detailed simulations the
	// calibration pass actually executed (0 on a warm store).
	GoldenRows         int
	GoldenDetailedSims int
	// TriageRows and FrontierRows count the two phases' CSV rows.
	TriageRows, FrontierRows int
	// SelectorName records the selection rule, for accounting.
	SelectorName string
}

// Adjust is the metric hook for the merged CSV: it applies the
// calibration to triage-phase rows and leaves refine-phase (detailed)
// rows untouched.
func (r *Result) Adjust(m sweep.Row, v *sweep.Metrics) {
	if m.Phase == PhaseTriage {
		r.Calibration.Apply(v)
	}
}

// Shape is the merged CSV's layout: phase and backend columns, with
// Adjust applied.
func (r *Result) Shape() sweep.Shape {
	return sweep.Shape{Backend: true, Phase: true, Adjust: r.Adjust}
}

// Prepare runs the calibration and triage phases and returns the
// mixed campaign ready to execute. It simulates: the golden space on
// both backends and the full space analytically (each only where the
// Runner's caches miss), and nothing else — the frontier's detailed
// points are only planned, so the caller controls where and when they
// run (locally, or leased to distributed workers). With a tracer on
// the Runner, the phases are spans ("refine.calibrate",
// "refine.triage", "refine.select") under which the Runner's per-point
// spans parent, so a trace shows where the wall-clock goes.
func Prepare(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Runner == nil {
		return nil, errors.New("refine: Config.Runner is required")
	}
	if cfg.Selector == nil {
		return nil, errors.New("refine: Config.Selector is required")
	}
	if cfg.Space.Backend != "" {
		return nil, fmt.Errorf("refine: Space.Backend %q conflicts with the pipeline's per-phase backend assignment; leave it empty", cfg.Space.Backend)
	}
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	goldenMax := cfg.GoldenMax
	if goldenMax == 0 {
		goldenMax = DefaultGoldenMax
	}
	if goldenMax < 0 {
		return nil, fmt.Errorf("refine: GoldenMax = %d must be >= 0", cfg.GoldenMax)
	}
	r := cfg.Runner
	workers := r.Options().Workers
	tracer := r.Tracer()

	// The triage plan covers the full space analytically; its rows are
	// the merged CSV's triage prefix.
	spaceA := cfg.Space
	spaceA.Backend = backendAnalytical
	plan, rows := spaceA.Build(r)
	if len(rows) == 0 {
		return nil, errors.New("refine: the design space expands to zero rows")
	}
	for i := range rows {
		rows[i].Phase = PhaseTriage
	}

	// --- phase 1: calibration -----------------------------------------
	golden := goldenSample(len(rows), goldenMax)
	gplan, gdet, gana := goldenPlan(r, rows, golden)

	out := &Result{
		GoldenRows:   len(golden),
		TriageRows:   len(rows),
		SelectorName: cfg.Selector.Name(),
	}
	detBefore := r.BackendRuns()[backendDetailed]
	calCtx, calSpan := tracer.Start(ctx, "refine.calibrate", tracing.AInt("golden_rows", len(golden)))
	cal, err := calibrate(calCtx, r, gplan, gdet, gana)
	calSpan.End()
	if err != nil {
		return nil, err
	}
	out.Calibration = cal
	out.GoldenDetailedSims = r.BackendRuns()[backendDetailed] - detBefore
	fmt.Fprintf(log, "refine: calibration fitted over %d golden rows (%d detailed simulations): time_ratio a=%+.4f b=%+.4f rmse=%.4f, energy_ratio a=%+.4f b=%+.4f rmse=%.4f\n",
		len(golden), out.GoldenDetailedSims,
		cal.TimeRatio.A, cal.TimeRatio.B, cal.TimeRatio.RMSE,
		cal.EnergyRatio.A, cal.EnergyRatio.B, cal.EnergyRatio.RMSE)

	// --- phase 2: triage + frontier selection -------------------------
	triCtx, triSpan := tracer.Start(ctx, "refine.triage", tracing.AInt("rows", len(rows)))
	results, err := plan.RunAll(triCtx)
	triSpan.End()
	if err != nil {
		return nil, fmt.Errorf("refine: triage pass: %w", err)
	}
	_, selSpan := tracer.Start(ctx, "refine.select", tracing.A("selector", cfg.Selector.Name()))
	eval := sweep.NewEvaluator(workers)
	cands := make([]Candidate, len(rows))
	for i, row := range rows {
		m, err := eval.Metrics(row, results[row.BaseIdx], results[row.PointIdx])
		if err != nil {
			selSpan.End()
			return nil, fmt.Errorf("refine: triage metrics for %s cpc=%d: %w", row.Bench, row.CPC, err)
		}
		out.Calibration.Apply(&m)
		cands[i] = Candidate{Row: row, Metrics: m}
	}
	frontier, err := cfg.Selector.Select(cands)
	if err != nil {
		selSpan.End()
		return nil, err
	}
	selSpan.SetAttr("frontier", strconv.Itoa(len(frontier)))
	selSpan.End()
	if err := validateFrontier(frontier, len(cands)); err != nil {
		return nil, err
	}
	// Frontier rows are appended in design-space order regardless of
	// the selector's ranking, keeping the refine block's row order —
	// and hence the CSV bytes — a pure function of the selected set.
	sort.Ints(frontier)

	// --- the mixed plan: frontier re-planned detailed -----------------
	// The frontier (valid triage rows, so Expand skips none) is laid
	// out after the triage points, so executing the mixed plan
	// re-delivers the analytical results from the runner's cache and
	// only the detailed points simulate.
	points, frows, _ := sweep.Expand(plan.Points(), r.Options(), backendDetailed, coordsAt(rows, frontier))
	for _, row := range frows {
		row.Phase = PhaseRefine
		rows = append(rows, row)
	}
	plan = r.Plan(points...)
	out.Plan, out.Rows, out.FrontierRows = plan, rows, len(frontier)
	fmt.Fprintf(log, "refine: triage %d rows analytical, frontier %d rows re-planned detailed (selector %s)\n",
		out.TriageRows, out.FrontierRows, out.SelectorName)
	return out, nil
}

// goldenSample picks up to max row indexes spread evenly (by stride)
// across the n triage rows — first and last always included — so the
// fit sees the full range of every swept axis rather than one corner.
func goldenSample(n, max int) []int {
	if max >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if max <= 1 {
		return []int{0}
	}
	out := make([]int, 0, max)
	last := -1
	for i := 0; i < max; i++ {
		idx := i * (n - 1) / (max - 1)
		if idx != last {
			out = append(out, idx)
			last = idx
		}
	}
	return out
}

// goldenPlan declares the calibration campaign through sweep.Expand:
// the sampled rows on the detailed backend (each benchmark's baseline
// at its first golden row), then the same rows on the analytical
// backend. The two returned row slices pair up by position.
func goldenPlan(r *experiments.Runner, rows []sweep.Row, golden []int) (plan *experiments.Plan, det, ana []sweep.Row) {
	coords := coordsAt(rows, golden)
	points, det, _ := sweep.Expand(nil, r.Options(), backendDetailed, coords)
	points, ana, _ = sweep.Expand(points, r.Options(), backendAnalytical, coords)
	return r.Plan(points...), det, ana
}

// coordsAt returns the coordinates of rows[i] for each index, without
// backend overrides.
func coordsAt(rows []sweep.Row, idx []int) []sweep.Coord {
	coords := make([]sweep.Coord, len(idx))
	for k, i := range idx {
		row := rows[i]
		coords[k] = sweep.Coord{Bench: row.Bench, CPC: row.CPC, KB: row.KB, LB: row.LB, Bus: row.Bus}
	}
	return coords
}

// calibrate executes the golden plan and fits the per-metric
// corrections from analytical estimates to detailed ground truth, over
// the golden rows paired by position.
func calibrate(ctx context.Context, r *experiments.Runner, gplan *experiments.Plan, det, ana []sweep.Row) (Calibration, error) {
	results, err := gplan.RunAll(ctx)
	if err != nil {
		return Calibration{}, fmt.Errorf("refine: calibration pass: %w", err)
	}
	eval := sweep.NewEvaluator(r.Options().Workers)
	var xsT, ysT, xsE, ysE []float64
	for k, d := range det {
		a := ana[k]
		dm, err := eval.Metrics(d, results[d.BaseIdx], results[d.PointIdx])
		if err != nil {
			return Calibration{}, fmt.Errorf("refine: golden detailed metrics for %s cpc=%d: %w", d.Bench, d.CPC, err)
		}
		am, err := eval.Metrics(a, results[a.BaseIdx], results[a.PointIdx])
		if err != nil {
			return Calibration{}, fmt.Errorf("refine: golden analytical metrics for %s cpc=%d: %w", a.Bench, a.CPC, err)
		}
		xsT, ysT = append(xsT, am.TimeRatio), append(ysT, dm.TimeRatio)
		xsE, ysE = append(xsE, am.EnergyRatio), append(ysE, dm.EnergyRatio)
	}
	return Calibration{
		TimeRatio:   FitOLS(xsT, ysT),
		EnergyRatio: FitOLS(xsE, ysE),
	}, nil
}

// validateFrontier rejects selector output that is not a set of valid
// candidate indexes.
func validateFrontier(frontier []int, n int) error {
	seen := make(map[int]bool, len(frontier))
	for _, fi := range frontier {
		if fi < 0 || fi >= n {
			return fmt.Errorf("refine: selector returned index %d outside the %d candidates", fi, n)
		}
		if seen[fi] {
			return fmt.Errorf("refine: selector returned index %d twice", fi)
		}
		seen[fi] = true
	}
	return nil
}
