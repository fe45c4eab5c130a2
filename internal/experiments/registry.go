package experiments

import (
	"context"
	"fmt"
	"sort"

	"sharedicache/internal/stats"
)

// Renderable is the common face of every figure result.
type Renderable interface {
	Table() *stats.Table
}

// Experiment couples a figure id with its runner.
type Experiment struct {
	// ID is the figure/table identifier ("fig1" ... "fig13", "table1").
	ID string
	// Title is a one-line description.
	Title string
	// Run executes the experiment: its design points fan out across the
	// runner's Parallelism and ctx aborts the remaining work. Figures
	// whose rows complete one benchmark at a time (Figs 7-11) push
	// each table row (headers first) to a non-nil emit as soon as its
	// design points complete; the rest, such as the sorted Fig 13,
	// emit nothing and render only as the returned table.
	Run func(ctx context.Context, r *Runner, emit RowEmit) (Renderable, error)
	// cpc is the largest sharing degree the experiment's worker-shared
	// points fix regardless of the worker count (0: none do).
	cpc int
}

// CheckWorkers refuses a worker count the experiment cannot run at: one
// that its fixed sharing degree does not divide. Drivers call it for
// every selected experiment before running any, so a campaign fails up
// front rather than after the figures ahead of it have printed.
func (e Experiment) CheckWorkers(workers int) error {
	if e.cpc != 0 && workers%e.cpc != 0 {
		return fmt.Errorf("experiments: %s shares each I-cache among %d workers, so it needs a worker count divisible by %d, not %d",
			e.ID, e.cpc, e.cpc, workers)
	}
	return nil
}

// tableOnly adapts a figure that renders only as a finished table.
func tableOnly[T Renderable](fig func(context.Context, *Runner) (T, error)) func(context.Context, *Runner, RowEmit) (Renderable, error) {
	return func(ctx context.Context, r *Runner, _ RowEmit) (Renderable, error) { return fig(ctx, r) }
}

// rowByRow adapts a figure that streams its rows to emit.
func rowByRow[T Renderable](fig func(context.Context, *Runner, RowEmit) (T, error)) func(context.Context, *Runner, RowEmit) (Renderable, error) {
	return func(ctx context.Context, r *Runner, emit RowEmit) (Renderable, error) { return fig(ctx, r, emit) }
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "ACMP vs symmetric CMP speedup (Hill-Marty model)", Run: tableOnly(Fig1)},
		{ID: "fig2", Title: "Basic block length, serial vs parallel", Run: tableOnly(Fig2)},
		{ID: "fig3", Title: "I-cache MPKI, serial vs parallel (32KB)", Run: tableOnly(Fig3)},
		{ID: "fig4", Title: "Instruction sharing across threads", Run: tableOnly(Fig4)},
		{ID: "table1", Title: "Simulated ACMP configuration", Run: tableOnly(TableI), cpc: 8},
		{ID: "fig7", Title: "Naive sharing: normalized execution time", Run: rowByRow(Fig7), cpc: 8},
		{ID: "fig8", Title: "CPI stack at cpc=8, single bus", Run: rowByRow(Fig8), cpc: 8},
		{ID: "fig9", Title: "I-cache access ratio by line buffers", Run: rowByRow(Fig9)},
		{ID: "fig10", Title: "Line buffers vs interconnect bandwidth", Run: rowByRow(Fig10), cpc: 8},
		{ID: "fig11", Title: "Shared vs private worker MPKI", Run: rowByRow(Fig11), cpc: 8},
		{ID: "fig12", Title: "Execution time, energy and area", Run: tableOnly(Fig12), cpc: 8},
		{ID: "fig13", Title: "All-shared vs worker-shared by serial fraction", Run: tableOnly(Fig13), cpc: 8},
		{ID: "ext-scale", Title: "Extension: sharing-degree scalability sweep", Run: tableOnly(ExtScale)},
		{ID: "ext-cold", Title: "Extension: cold-cache regime (sharing as a prefetcher)", Run: tableOnly(ExtCold), cpc: 8},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := IDs()
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// IDs lists the available experiment ids in paper order.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}
