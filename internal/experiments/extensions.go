package experiments

import (
	"context"
	"fmt"
	"slices"

	"sharedicache/internal/core"
	"sharedicache/internal/stats"
)

// extBenchmarks picks up to three representative workloads for the
// extension sweeps: preferring the paper's highlighted cases present
// in the campaign selection, falling back to whatever is selected.
func (o Options) extBenchmarks() []string {
	var names, out []string
	for _, p := range o.profiles() {
		names = append(names, p.Name)
	}
	for _, b := range []string{"UA", "FT", "LULESH"} {
		if slices.Contains(names, b) {
			out = append(out, b)
		}
	}
	for _, b := range names {
		if len(out) < 3 && !slices.Contains(out, b) {
			out = append(out, b)
		}
	}
	return out
}

// ExtScaleRow is one worker-count design point of the scalability
// sweep: execution time of a single fully shared I-cache, normalised
// to a private-I-cache baseline with the same worker count.
type ExtScaleRow struct {
	Workers int
	Bus1    float64
	Bus2    float64
	Bus4    float64
}

// ExtScaleResult is the extension experiment behind §VI-E's
// scalability claim: sharing one I-cache among more than eight cores
// introduces stalls that even a double bus cannot hide.
type ExtScaleResult struct {
	Benchmarks []string
	Rows       []ExtScaleRow
}

// ExtScale sweeps the worker count with cpc = workers (one shared
// I-cache for the whole cluster) and 1, 2 or 4 buses. Every point
// carries its own worker count (the workload shape depends on the
// thread count), and all of them are one plan on r, so the whole sweep
// fans out and shares r's caches, store and telemetry; the points at
// r's own worker count are the ones Figs 10 and 12 run too.
func ExtScale(ctx context.Context, r *Runner) (*ExtScaleResult, error) {
	benches := r.opts.extBenchmarks()
	counts := []int{2, 4, 8, 12, 16}
	// Per worker count and bench: the private baseline followed by the
	// 1-, 2- and 4-bus shared variants.
	plan := r.Plan()
	for _, w := range counts {
		for _, b := range benches {
			plan.AddPoint(Point{Bench: b, Cfg: core.PrivateConfig(w)})
			for _, buses := range []int{1, 2, 4} {
				plan.AddPoint(Point{Bench: b, Cfg: core.WorkerSharedConfig(w, w, 16, 4, buses)})
			}
		}
	}
	res, err := plan.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	out := &ExtScaleResult{Benchmarks: benches}
	for _, w := range counts {
		var ratios [3][]float64 // per bus count, one ratio per benchmark
		for range benches {
			for i, shared := range res[1:4] {
				ratios[i] = append(ratios[i], float64(shared.Cycles)/float64(res[0].Cycles))
			}
			res = res[4:]
		}
		out.Rows = append(out.Rows, ExtScaleRow{Workers: w,
			Bus1: stats.Mean(ratios[0]), Bus2: stats.Mean(ratios[1]), Bus4: stats.Mean(ratios[2])})
	}
	return out, nil
}

// SharingLimit returns the largest worker count at which the given
// bus count holds the slowdown within tol (e.g. 0.02 = 2%), or 0 if
// none does.
func (f *ExtScaleResult) SharingLimit(buses int, tol float64) int {
	limit := 0
	for _, row := range f.Rows {
		var v float64
		switch buses {
		case 1:
			v = row.Bus1
		case 2:
			v = row.Bus2
		case 4:
			v = row.Bus4
		default:
			return 0
		}
		if v <= 1+tol && row.Workers > limit {
			limit = row.Workers
		}
	}
	return limit
}

// Table renders the sweep.
func (f *ExtScaleResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ext A: sharing-degree scalability (16KB shared by all workers; mean of %v)", f.Benchmarks),
		"1 bus", "2 buses", "4 buses")
	for _, r := range f.Rows {
		t.AddRow(fmt.Sprintf("%d workers", r.Workers), r.Bus1, r.Bus2, r.Bus4)
	}
	return t
}

// ExtColdRow is one benchmark's cold-start comparison.
type ExtColdRow struct {
	Benchmark   string
	PrivateMPKI float64
	TimeRatio   float64 // shared (cpc=8, 32KB, 2 buses) / private, both cold
}

// ExtColdResult is the extension experiment behind the paper's CoEVP
// observation: when the private-I-cache MPKI is high, sharing the
// I-cache *improves* performance through mutual prefetching. Cold
// caches put every benchmark in that regime, making the correlation
// between private MPKI and sharing benefit visible.
type ExtColdResult struct {
	Rows []ExtColdRow
}

// ExtCold compares cold-cache execution time of the shared design
// against the cold private baseline for every selected benchmark.
func ExtCold(ctx context.Context, r *Runner) (*ExtColdResult, error) {
	out := &ExtColdResult{}
	w := r.opts.Workers
	cfgs := []core.Config{core.PrivateConfig(w), core.WorkerSharedConfig(w, 8, 32, 4, 2)}
	err := eachBenchmark(ctx, r, nil, nil, true, cfgs, func(p profile, res []*core.Result) error {
		out.Rows = append(out.Rows, ExtColdRow{
			Benchmark:   p.Name,
			PrivateMPKI: res[0].WorkerMPKI(),
			TimeRatio:   float64(res[1].Cycles) / float64(res[0].Cycles),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Best returns the largest cold-regime speedup (smallest ratio) and
// its benchmark.
func (f *ExtColdResult) Best() (string, float64) {
	name, best := "", 2.0
	for _, r := range f.Rows {
		if r.TimeRatio < best {
			name, best = r.Benchmark, r.TimeRatio
		}
	}
	return name, best
}

// Table renders the comparison.
func (f *ExtColdResult) Table() *stats.Table {
	t := stats.NewTable("Ext B: cold-cache regime — sharing as a prefetcher (cpc=8, 32KB, 2 buses)",
		"private MPKI", "time ratio")
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, r.PrivateMPKI, r.TimeRatio)
	}
	return t
}
