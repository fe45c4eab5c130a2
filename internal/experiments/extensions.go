package experiments

import (
	"context"
	"fmt"

	"sharedicache/internal/core"
	"sharedicache/internal/stats"
)

// extBenchmarks picks up to three representative workloads for the
// extension sweeps: preferring the paper's highlighted cases present
// in the campaign selection, falling back to whatever is selected.
func (o Options) extBenchmarks() []string {
	preferred := []string{"UA", "FT", "LULESH"}
	selected := map[string]bool{}
	for _, p := range o.profiles() {
		selected[p.Name] = true
	}
	var out []string
	for _, b := range preferred {
		if selected[b] {
			out = append(out, b)
		}
	}
	for _, p := range o.profiles() {
		if len(out) >= 3 {
			break
		}
		found := false
		for _, b := range out {
			if b == p.Name {
				found = true
				break
			}
		}
		if !found {
			out = append(out, p.Name)
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
// I-cache for the whole cluster) and 1, 2 or 4 buses. Each worker
// count uses its own sub-campaign (the workload shape depends on the
// thread count), planned up front so the whole sub-sweep fans out.
func ExtScale(ctx context.Context, r *Runner) (*ExtScaleResult, error) {
	benches := r.opts.extBenchmarks()
	out := &ExtScaleResult{Benchmarks: benches}
	for _, workers := range []int{2, 4, 8, 12, 16} {
		opts := r.opts
		opts.Workers = workers
		opts.Benchmarks = benches
		sub, err := NewRunner(opts)
		if err != nil {
			return nil, err
		}
		// Per bench: the private baseline followed by the 1-, 2- and
		// 4-bus shared variants.
		cfgs := []core.Config{baselineConfig(), sharedConfig(workers, 16, 4, 1),
			sharedConfig(workers, 16, 4, 2), sharedConfig(workers, 16, 4, 4)}
		var ratios [3][]float64 // per bus count, one ratio per benchmark
		err = eachBenchmark(ctx, sub, nil, nil, false, cfgs, func(_ profile, res []*core.Result) error {
			for i, shared := range res[1:] {
				ratios[i] = append(ratios[i], float64(shared.Cycles)/float64(res[0].Cycles))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ExtScaleRow{Workers: workers,
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
	cfgs := []core.Config{baselineConfig(), sharedConfig(8, 32, 4, 2)}
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
