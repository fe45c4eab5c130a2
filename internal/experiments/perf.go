package experiments

import (
	"context"
	"fmt"
	"sort"

	"sharedicache/internal/core"
	"sharedicache/internal/stats"
	"sharedicache/internal/synth"
)

// profile shortens signatures in this file.
type profile = synth.Profile

// Fig7Row is one benchmark's normalised execution time at each sharing
// degree (single bus, 4 line buffers, 32 KB shared I-cache).
type Fig7Row struct {
	Benchmark string
	CPC2      float64
	CPC4      float64
	CPC8      float64
}

// Fig7Result reproduces Figure 7: naive I-cache sharing.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7 sweeps cpc in {2,4,8} against the private baseline, streaming
// each benchmark's row to emit (nil: batch) as soon as its four design
// points complete.
func Fig7(ctx context.Context, r *Runner, emit RowEmit) (*Fig7Result, error) {
	out := &Fig7Result{}
	cfgs := []core.Config{baselineConfig(),
		sharedConfig(2, 32, 4, 1), sharedConfig(4, 32, 4, 1), sharedConfig(8, 32, 4, 1)}
	err := eachBenchmark(ctx, r, emit, out.Table, false, cfgs, func(p profile, res []*core.Result) error {
		base := float64(res[0].Cycles)
		out.Rows = append(out.Rows, Fig7Row{
			Benchmark: p.Name,
			CPC2:      float64(res[1].Cycles) / base,
			CPC4:      float64(res[2].Cycles) / base,
			CPC8:      float64(res[3].Cycles) / base,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Worst returns the largest cpc=8 slowdown and its benchmark (the
// paper calls out UA at +18%).
func (f *Fig7Result) Worst() (string, float64) {
	name, worst := "", 0.0
	for _, r := range f.Rows {
		if r.CPC8 > worst {
			name, worst = r.Benchmark, r.CPC8
		}
	}
	return name, worst
}

// Table renders the figure.
func (f *Fig7Result) Table() *stats.Table {
	t := stats.NewTable("Fig 7: naive sharing, normalized execution time (32KB shared, 4 LB, single bus)",
		"cpc=2", "cpc=4", "cpc=8")
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, r.CPC2, r.CPC4, r.CPC8)
	}
	return t
}

// Fig8Row is one benchmark's worker CPI stack at cpc=8 (single bus),
// normalised to the baseline worker CPI.
type Fig8Row struct {
	Benchmark    string
	BaselineCPI  float64 // busy + everything the baseline also pays
	BusLatency   float64
	BusCongest   float64
	CacheLatency float64
	BranchMiss   float64
	Rest         float64
}

// Total returns the stacked height (= normalised execution time).
func (r Fig8Row) Total() float64 {
	return r.BaselineCPI + r.BusLatency + r.BusCongest + r.CacheLatency + r.BranchMiss + r.Rest
}

// Fig8Result reproduces Figure 8: the CPI stack under naive cpc=8
// sharing.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 attributes the extra cycles of naive sharing to their causes.
// The baseline bucket is the per-benchmark baseline worker CPI; each
// extra bucket is the additional stall cycles the shared design pays,
// as a fraction of baseline cycles. Rows stream to emit (nil: batch)
// as benchmarks complete.
func Fig8(ctx context.Context, r *Runner, emit RowEmit) (*Fig8Result, error) {
	out := &Fig8Result{}
	cfgs := []core.Config{baselineConfig(), sharedConfig(8, 32, 4, 1)}
	err := eachBenchmark(ctx, r, emit, out.Table, false, cfgs, func(p profile, res []*core.Result) error {
		bs, ss := res[0].WorkerStack(), res[1].WorkerStack()
		norm := float64(bs.Total())
		if norm == 0 {
			return fmt.Errorf("experiments: %s baseline recorded no worker cycles", p.Name)
		}
		extra := func(shared, baseline uint64) float64 {
			if shared <= baseline {
				return 0
			}
			return float64(shared-baseline) / norm
		}
		out.Rows = append(out.Rows, Fig8Row{
			Benchmark:    p.Name,
			BaselineCPI:  1.0,
			BusLatency:   extra(ss.BusLatency, bs.BusLatency),
			BusCongest:   extra(ss.BusQueue, bs.BusQueue),
			CacheLatency: extra(ss.CacheMiss+ss.CacheHit, bs.CacheMiss+bs.CacheHit),
			BranchMiss:   extra(ss.Branch, bs.Branch),
			Rest:         extra(ss.Sync+ss.Drain, bs.Sync+bs.Drain),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table renders the figure.
func (f *Fig8Result) Table() *stats.Table {
	t := stats.NewTable("Fig 8: normalized worker CPI stack at cpc=8 (single bus)",
		"baseline", "I-bus lat", "I-bus congest", "I-cache lat", "branch miss", "rest", "total")
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, r.BaselineCPI, r.BusLatency, r.BusCongest,
			r.CacheLatency, r.BranchMiss, r.Rest, r.Total())
	}
	return t
}

// Fig9Row is one benchmark's I-cache access ratio (%) per line-buffer
// count.
type Fig9Row struct {
	Benchmark string
	LB2       float64
	LB4       float64
	LB8       float64
}

// Fig9Result reproduces Figure 9: the I-cache access ratio for 2/4/8
// line buffers.
type Fig9Result struct {
	Rows []Fig9Row
}

// Fig9 sweeps the per-core line buffer count on the baseline
// organisation (the access ratio is a property of code and front-end,
// not of where the I-cache lives). Rows stream to emit (nil: batch) as
// benchmarks complete.
func Fig9(ctx context.Context, r *Runner, emit RowEmit) (*Fig9Result, error) {
	out := &Fig9Result{}
	var cfgs []core.Config
	for _, lb := range []int{2, 4, 8} {
		cfg := baselineConfig()
		cfg.LineBuffers = lb
		cfgs = append(cfgs, cfg)
	}
	err := eachBenchmark(ctx, r, emit, out.Table, false, cfgs, func(p profile, res []*core.Result) error {
		out.Rows = append(out.Rows, Fig9Row{
			Benchmark: p.Name,
			LB2:       100 * res[0].WorkerAccessRatio(),
			LB4:       100 * res[1].WorkerAccessRatio(),
			LB8:       100 * res[2].WorkerAccessRatio(),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table renders the figure.
func (f *Fig9Result) Table() *stats.Table {
	t := stats.NewTable("Fig 9: I-cache access ratio [%] by line buffers",
		"2 LB", "4 LB", "8 LB")
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, r.LB2, r.LB4, r.LB8)
	}
	return t
}

// Fig10Row is one benchmark's normalised execution time for the three
// cpc=8 16 KB design points.
type Fig10Row struct {
	Benchmark  string
	Naive      float64 // 4 LB, single bus
	MoreLB     float64 // 8 LB, single bus
	MoreBandwk float64 // 4 LB, double bus
}

// Fig10Result reproduces Figure 10: line buffers vs interconnect
// bandwidth when a single 16 KB I-cache is shared by all workers.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 compares the two congestion remedies. Rows stream to emit
// (nil: batch) as benchmarks complete.
func Fig10(ctx context.Context, r *Runner, emit RowEmit) (*Fig10Result, error) {
	out := &Fig10Result{}
	cfgs := []core.Config{baselineConfig(),
		sharedConfig(8, 16, 4, 1), sharedConfig(8, 16, 8, 1), sharedConfig(8, 16, 4, 2)}
	err := eachBenchmark(ctx, r, emit, out.Table, false, cfgs, func(p profile, res []*core.Result) error {
		base := float64(res[0].Cycles)
		out.Rows = append(out.Rows, Fig10Row{
			Benchmark:  p.Name,
			Naive:      float64(res[1].Cycles) / base,
			MoreLB:     float64(res[2].Cycles) / base,
			MoreBandwk: float64(res[3].Cycles) / base,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Means returns the arithmetic means of the three series.
func (f *Fig10Result) Means() (naive, moreLB, moreBW float64) {
	var a, b, c []float64
	for _, r := range f.Rows {
		a = append(a, r.Naive)
		b = append(b, r.MoreLB)
		c = append(c, r.MoreBandwk)
	}
	return stats.Mean(a), stats.Mean(b), stats.Mean(c)
}

// Table renders the figure.
func (f *Fig10Result) Table() *stats.Table {
	t := stats.NewTable("Fig 10: line buffers vs bandwidth (cpc=8, 16KB shared), normalized time",
		"4LB+1bus", "8LB+1bus", "4LB+2bus")
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, r.Naive, r.MoreLB, r.MoreBandwk)
	}
	a, b, c := f.Means()
	t.AddRow("amean", a, b, c)
	return t
}

// Fig11Row is one benchmark's shared-to-private worker MPKI
// percentage at the two shared sizes, plus the absolute private MPKI.
type Fig11Row struct {
	Benchmark   string
	PrivateMPKI float64 // absolute, printed above the paper's bars
	Shared32Pct float64 // cpc=8 32KB, % of private
	Shared16Pct float64 // cpc=8 16KB, % of private
}

// Fig11Result reproduces Figure 11: worker I-cache MPKI under sharing.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11 compares shared and private worker miss rates. The shared
// configurations use the double bus so that timing artefacts do not
// perturb miss counts. Rows stream to emit (nil: batch) as benchmarks
// complete.
func Fig11(ctx context.Context, r *Runner, emit RowEmit) (*Fig11Result, error) {
	out := &Fig11Result{}
	cfgs := []core.Config{baselineConfig(), sharedConfig(8, 32, 4, 2), sharedConfig(8, 16, 4, 2)}
	err := eachBenchmark(ctx, r, emit, out.Table, true, cfgs, func(p profile, res []*core.Result) error {
		row := Fig11Row{Benchmark: p.Name, PrivateMPKI: res[0].WorkerMPKI()}
		if row.PrivateMPKI > 0 {
			row.Shared32Pct = 100 * res[1].WorkerMPKI() / row.PrivateMPKI
			row.Shared16Pct = 100 * res[2].WorkerMPKI() / row.PrivateMPKI
		}
		out.Rows = append(out.Rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MeanReduction returns the mean cpc=8/32KB MPKI percentage across
// benchmarks with a nonzero private MPKI (the paper: ~50%).
func (f *Fig11Result) MeanReduction() float64 {
	var xs []float64
	for _, r := range f.Rows {
		if r.PrivateMPKI > 0 {
			xs = append(xs, r.Shared32Pct)
		}
	}
	return stats.Mean(xs)
}

// Table renders the figure.
func (f *Fig11Result) Table() *stats.Table {
	t := stats.NewTable("Fig 11: worker MPKI, shared as % of private (absolute private MPKI in col 1)",
		"private MPKI", "cpc=8 32KB [%]", "cpc=8 16KB [%]")
	for _, r := range f.Rows {
		t.AddStringRow(r.Benchmark,
			fmt.Sprintf("%.3f", r.PrivateMPKI),
			fmt.Sprintf("%.1f", r.Shared32Pct),
			fmt.Sprintf("%.1f", r.Shared16Pct))
	}
	return t
}

// Fig13Group labels the outlier clusters of Figure 13.
type Fig13Group int

// The paper's groups.
const (
	// Group0Default follows the general trend: ~1% degradation per 5%
	// serial code.
	Group0Default Fig13Group = iota
	// Group1SerialLocality has serial code the line buffers capture.
	Group1SerialLocality
	// Group2LongSerialBlocks has serial basic blocks as long as
	// parallel ones (nab, CoEVP).
	Group2LongSerialBlocks
)

// String names the group.
func (g Fig13Group) String() string {
	switch g {
	case Group0Default:
		return "group 0 (default)"
	case Group1SerialLocality:
		return "group 1 (serial locality)"
	case Group2LongSerialBlocks:
		return "group 2 (long serial BBs)"
	default:
		return fmt.Sprintf("Fig13Group(%d)", int(g))
	}
}

// Fig13Row is one benchmark's all-shared/worker-shared time ratio.
type Fig13Row struct {
	Benchmark  string
	SerialFrac float64 // profile serial code fraction (x-axis)
	Ratio      float64 // all-shared / worker-shared execution time
	SingleBus  float64 // same ratio with a single bus (Group 3 probe)
	Group      Fig13Group
}

// Fig13Result reproduces Figure 13: sharing a single 32 KB I-cache
// among all cores, including the master, against worker-only sharing
// (both behind a double bus).
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13 runs the §VI-E comparison. Rows are sorted by serial fraction
// to match the figure's x-axis.
func Fig13(ctx context.Context, r *Runner) (*Fig13Result, error) {
	out := &Fig13Result{}
	cfgs := []core.Config{sharedConfig(8, 32, 4, 2), allSharedConfig(32, 4, 2),
		sharedConfig(8, 32, 4, 1), allSharedConfig(32, 4, 1)}
	err := eachBenchmark(ctx, r, nil, nil, false, cfgs, func(p profile, res []*core.Result) error {
		out.Rows = append(out.Rows, Fig13Row{
			Benchmark:  p.Name,
			SerialFrac: p.SerialFrac,
			Ratio:      float64(res[1].Cycles) / float64(res[0].Cycles),
			SingleBus:  float64(res[3].Cycles) / float64(res[2].Cycles),
			Group:      classifyFig13(p),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		return out.Rows[i].SerialFrac < out.Rows[j].SerialFrac
	})
	return out, nil
}

// classifyFig13 assigns the paper's outlier groups from profile
// structure: long serial basic blocks -> group 2; high serial-code
// locality (tiny serial hot body, low cold fraction, significant
// serial fraction) -> group 1; otherwise group 0.
func classifyFig13(p profile) Fig13Group {
	switch {
	case p.SerialBB >= p.ParallelBB && p.SerialFrac >= 0.05:
		return Group2LongSerialBlocks
	case p.SerialFrac >= 0.10 && p.SerialHotBody <= 256 && p.SerialColdFrac < 0.10:
		return Group1SerialLocality
	default:
		return Group0Default
	}
}

// Table renders the figure.
func (f *Fig13Result) Table() *stats.Table {
	t := stats.NewTable("Fig 13: all-shared vs worker-shared execution time ratio (32KB, double bus)",
		"serial %", "ratio (2 bus)", "ratio (1 bus)", "group")
	for _, r := range f.Rows {
		t.AddStringRow(r.Benchmark,
			fmt.Sprintf("%.1f", 100*r.SerialFrac),
			fmt.Sprintf("%.4f", r.Ratio),
			fmt.Sprintf("%.4f", r.SingleBus),
			r.Group.String())
	}
	return t
}

// Slope estimates the group-0 trend: extra degradation per unit of
// serial fraction, via least squares over group-0 benchmarks (paper:
// ~1% per 5% serial).
func (f *Fig13Result) Slope() float64 {
	var xs, ys []float64
	for _, r := range f.Rows {
		if r.Group == Group0Default {
			xs = append(xs, r.SerialFrac)
			ys = append(ys, r.Ratio-1)
		}
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
