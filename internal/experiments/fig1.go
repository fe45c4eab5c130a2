package experiments

import (
	"context"
	"fmt"

	"sharedicache/internal/amdahl"
	"sharedicache/internal/core"
	"sharedicache/internal/stats"
)

// Fig1Result reproduces Figure 1: the Hill-Marty speedup of the three
// 16-BCE designs as a function of the serial code fraction, plus the
// crossover fraction above which the ACMP wins.
type Fig1Result struct {
	Fractions []float64
	Designs   []amdahl.Design
	Curves    [][]float64 // Curves[d][f]
	// Crossover is the smallest serial fraction at which the ACMP
	// outperforms both symmetric designs (paper: ~2%).
	Crossover float64
}

// Fig1 evaluates the model (no simulation involved; ctx is accepted
// for registry uniformity).
func Fig1(ctx context.Context, r *Runner) (*Fig1Result, error) {
	designs := amdahl.PaperDesigns()
	fractions := amdahl.Fig1Fractions()
	out := &Fig1Result{Fractions: fractions, Designs: designs}
	for _, d := range designs {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		out.Curves = append(out.Curves, amdahl.Curve(d, fractions))
	}
	acmp := designs[2]
	cross := 0.0
	for _, sym := range designs[:2] {
		if f := amdahl.CrossoverSerialFraction(acmp, sym, 1e-4); f > cross {
			cross = f
		}
	}
	out.Crossover = cross
	return out, nil
}

// Table renders the figure with serial fractions as rows.
func (f *Fig1Result) Table() *stats.Table {
	cols := make([]string, len(f.Designs))
	for i, d := range f.Designs {
		cols[i] = d.Name
	}
	t := stats.NewTable(
		fmt.Sprintf("Fig 1: CMP speedup vs serial fraction (16 BCE; ACMP wins above %.1f%%)",
			100*f.Crossover),
		cols...)
	for i, fr := range f.Fractions {
		cells := make([]float64, len(f.Designs))
		for d := range f.Designs {
			cells[d] = f.Curves[d][i]
		}
		t.AddRow(fmt.Sprintf("%.0f%% serial", fr*100), cells...)
	}
	return t
}

// TableIResult reproduces Table I: the simulated ACMP configuration.
type TableIResult struct {
	Baseline, Shared coreConfigView
}

// coreConfigView is the printable subset of a core.Config.
type coreConfigView struct {
	Organization  string
	Workers       int
	CPC           int
	ICacheKB      int
	ICacheAssoc   int
	ICacheLatency int
	LineBytes     int
	LineBuffers   int
	Buses         int
	BusLatency    int
	BusWidthBytes int
	L2KB          int
	L2Assoc       int
	L2Latency     int
}

// TableI returns the configuration defaults at the campaign's worker
// count, validating them first (no simulation involved; ctx is
// accepted for registry uniformity).
func TableI(ctx context.Context, r *Runner) (*TableIResult, error) {
	w := r.opts.Workers
	base := core.PrivateConfig(w)
	shared := core.WorkerSharedConfig(w, 8, 16, 4, 2)
	for _, cfg := range []core.Config{base, shared} {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	view := func(cfg core.Config) coreConfigView {
		return coreConfigView{
			Organization:  cfg.Organization.String(),
			Workers:       cfg.Workers,
			CPC:           cfg.CPC,
			ICacheKB:      cfg.ICache.SizeBytes >> 10,
			ICacheAssoc:   cfg.ICache.Assoc,
			ICacheLatency: cfg.ICacheLatency,
			LineBytes:     cfg.ICache.LineBytes,
			LineBuffers:   cfg.LineBuffers,
			Buses:         cfg.Buses,
			BusLatency:    cfg.BusLatency,
			BusWidthBytes: cfg.BusWidthBytes,
			L2KB:          cfg.Mem.L2.SizeBytes >> 10,
			L2Assoc:       cfg.Mem.L2.Assoc,
			L2Latency:     cfg.Mem.L2Latency,
		}
	}
	return &TableIResult{Baseline: view(base), Shared: view(shared)}, nil
}

// Table renders both configurations side by side.
func (t *TableIResult) Table() *stats.Table {
	tb := stats.NewTable("Table I: simulated ACMP configuration", "baseline", "shared sweet spot")
	row := func(label string, a, b interface{}) {
		tb.AddStringRow(label, fmt.Sprint(a), fmt.Sprint(b))
	}
	row("organization", t.Baseline.Organization, t.Shared.Organization)
	row("worker cores", t.Baseline.Workers, t.Shared.Workers)
	row("cores-per-cache", t.Baseline.CPC, t.Shared.CPC)
	row("I-cache size [KB]", t.Baseline.ICacheKB, t.Shared.ICacheKB)
	row("I-cache assoc", t.Baseline.ICacheAssoc, t.Shared.ICacheAssoc)
	row("I-cache latency [cyc]", t.Baseline.ICacheLatency, t.Shared.ICacheLatency)
	row("line width [B]", t.Baseline.LineBytes, t.Shared.LineBytes)
	row("line buffers", t.Baseline.LineBuffers, t.Shared.LineBuffers)
	row("I-buses", t.Baseline.Buses, t.Shared.Buses)
	row("I-bus latency [cyc]", t.Baseline.BusLatency, t.Shared.BusLatency)
	row("I-bus width [B]", t.Baseline.BusWidthBytes, t.Shared.BusWidthBytes)
	row("L2 size [KB]", t.Baseline.L2KB, t.Shared.L2KB)
	row("L2 assoc", t.Baseline.L2Assoc, t.Shared.L2Assoc)
	row("L2 latency [cyc]", t.Baseline.L2Latency, t.Shared.L2Latency)
	return tb
}
