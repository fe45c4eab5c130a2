package experiments

import (
	"context"
	"fmt"

	"sharedicache/internal/core"
	"sharedicache/internal/power"
	"sharedicache/internal/stats"
)

// ClusterFor maps a simulated ACMP configuration to the power model's
// worker-cluster description, for all three organisations. Only
// worker-side structures are costed (the paper excludes master core,
// LLC and NoC from §VI-D). The sweep CSV's area and energy columns use
// it too.
func ClusterFor(cfg core.Config) power.Cluster {
	cl := power.Cluster{
		Workers:            cfg.Workers,
		Cache:              cfg.ICache,
		LineBuffersPerCore: cfg.LineBuffers,
	}
	switch cfg.Organization {
	case core.OrgPrivate:
		cl.Caches = cfg.Workers
	case core.OrgWorkerShared:
		cl.Caches = cfg.Workers / cfg.CPC
		cl.BusesPerCache = cfg.Buses
		cl.BusWidthBytes = cfg.BusWidthBytes
		cl.SharedCacheOverhead = 0.25
		cl.Cache.Banks = cfg.Buses
	case core.OrgAllShared:
		cl.Caches = 1
		cl.BusesPerCache = cfg.Buses
		cl.BusWidthBytes = cfg.BusWidthBytes
		cl.SharedCacheOverhead = 0.25
		cl.Cache.Banks = cfg.Buses
	}
	return cl
}

// ActivityFor extracts the energy-model activity counters from one
// simulation result.
func ActivityFor(res *core.Result) power.Activity {
	var lineNeeds, cacheFetches uint64
	for _, c := range res.Cores[1:] {
		lineNeeds += c.FE.LineNeeds
		cacheFetches += c.FE.CacheFetches
	}
	return power.Activity{
		Cycles:          res.Cycles,
		Instructions:    res.WorkerInstructions(),
		CacheAccesses:   res.WorkerICache.Accesses,
		BusTransactions: res.Bus.Granted,
		LineBufferHits:  lineNeeds - cacheFetches,
	}
}

// Fig12Point is one design point of Figure 12, averaged across
// benchmarks and normalised to the private baseline.
type Fig12Point struct {
	Name        string
	LineBuffers int
	Buses       int
	Time        float64
	Energy      float64
	Area        float64
}

// Fig12Result reproduces Figure 12: execution time, energy and area of
// the worker cluster for the cpc=8 16 KB shared designs against the
// private-32 KB baseline.
type Fig12Result struct {
	Points []Fig12Point
	Tech   power.Tech
}

// Fig12 evaluates the baseline plus the four shared design points
// (4/8 line buffers x single/double bus).
func Fig12(ctx context.Context, r *Runner) (*Fig12Result, error) {
	tech := power.Default45nm()
	out := &Fig12Result{Tech: tech}

	type design struct {
		name   string
		lb, bs int
		cfg    core.Config
	}
	designs := []design{
		{"baseline", 4, 0, baselineConfig()},
		{"cpc=8 4LB 1bus", 4, 1, sharedConfig(8, 16, 4, 1)},
		{"cpc=8 4LB 2bus", 4, 2, sharedConfig(8, 16, 4, 2)},
		{"cpc=8 8LB 1bus", 8, 1, sharedConfig(8, 16, 8, 1)},
		{"cpc=8 8LB 2bus", 8, 2, sharedConfig(8, 16, 8, 2)},
	}

	cfgs := make([]core.Config, len(designs))
	for di, d := range designs {
		cfgs[di] = d.cfg
	}
	// Per-design accumulators of per-benchmark normalised metrics.
	times := make([][]float64, len(designs))
	energies := make([][]float64, len(designs))
	areas := make([]float64, len(designs))
	err := eachBenchmark(ctx, r, nil, nil, false, cfgs, func(_ profile, res []*core.Result) error {
		reps := make([]power.Report, len(designs))
		for di, d := range designs {
			rep, err := tech.Evaluate(ClusterFor(d.cfg), ActivityFor(res[di]))
			if err != nil {
				return err
			}
			// designs[0] is the baseline, so reps[0] is set before use.
			reps[di] = rep
			tr, er, _ := rep.Relative(reps[0])
			times[di] = append(times[di], tr)
			energies[di] = append(energies[di], er)
			areas[di] = rep.Area.TotalMM2()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	baseArea := areas[0]
	for di, d := range designs {
		out.Points = append(out.Points, Fig12Point{
			Name:        d.name,
			LineBuffers: d.lb,
			Buses:       d.bs,
			Time:        stats.Mean(times[di]),
			Energy:      stats.Mean(energies[di]),
			Area:        areas[di] / baseArea,
		})
	}
	return out, nil
}

// Point returns the named design point and whether it exists.
func (f *Fig12Result) Point(name string) (Fig12Point, bool) {
	for _, p := range f.Points {
		if p.Name == name {
			return p, true
		}
	}
	return Fig12Point{}, false
}

// Headline returns the paper's preferred design (4 LB + double bus)
// with its savings: (1-energy) and (1-area).
func (f *Fig12Result) Headline() (p Fig12Point, energySaving, areaSaving float64, err error) {
	p, ok := f.Point("cpc=8 4LB 2bus")
	if !ok {
		return Fig12Point{}, 0, 0, fmt.Errorf("experiments: headline point missing")
	}
	return p, 1 - p.Energy, 1 - p.Area, nil
}

// Table renders the figure.
func (f *Fig12Result) Table() *stats.Table {
	t := stats.NewTable("Fig 12: worker-cluster time / energy / area, normalized to baseline (amean)",
		"time", "energy", "area")
	for _, p := range f.Points {
		t.AddRow(p.Name, p.Time, p.Energy, p.Area)
	}
	return t
}
