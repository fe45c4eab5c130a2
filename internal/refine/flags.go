package refine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
)

// Flags holds the auto-refine flags shared by cmd/sweep and
// cmd/campaignd, registered in one place for the same reason the
// design-space flags are (sweep.RegisterFlags): the two drivers must
// not drift, because a coordinator and a single-process sweep given
// identical flags must build identical refine plans.
type Flags struct {
	// Enable turns the two-phase pipeline on; naming any selector flag
	// implies it.
	Enable bool
	// TopK, Pareto and Band pick the frontier selector; at most one
	// may be set. With none, -refine defaults to the Pareto frontier.
	TopK   int
	Pareto bool
	Band   string
	// Metric is the CSV column -refine-top and -refine-band rank by.
	Metric string
	// Golden bounds the calibration golden space (shared points).
	Golden int
}

// RegisterFlags declares the auto-refine flags on fs and returns the
// destination struct, populated after fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Enable, "refine", false, "auto-refine: calibrate the analytical backend, triage the space with it, re-run the selected frontier detailed")
	fs.IntVar(&f.TopK, "refine-top", 0, "refine selector: the K (> 0) best points by -refine-metric (implies -refine)")
	fs.BoolVar(&f.Pareto, "refine-pareto", false, "refine selector: the Pareto frontier over (time_ratio, energy_ratio); the default (implies -refine)")
	fs.StringVar(&f.Band, "refine-band", "", "refine selector: points with -refine-metric in lo:hi, e.g. 0.9:1.05 (implies -refine)")
	fs.StringVar(&f.Metric, "refine-metric", "time_ratio", "CSV metric -refine-top and -refine-band rank by")
	fs.IntVar(&f.Golden, "refine-golden", DefaultGoldenMax, "calibration golden-space size (> 0; design points run on both backends)")
	return f
}

// Enabled reports whether any refine flag asked for the pipeline. A
// nonsensical -refine-top (negative) still counts as asking, so it
// reaches Selector's error instead of silently running a plain sweep.
func (f *Flags) Enabled() bool {
	return f.Enable || f.TopK != 0 || f.Pareto || f.Band != ""
}

// Selector resolves the flags to a frontier selector; it is also the
// drivers' shared validation gate for the whole refine flag set, so
// malformed values fail here with a flag-shaped error instead of
// surfacing (or silently degrading) deeper in the pipeline.
func (f *Flags) Selector() (Selector, error) {
	if f.TopK < 0 {
		return nil, fmt.Errorf("refine: -refine-top %d must be positive", f.TopK)
	}
	if f.Golden < 1 {
		// An explicit 0 is NOT "skip calibration" — Prepare would read
		// it as "use the default" and run the golden detailed points
		// anyway. Refuse it rather than surprise the user with cost.
		return nil, fmt.Errorf("refine: -refine-golden %d must be at least 1 (calibration always runs; a warm store makes it free)", f.Golden)
	}
	n := 0
	if f.TopK > 0 {
		n++
	}
	if f.Pareto {
		n++
	}
	if f.Band != "" {
		n++
	}
	if n > 1 {
		return nil, fmt.Errorf("refine: -refine-top, -refine-pareto and -refine-band are mutually exclusive")
	}
	if _, err := MetricValue(sweep.Metrics{}, f.Metric); err != nil {
		return nil, err
	}
	switch {
	case f.TopK > 0:
		return TopK{K: f.TopK, Metric: f.Metric}, nil
	case f.Band != "":
		lo, hi, err := parseBand(f.Band)
		if err != nil {
			return nil, err
		}
		return Band{Metric: f.Metric, Lo: lo, Hi: hi}, nil
	default:
		return Pareto{}, nil
	}
}

// Campaign is the campaign a driver's flags describe, declared on one
// runner: the plan, its CSV rows and the shape they render in.
type Campaign struct {
	Plan  *experiments.Plan
	Rows  []sweep.Row
	Shape sweep.Shape
	// Refine is the prepared auto-refine campaign; nil for a plain
	// sweep.
	Refine *Result
}

// Campaign declares on r the campaign sf and f describe: the plain
// design-space sweep, or with -refine the auto-refine mixed plan,
// whose calibration and triage phases it runs through Prepare (log
// receives their accounting lines). cmd/sweep executes the result
// locally and cmd/campaignd enqueues it, so a single-process sweep and
// a coordinator given the same flags build the same plan, rows and CSV
// shape.
func (f *Flags) Campaign(ctx context.Context, sf *sweep.Flags, r *experiments.Runner, log io.Writer) (Campaign, error) {
	space, err := sf.Space()
	if err != nil {
		return Campaign{}, err
	}
	if _, err := space.Rows(r.Options()); err != nil {
		return Campaign{}, err
	}
	if !f.Enabled() {
		plan, rows := space.Build(r)
		return Campaign{Plan: plan, Rows: rows, Shape: sweep.Shape{Backend: sf.Backend != ""}}, nil
	}
	if sf.Backend != "" {
		return Campaign{}, errors.New("-refine assigns backends per phase; drop -backend")
	}
	sel, err := f.Selector()
	if err != nil {
		return Campaign{}, err
	}
	res, err := Prepare(ctx, Config{Space: space, Runner: r, Selector: sel, GoldenMax: f.Golden, Log: log})
	if err != nil {
		return Campaign{}, err
	}
	return Campaign{Plan: res.Plan, Rows: res.Rows, Shape: res.Shape(), Refine: res}, nil
}

// parseBand parses the "lo:hi" band form.
func parseBand(s string) (lo, hi float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("refine: bad -refine-band %q (want lo:hi)", s)
	}
	if lo, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, fmt.Errorf("refine: bad -refine-band low bound %q", parts[0])
	}
	if hi, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 0, 0, fmt.Errorf("refine: bad -refine-band high bound %q", parts[1])
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("refine: -refine-band %q has lo > hi", s)
	}
	return lo, hi, nil
}
