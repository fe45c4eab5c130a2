package refine

import (
	"math"

	"sharedicache/internal/sweep"
)

// Fit is one metric's least-squares correction: the detailed backend's
// value is estimated from the analytical backend's as a·x + b. RMSE is
// the root-mean-square residual of the fit over the golden rows — the
// calibrated model's expected error on that metric — and N is how many
// golden rows the fit saw.
type Fit struct {
	A, B, RMSE float64
	N          int
}

// Apply corrects one analytical metric value. Ratios are non-negative
// by construction, so the affine correction is clamped at zero. The
// zero Fit — "no fit at all" — applies as the identity, so an
// uncalibrated Calibration passes metrics through instead of zeroing
// them.
func (f Fit) Apply(x float64) float64 {
	if f == (Fit{}) {
		return x
	}
	y := f.A*x + f.B
	if y < 0 || math.IsNaN(y) {
		return 0
	}
	return y
}

// identityFit is the no-op correction used when a fit is degenerate
// (fewer than two usable golden rows).
func identityFit(n int) Fit { return Fit{A: 1, N: n} }

// Calibration is the outcome of one calibration pass: per-metric
// corrections mapping the analytical backend's estimates onto the
// detailed backend's ground truth. It is never persisted. Prepare
// refits it every campaign from the golden plan's results, which a
// run store serves back as hits on a repeat campaign, so the fit is
// always derived from exactly the inputs the campaign would simulate.
type Calibration struct {
	// TimeRatio and EnergyRatio correct the two frontier-selection
	// metrics (the paper's speedup and energy axes).
	TimeRatio, EnergyRatio Fit
}

// Apply corrects one row's analytical metrics in place. Metrics
// without a fitted correction pass through untouched.
func (c *Calibration) Apply(m *sweep.Metrics) {
	m.TimeRatio = c.TimeRatio.Apply(m.TimeRatio)
	m.EnergyRatio = c.EnergyRatio.Apply(m.EnergyRatio)
}

// FitOLS computes the ordinary-least-squares line y = a·x + b through
// the points (xs[i], ys[i]), with the root-mean-square residual. With
// no points it returns the identity; with one point, a unit slope
// through it; with zero variance in x (a degenerate golden space), a
// unit-slope offset fit — never a division blow-up.
func FitOLS(xs, ys []float64) Fit {
	n := len(xs)
	if n == 0 {
		return identityFit(0)
	}
	if n == 1 {
		return Fit{A: 1, B: ys[0] - xs[0], N: 1}
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var varx, cov float64
	for i := range xs {
		dx := xs[i] - mx
		varx += dx * dx
		cov += dx * (ys[i] - my)
	}
	f := Fit{N: n}
	if varx < 1e-12 {
		f.A, f.B = 1, my-mx
	} else {
		f.A = cov / varx
		f.B = my - f.A*mx
	}
	var sse float64
	for i := range xs {
		r := ys[i] - (f.A*xs[i] + f.B)
		sse += r * r
	}
	f.RMSE = math.Sqrt(sse / float64(n))
	return f
}
