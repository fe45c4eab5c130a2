package refine

import (
	"math"
	"testing"

	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestFitOLSGolden pins the fit on exact synthetic data: points on the
// line y = 2x + 1 must recover a=2, b=1 with zero residual.
func TestFitOLSGolden(t *testing.T) {
	xs := []float64{0.5, 1.0, 1.5, 2.0, 3.0}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1
	}
	f := FitOLS(xs, ys)
	if !almost(f.A, 2, 1e-12) || !almost(f.B, 1, 1e-12) || !almost(f.RMSE, 0, 1e-12) {
		t.Fatalf("FitOLS = %+v, want a=2 b=1 rmse=0", f)
	}
	if f.N != len(xs) {
		t.Fatalf("N = %d, want %d", f.N, len(xs))
	}
}

// TestFitOLSNoisy pins the closed-form OLS solution on a small
// hand-computed noisy set, with its residual.
func TestFitOLSNoisy(t *testing.T) {
	// xs mean 2, ys = x + noise {+0.1, -0.1, +0.1, -0.1}:
	// symmetric noise cancels in the slope: a=1, b=0.
	xs := []float64{1, 3, 1, 3}
	ys := []float64{1.1, 2.9, 1.1, 2.9}
	f := FitOLS(xs, ys)
	if !almost(f.A, 0.9, 1e-12) || !almost(f.B, 0.2, 1e-12) {
		// cov = Σ(x-2)(y-2) = (-1)(-0.9)*2 + (1)(0.9)*2 = 3.6;
		// var = 4; a = 0.9; b = 2 - 0.9*2 = 0.2.
		t.Fatalf("FitOLS = %+v, want a=0.9 b=0.2", f)
	}
	// Residuals: y - (0.9x + 0.2) = ±0 — the four points sit on two
	// coincident pairs, so the line passes through both: rmse = 0.
	if !almost(f.RMSE, 0, 1e-12) {
		t.Fatalf("RMSE = %g, want 0", f.RMSE)
	}
}

// TestFitOLSResidualBound checks RMSE reports genuine scatter and the
// fit stays within it.
func TestFitOLSResidualBound(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1.2, 1.9, 3.3, 3.8}
	f := FitOLS(xs, ys)
	if f.RMSE <= 0 || f.RMSE > 0.5 {
		t.Fatalf("RMSE = %g, want a small positive residual", f.RMSE)
	}
	var sse float64
	for i := range xs {
		r := ys[i] - (f.A*xs[i] + f.B)
		sse += r * r
	}
	if !almost(f.RMSE, math.Sqrt(sse/float64(len(xs))), 1e-12) {
		t.Fatal("RMSE does not match the recomputed residual")
	}
}

// TestFitOLSDegenerate covers the guard rails: empty input, one point,
// zero x-variance.
func TestFitOLSDegenerate(t *testing.T) {
	if f := FitOLS(nil, nil); f.A != 1 || f.B != 0 || f.N != 0 {
		t.Fatalf("empty fit = %+v, want identity", f)
	}
	if f := FitOLS([]float64{2}, []float64{3}); f.A != 1 || !almost(f.B, 1, 1e-12) {
		t.Fatalf("one-point fit = %+v, want a=1 b=1", f)
	}
	f := FitOLS([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.A != 1 || !almost(f.B, 0, 1e-12) {
		t.Fatalf("zero-variance fit = %+v, want a=1 b=0", f)
	}
}

func TestFitApplyClampsNegative(t *testing.T) {
	f := Fit{A: 1, B: -10}
	if got := f.Apply(1); got != 0 {
		t.Fatalf("Apply = %g, want 0 (ratios cannot be negative)", got)
	}
}

func TestZeroFitIsIdentity(t *testing.T) {
	var f Fit
	if got := f.Apply(1.23); got != 1.23 {
		t.Fatalf("zero Fit.Apply = %g, want identity", got)
	}
	var c Calibration
	m := sweep.Metrics{TimeRatio: 1.1, EnergyRatio: 0.9}
	c.Apply(&m)
	if m.TimeRatio != 1.1 || m.EnergyRatio != 0.9 {
		t.Fatalf("zero Calibration.Apply = %+v, want untouched", m)
	}
}

func TestCalibrationApplyTouchesOnlyFittedMetrics(t *testing.T) {
	c := Calibration{
		TimeRatio:   Fit{A: 2, B: 0.5},
		EnergyRatio: Fit{A: 1, B: -0.1},
	}
	m := sweep.Metrics{TimeRatio: 1, EnergyRatio: 1, WorkerMPKI: 7, AreaRatio: 0.9}
	c.Apply(&m)
	if !almost(m.TimeRatio, 2.5, 1e-12) || !almost(m.EnergyRatio, 0.9, 1e-12) {
		t.Fatalf("Apply = %+v", m)
	}
	if m.WorkerMPKI != 7 || m.AreaRatio != 0.9 {
		t.Fatal("Apply touched metrics it has no fit for")
	}
}

// newTestRunner builds a runner at throwaway fidelity.
func newTestRunner(t *testing.T, seed uint64) *experiments.Runner {
	t.Helper()
	opts := experiments.DefaultOptions()
	opts.Instructions = 20_000
	opts.Seed = seed
	opts.Benchmarks = []string{"FT"}
	r, err := experiments.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
