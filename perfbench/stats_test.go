package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // 10 samples beyond p99
		{999, 98},  // 9.99 beyond p99 is too few
		{1200, 99}, // capped at p99
		{208, 95},  // four Fig 7 rounds of 52 points
		{104, 90},
		{52, 80},
		{20, 50},
		{19, 0}, // not even the median has ten beyond it
		{0, 0},
	} {
		if got := TailPercentile(c.n, 99); got != c.want {
			t.Errorf("TailPercentile(%d, 99) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The quartiles must agree with Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spread checks are made with; the expected
// values below are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{0.5, 0.9, 0.7, 0.1, 0.3, 0.2, 0.8}, 0.2, 0.5, 0.8},
	} {
		s := Summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) {
			t.Errorf("Summarize(%v) quartiles = %v/%v/%v, want %v/%v/%v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	s := Summarize(xs)
	if s.N != 100 || s.TailPct != 90 || !near(s.Tail, 90.1) || s.Min != 1 || s.Max != 100 || !near(s.Median, 50.5) {
		t.Fatalf("Summarize(1..100) = %+v", s)
	}
	if xs[0] != 100 {
		t.Fatal("Summarize reordered its input")
	}
	if got := Summarize(xs[:5]); got.TailPct != 100 || got.Tail != 100 {
		t.Fatalf("five samples: tail %v at p%v, want their maximum", got.Tail, got.TailPct)
	}
	if sp := (Summary{Q1: 9, Median: 10, Q3: 12}).Spread(); !near(sp, 0.3) {
		t.Fatalf("Spread = %v, want 0.3", sp)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
