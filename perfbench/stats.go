package main

import (
	"math"
	"sort"
)

// Summary describes one sample set the way the benchmark reports every
// timing: median, quartiles and the highest percentile that still has
// at least tailMin samples beyond it, with the sample count.
type Summary struct {
	N                   int
	Min, Q1, Median, Q3 float64
	Max                 float64
	TailPct             float64 // the percentile Tail reports; 100 means the maximum
	Tail                float64
	Mean                float64
}

// tailMin is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMin = 10

// Summarize computes the summary of xs (which it does not modify).
// Quartiles follow Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), the rule the benchmark's spread checks use.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	for _, x := range v {
		s.Mean += x
	}
	s.Mean /= float64(len(v))
	s.Median = quantile(v, 0.5)
	if len(v) >= 2 {
		s.Q1, s.Q3 = exclusiveQuantile(v, 1), exclusiveQuantile(v, 3)
	} else {
		s.Q1, s.Q3 = v[0], v[0]
	}
	// Too few samples for any percentile to have tailMin beyond it:
	// the tail is the maximum.
	s.TailPct, s.Tail = 100, s.Max
	if p := TailPercentile(len(v), 99); p > 0 {
		s.TailPct = p
		s.Tail = quantile(v, p/100)
	}
	return s
}

// TailPercentile returns the highest whole percentile, at most max,
// that leaves at least tailMin of n samples strictly beyond it: for
// percentile p that is n*(100-p)/100 >= tailMin. It returns 0 when not
// even the median qualifies.
func TailPercentile(n int, max float64) float64 {
	for p := math.Floor(max); p >= 50; p-- {
		if float64(n)*(100-p)/100 >= tailMin {
			return p
		}
	}
	return 0
}

// quantile is the linear-interpolation quantile of sorted v at q in
// [0,1] (numpy's default, Python's "inclusive" method).
func quantile(v []float64, q float64) float64 {
	if len(v) == 1 {
		return v[0]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

// exclusiveQuantile is cut point k of statistics.quantiles(v, n=4)
// with the default exclusive method, for sorted v with len(v) >= 2.
func exclusiveQuantile(v []float64, k int) float64 {
	m := len(v) + 1
	j := min(max(k*m/4, 1), len(v)-1)
	delta := float64(k*m - j*4)
	return (v[j-1]*(4-delta) + v[j]*delta) / 4
}

// Spread is the interquartile distance as a share of the median, the
// steadiness figure the benchmark's bounds are checked against.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
