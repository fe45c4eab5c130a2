// Package stats renders the experiment harness's figures: Table holds
// one row per benchmark (or design point) and one column per series,
// and prints as aligned text, CSV, JSON or an ASCII bar chart. Mean is
// the arithmetic mean the figures' summary rows use.
package stats

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
