package experiments

import (
	"context"
	"testing"
)

// TestFig2Fig9Correlation verifies the cross-figure observation the
// paper makes in §VI-B: "For almost all of the benchmarks where the
// average basic block length is small, the I-cache access ratio is
// also low (CG, IS, botsalgn, botsspar, CoSP). On the other side, when
// the basic blocks are long, almost all the accesses are to the
// I-cache (BT, LU, ilbdc and LULESH)."
func TestFig2Fig9Correlation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite correlation sweep")
	}
	opts := DefaultOptions()
	opts.Instructions = 40_000
	opts.CharInstructions = 400_000
	opts.Benchmarks = []string{
		"CG", "IS", "botsalgn", "botsspar", "CoSP", // short blocks
		"BT", "LU", "ilbdc", "LULESH", // long blocks
	}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := Fig2(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Fig9(context.Background(), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := map[string]float64{}
	for _, row := range fig2.Rows {
		bb[row.Benchmark] = row.ParallelBB
	}
	ar := map[string]float64{}
	for _, row := range fig9.Rows {
		ar[row.Benchmark] = row.LB8 // 8 line buffers separate the classes best
	}
	short := []string{"CG", "IS", "botsalgn", "botsspar", "CoSP"}
	long := []string{"BT", "LU", "ilbdc", "LULESH"}
	for _, s := range short {
		for _, l := range long {
			if bb[s] >= bb[l] {
				t.Errorf("basic blocks: %s (%.0f B) should be shorter than %s (%.0f B)",
					s, bb[s], l, bb[l])
			}
			if ar[s] >= ar[l] {
				t.Errorf("access ratio: %s (%.1f%%) should be below %s (%.1f%%)",
					s, ar[s], l, ar[l])
			}
		}
	}
	// The separation must be decisive, as in the paper's figure.
	for _, s := range short {
		if ar[s] > 40 {
			t.Errorf("%s access ratio %.1f%%, expected low (short blocks, hot loops fit buffers)", s, ar[s])
		}
	}
	for _, l := range long {
		if ar[l] < 60 {
			t.Errorf("%s access ratio %.1f%%, expected high (long blocks stream from the cache)", l, ar[l])
		}
	}
}
