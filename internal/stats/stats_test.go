package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestMeanBasics(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almostEq(got, 2.5) {
		t.Fatalf("mean = %v", got)
	}
}

// Property: mean is bounded by min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= slices.Min(clean)-1e-6 && m <= slices.Max(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "a", "b")
	tb.AddRow("BT", 1.0, 0.51234)
	tb.AddRow("longbenchname", 1234567, 12.345)
	tb.AddStringRow("CG", "x", "y")
	out := tb.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "longbenchname") {
		t.Fatalf("table missing content:\n%s", out)
	}
	if !strings.Contains(out, "1234567") {
		t.Fatalf("large integer should render without decimals:\n%s", out)
	}
	if !strings.Contains(out, "0.512") {
		t.Fatalf("small float should render with 3 decimals:\n%s", out)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Every line of the body should have the same column alignment (no
	// ragged header): check header contains both column names in order.
	if strings.Index(out, "a") > strings.Index(out, "b") {
		t.Fatal("column order lost")
	}
}

func TestFormatFloatNaN(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow("r", math.NaN())
	if !strings.Contains(tb.String(), "-") {
		t.Fatal("NaN should render as dash")
	}
}
