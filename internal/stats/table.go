package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table renders experiment output as an aligned text table, the
// harness's substitute for the paper's plots: one row per benchmark
// (or design point), one column per series.
type Table struct {
	Title   string
	Columns []string
	rows    []row
}

type row struct {
	label string
	cells []string
	// vals holds the numeric cell values for rows added with AddRow
	// (nil for preformatted rows); renderers use them for bar charts.
	vals []float64
}

// NewTable creates a table with the given title and column headers
// (the first column is the row label and needs no header entry).
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of float cells formatted with fmt %.3f-style
// precision suitable for normalised metrics.
func (t *Table) AddRow(label string, cells ...float64) {
	formatted := make([]string, len(cells))
	for i, c := range cells {
		formatted[i] = formatFloat(c)
	}
	t.rows = append(t.rows, row{
		label: label,
		cells: formatted,
		vals:  append([]float64(nil), cells...),
	})
}

// AddStringRow appends a row of preformatted cells.
func (t *Table) AddStringRow(label string, cells ...string) {
	t.rows = append(t.rows, row{label: label, cells: cells})
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// formatFloat picks a precision that keeps small ratios readable and
// large counts compact.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e15 && math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	// Column widths.
	labelW := len("benchmark")
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r.cells {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	// Header.
	fmt.Fprintf(&b, "%-*s", labelW, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[i], c)
	}
	b.WriteByte('\n')
	// Rows.
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW, r.label)
		for i, c := range r.cells {
			w := len(c)
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "  %*s", w, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
