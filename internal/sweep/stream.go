package sweep

import (
	"fmt"
	"io"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
)

// EmitStream renders the sweep CSV from a plan-order result stream,
// emitting each row the moment its design point (and, by plan
// construction, its baseline) has streamed past, and flushing after
// every delivery so rows reach the consumer while later points are
// still simulating. Both cmd/sweep (local campaigns) and
// cmd/campaignd (distributed merges) feed their streams through this
// one loop — the byte-identity between the two rests on it.
//
// planLen is the plan's point count; a terminal stream error (or a
// CSV write error) is returned after a best-effort flush.
func (c *CSV) EmitStream(ch <-chan experiments.PointResult, rows []Row, planLen int) error {
	results := make([]*core.Result, planLen)
	next := 0
	for pr := range ch {
		if pr.Err != nil {
			c.Flush()
			return pr.Err
		}
		results[pr.Index] = pr.Result
		for next < len(rows) && rows[next].PointIdx <= pr.Index {
			m := rows[next]
			if err := c.Row(m, results[m.BaseIdx], results[m.PointIdx]); err != nil {
				return err
			}
			next++
		}
		if err := c.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Maint runs the shared -storeop maintenance path of cmd/sweep and
// cmd/experiments against a local store: 'index' lists every
// trustworthy entry on stdout, 'gc' sweeps corrupt entries and
// orphaned temp files. prefix labels the stderr summary lines.
func Maint(st *runstore.Store, op, prefix string, stdout, stderr io.Writer) error {
	switch op {
	case "index":
		entries, err := st.Index()
		if err != nil {
			return err
		}
		for _, e := range entries {
			fmt.Fprintln(stdout, e)
		}
		fmt.Fprintf(stderr, "%s: %d entries in %s\n", prefix, len(entries), st.Dir())
	case "gc":
		removed, err := st.GC()
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: gc removed %d files from %s\n", prefix, removed, st.Dir())
	default:
		return fmt.Errorf("unknown -storeop %q (index, gc)", op)
	}
	return nil
}
