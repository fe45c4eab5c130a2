package sweep

import (
	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
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
