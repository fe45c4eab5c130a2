package campaignd

import (
	"context"
	"fmt"

	"sharedicache/internal/experiments"
)

// Stream delivers campaign id's results over a channel in plan order,
// as soon as each point (and every point before it) has been published
// to the store — the distributed counterpart of Plan.RunAllStream,
// with the same contract: the channel is always closed, results arrive
// in plan order with campaign-local indexes, and a stream that does
// not complete (an unknown id, a cancelled ctx, a result lost from the
// store) always ends with a final PointResult whose Err is set, so a
// consumer cannot mistake a truncated merge for a finished one.
//
// The coordinator itself never simulates: every result is resolved
// from the store after the dispatch plane marks its point done.
func (s *Server) Stream(ctx context.Context, id int) <-chan experiments.PointResult {
	out := make(chan experiments.PointResult)
	go func() {
		defer close(out)
		c, ok := s.campaign(id)
		if !ok {
			out <- experiments.PointResult{Err: fmt.Errorf("campaignd: unknown campaign %d", id)}
			return
		}
		for i, pt := range c.points {
			select {
			case <-s.d.Done(c.base + i):
			case <-ctx.Done():
				out <- experiments.PointResult{Index: i, Point: pt, Err: ctx.Err()}
				return
			}
			res, ok := s.runner.Lookup(pt)
			if !ok {
				// A done point's entry has vanished or rotted on disk —
				// someone GC'd or corrupted the store mid-campaign.
				out <- experiments.PointResult{Index: i, Point: pt, Err: fmt.Errorf(
					"campaignd: store lost the result for %s on %s/cpc=%d",
					pt.Bench, pt.Cfg.Organization, pt.Cfg.CPC)}
				return
			}
			select {
			case out <- experiments.PointResult{Index: i, Point: pt, Result: res}:
			case <-ctx.Done():
				out <- experiments.PointResult{Index: i, Point: pt, Err: ctx.Err()}
				return
			}
		}
	}()
	return out
}
