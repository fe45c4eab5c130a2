package campaignd

import (
	"context"
	"fmt"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
)

// Stream delivers campaign id's results over a channel in plan order,
// as soon as each point (and every point before it) has been published
// to the store — the distributed counterpart of Plan.RunAllStream,
// through the same experiments.Deliver loop and so with the same
// contract: the channel is always closed, results arrive in plan order
// with campaign-local indexes, and a stream that does not complete (an
// unknown id, a cancelled ctx, a result lost from the store) always
// ends with a final PointResult whose Err is set, so a consumer cannot
// mistake a truncated merge for a finished one.
//
// The coordinator itself never simulates: each point waits on its
// dispatch done latch, then resolves from the store.
func (s *Server) Stream(ctx context.Context, id int) <-chan experiments.PointResult {
	c, ok := s.campaign(id)
	if !ok {
		out := make(chan experiments.PointResult, 1)
		out <- experiments.PointResult{Err: fmt.Errorf("campaignd: unknown campaign %d", id)}
		close(out)
		return out
	}
	return experiments.Deliver(ctx, c.points, func(ctx context.Context, i int) (*core.Result, error) {
		select {
		case <-s.d.Done(c.base + i):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		pt := c.points[i]
		res, ok := s.runner.Lookup(pt)
		if !ok {
			// A done point's entry has vanished or rotted on disk —
			// someone GC'd or corrupted the store mid-campaign.
			return nil, fmt.Errorf("campaignd: store lost the result for %s on %s/cpc=%d",
				pt.Bench, pt.Cfg.Organization, pt.Cfg.CPC)
		}
		return res, nil
	}, nil)
}
