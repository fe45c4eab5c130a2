package experiments

import (
	"cmp"
	"context"
	"math"

	"sharedicache/internal/core"
	"sharedicache/internal/stats"
)

// RowEmit receives rendered table rows as they complete, for drivers
// that display figures incrementally. The first call of a stream
// carries the column headers. A nil RowEmit is valid and ignored.
type RowEmit func(label string, cells ...string)

// PointResult is one streamed design-point outcome. Results are
// delivered in plan order; Err is set on at most one PointResult — the
// last one before the channel closes — and carries the campaign's
// first failure (or the context's cancellation error).
type PointResult struct {
	// Index is the point's position in the plan.
	Index int
	// Point is the design point itself.
	Point Point
	// Result is nil iff Err is non-nil.
	Result *core.Result
	// Err ends the stream: no further PointResults follow it.
	Err error
}

// RunAllStream executes the plan like RunAll but delivers results over
// a channel, in plan order, as soon as each point (and every point
// before it) has completed — so drivers can render rows or CSV lines
// while later design points are still simulating. Simulation fan-out
// is unchanged: at most Options.Parallelism points run concurrently
// and shared points are simulated once. The delivery contract is
// Deliver's; the channel closes only once the fan-out is over, so no
// point of the plan still executes after the last receive.
func (p *Plan) RunAllStream(ctx context.Context) <-chan PointResult {
	n := len(p.points)
	results := make([]*core.Result, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}

	// The fan-out goroutine settles done[i] per point; finished settles
	// planErr (happens-before via the close).
	var planErr error
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		planErr = fanOut(ctx, n, p.r.opts.parallelism(), func(ctx context.Context, i int) error {
			pt := p.points[i]
			prewarm := p.r.opts.Prewarm && !pt.Cold
			res, err := p.r.simulate(ctx, p.r.pointBackend(pt), pt.Bench, pt.Cfg, prewarm)
			if err != nil {
				return err
			}
			results[i] = res
			close(done[i])
			return nil
		})
	}()

	wait := func(_ context.Context, i int) (*core.Result, error) {
		select {
		case <-done[i]:
			return results[i], nil
		case <-finished:
		}
		// The fan-out is over. Unless point i raced the failure and
		// completed anyway, the campaign failed (or ctx died) before
		// reaching it.
		select {
		case <-done[i]:
			return results[i], nil
		default:
			return nil, cmp.Or(planErr, ctx.Err(), context.Canceled)
		}
	}
	return Deliver(ctx, p.points, wait, finished)
}

// Deliver is the plan-order delivery contract every result stream
// shares: Plan.RunAllStream and the campaign coordinator's merge. It
// sends each point's result in plan order, wait(ctx, i) blocking until
// point i's result is ready or returning why it never will be.
//
// The channel is always closed, and a stream that does not complete —
// a wait error or a cancelled ctx — always ends with one PointResult
// whose Err is set, so a consumer that ranges to the channel's close
// cannot mistake a truncated stream for a finished one. idle, when
// non-nil, closes once nothing of the plan is still executing; the
// channel closes only after it. The consumer must drain the channel
// (cancelling ctx to hurry it along is fine), otherwise the delivery
// goroutine leaks.
func Deliver(ctx context.Context, points []Point, wait func(ctx context.Context, i int) (*core.Result, error), idle <-chan struct{}) <-chan PointResult {
	out := make(chan PointResult)
	go func() {
		defer close(out)
		if idle != nil {
			defer func() { <-idle }()
		}
		for i, pt := range points {
			res, err := wait(ctx, i)
			if err == nil {
				select {
				case out <- PointResult{Index: i, Point: pt, Result: res}:
					continue
				case <-ctx.Done():
					err = ctx.Err()
				}
			}
			// The terminal error record is sent unconditionally: it is
			// the consumer's only signal that the stream is truncated, so
			// it must not be droppable by a racing ctx cancellation.
			out <- PointResult{Index: i, Point: pt, Err: err}
			return
		}
	}()
	return out
}

// eachBenchmark is the loop every simulated figure shares. It plans
// cfgs for each selected benchmark in plotting order, every point
// forced cold if cold is set, and calls add with the benchmark's
// profile and its len(cfgs) results, in cfgs order, as soon as they
// have all completed; add must not retain the slice. A non-nil emit
// receives the figure's own table as it grows: table's header first,
// then row k once benchmark k's add returns, and after the last
// benchmark whatever rows remain (a summary such as Fig 10's amean).
// table is called only for a non-nil emit. An add or stream error
// cancels the remaining work and is returned; either way the stream is
// drained before eachBenchmark returns.
func eachBenchmark(ctx context.Context, r *Runner, emit RowEmit, table func() *stats.Table, cold bool, cfgs []core.Config, add func(p profile, res []*core.Result) error) error {
	profiles := r.opts.profiles()
	plan := r.Plan()
	for _, p := range profiles {
		for _, cfg := range cfgs {
			plan.AddPoint(Point{Bench: p.Name, Cfg: cfg, Cold: cold})
		}
	}

	if emit != nil {
		emit("benchmark", table().Columns...)
	}
	shown := 0 // table rows emitted so far
	show := func(rows int) {
		if emit == nil {
			return
		}
		t := table()
		labels, cells := t.Labels(), t.Cells()
		for ; shown < min(rows, len(labels)); shown++ {
			emit(labels[shown], cells[shown]...)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := plan.RunAllStream(ctx)
	// On early return, cancel + drain release the delivery goroutine.
	defer func() {
		cancel()
		for range ch {
		}
	}()
	k := len(cfgs)
	res := make([]*core.Result, 0, k)
	for pr := range ch {
		if pr.Err != nil {
			return pr.Err
		}
		res = append(res, pr.Result)
		if len(res) < k {
			continue
		}
		done := pr.Index/k + 1
		if err := add(profiles[done-1], res); err != nil {
			return err
		}
		res = res[:0]
		show(done)
	}
	show(math.MaxInt)
	return nil
}
