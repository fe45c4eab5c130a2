package experiments

import (
	"context"
	"fmt"
	"sync"

	"sharedicache/internal/core"
	"sharedicache/internal/synth"
	"sharedicache/internal/tracing"
)

// Point is one design point of a campaign plan: a benchmark run on one
// ACMP configuration. Cold forces prewarming off for this point (the
// Fig 11 / Ext B miss-count runs); otherwise the campaign's Prewarm
// option applies. Backend overrides the campaign's Options.Backend for
// this point only (empty means the campaign default), so one campaign
// can mix analytical triage points with detailed frontier points; the
// override travels with the point through sharding and the distributed
// coordinator's wire format.
type Point struct {
	Bench   string
	Cfg     core.Config
	Cold    bool
	Backend string `json:",omitempty"`
}

// Plan is an ordered batch of design points. RunAll fans the points
// out across the campaign's Parallelism goroutines and returns the
// results in plan order; RunAllStream delivers them in that order as
// they complete. The simulated figures build theirs with eachBenchmark
// (stream.go): each benchmark's design points in the paper's plotting
// order.
type Plan struct {
	r      *Runner
	points []Point
}

// Plan starts a batch plan over the runner, seeded with any points
// given.
func (r *Runner) Plan(points ...Point) *Plan {
	return &Plan{r: r, points: points}
}

// AddPoint appends a fully specified design point — including a
// per-point backend override — and returns its result index.
func (p *Plan) AddPoint(pt Point) int {
	p.points = append(p.points, pt)
	return len(p.points) - 1
}

// Len reports how many points the plan holds.
func (p *Plan) Len() int { return len(p.points) }

// RunAll executes every point of the plan, at most Options.Parallelism
// simulations at a time, and returns the results in plan order. Points
// already in the run cache are free; points shared with a concurrently
// running plan are simulated once and the result shared. The first
// failing point cancels the remaining work and its error — carrying
// the benchmark and configuration — is returned. If ctx is cancelled,
// RunAll stops feeding work and returns the cancellation. It collects
// RunAllStream, so no point of the plan still executes once it
// returns.
func (p *Plan) RunAll(ctx context.Context) ([]*core.Result, error) {
	var err error
	results := make([]*core.Result, 0, len(p.points))
	for pr := range p.RunAllStream(ctx) {
		if pr.Err != nil {
			err = pr.Err
			continue
		}
		results = append(results, pr.Result)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunAll is Plan+RunAll in one call for ad-hoc batches.
func (r *Runner) RunAll(ctx context.Context, points ...Point) ([]*core.Result, error) {
	return r.Plan(points...).RunAll(ctx)
}

// forEachProfile runs fn once per selected profile, at most
// Options.Parallelism invocations at a time. It is the fan-out used by
// the trace-characterisation figures (2-4), whose work is walking
// traces rather than running cached simulations: fn fills a
// caller-indexed slot, keeping row order equal to plotting order. The
// first error cancels the remaining profiles and is returned wrapped
// with the benchmark name.
func forEachProfile(ctx context.Context, r *Runner, fn func(ctx context.Context, i int, p synth.Profile) error) error {
	profiles := r.opts.profiles()
	return fanOut(ctx, len(profiles), r.opts.parallelism(), func(ctx context.Context, i int) error {
		if err := fn(ctx, i, profiles[i]); err != nil {
			return fmt.Errorf("experiments: %s: %w", profiles[i].Name, err)
		}
		return nil
	})
}

// fanOut is the engine's worker pool: it feeds indexes 0..n-1 to at
// most the given number of goroutines, each running fn. The first
// error cancels the remaining work and is returned; a cancelled ctx
// stops the feed and surfaces ctx.Err().
func fanOut(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// Label the goroutine-pool slot so spans recorded under this
			// worker render on their own timeline row (Chrome-trace tid).
			ctx := tracing.WithSlot(ctx, slot)
			for i := range jobs {
				if err := fn(ctx, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
				}
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
