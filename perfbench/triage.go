package main

import (
	"context"
	"fmt"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
)

// triageBudget matches cmd/sweep's default -n, so the write-pass CSV is
// what `sweep -backend analytical` prints for the same space.
const (
	triageBudget   = 80_000
	triageMinRound = 2
	// triageReads is how many read passes each round times, and
	// triageSetups how many set-ups on their own.
	triageReads  = 3
	triageSetups = 10
)

// triageBatch is the analytical triage space: all 24 benchmarks x cpc
// 2/4/8 x 8/16/32/64 KB x 1/2/4/8 line buffers x 1/2/4 buses — 3456
// rows plus 24 baselines, 3480 points.
func triageBatch(par int) batchSpec {
	space := sweep.Space{
		Benches:     synth.ProfileNames(),
		CPCs:        []int{2, 4, 8},
		SizesKB:     []int{8, 16, 32, 64},
		LineBuffers: []int{1, 2, 4, 8},
		Buses:       []int{1, 2, 4},
		Backend:     "analytical",
	}
	opts := experiments.DefaultOptions()
	opts.Benchmarks = space.Benches
	opts.Instructions = triageBudget
	opts.Parallelism = par
	return batchSpec{space: space, opts: opts, backendCol: true}
}

// runTriage runs cold rounds of the triage space: a write pass into an
// empty run store, then a read pass in which a fresh Runner re-renders
// the same CSV from that store with zero simulations.
func runTriage(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	b := triageBatch(e.nproc)
	var setups, writes, reads, peaks []float64
	var rows [][]float64
	var first []byte
	start := time.Now()
	for k := 0; untilDeadline(start, e.seconds, k, e.minRounds(triageMinRound)); k++ {
		rd, err := b.runRound(ctx, e.inRound(k), fmt.Sprintf("triage-%d", k), triageReads, triageSetups)
		if err != nil {
			return nil, err
		}
		out.attempted += rd.c.plan.Len()
		out.gates = append(out.gates, rd.gates...)
		setups = append(setups, seconds(rd.setups)...)
		writes = append(writes, rd.campaign.Seconds())
		reads = append(reads, seconds(rd.reads)...)
		peaks = append(peaks, rd.peakMB)
		rows = append(rows, rd.rowMS)
		if n := rd.sims["detailed"]; n != 0 {
			out.gate("triage round %d: write pass ran %d detailed simulations", k, n)
		}
		if rd.readSims != 0 {
			out.gate("triage round %d: read pass simulated %d points", k, rd.readSims)
		}
		if first == nil {
			first = rd.csv
		} else if d := csvDiff(rd.csv, first); d != "" {
			out.gate("triage round %d: CSV differs from round 0: %s", k, d)
		}
		e.lay.triageRound(rd, b, e)
	}
	out.put("setup_s", setups)
	out.put("campaign_s", writes)
	out.put("read_s", reads)
	out.put("peak_rss_mb", peaks)
	out.putRows(rows)
	return out, nil
}
