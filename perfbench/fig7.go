package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
)

// The Fig 7 space (Milic et al.): FT, UA, nab and CoEVP x cpc 2/4/8 x
// 16/32 KB x 4 line buffers x 1/2 buses — 48 rows plus 4 private
// baselines, 52 points.
var fig7Space = sweep.Space{
	Benches:     []string{"FT", "UA", "nab", "CoEVP"},
	CPCs:        []int{2, 4, 8},
	SizesKB:     []int{16, 32},
	LineBuffers: []int{4},
	Buses:       []int{1, 2},
}

const (
	// fig7Budget is the benchmark's master-instruction budget per point,
	// cmd/sweep's default -n.
	fig7Budget = 80_000
	// goldenBudget is the budget the repository's golden CSV was made at.
	goldenBudget = 20_000

	goldenCSV    = "cmd/sweep/testdata/fig7_detailed.golden.csv"
	fig7RefCSV   = "perfbench/testdata/fig7_n80000.csv"
	fig7RefSHA   = "perfbench/testdata/fig7_n80000.sha256"
	fig7MinRound = 2
	// fig7Reads is how many read passes each round times (one of 52
	// points takes about 10 ms), and fig7Setups how many set-up samples
	// of fig7SetupBatch set-ups.
	fig7Reads      = 60
	fig7Setups     = 10
	fig7SetupBatch = 50
)

func fig7Batch(budget uint64, par int) batchSpec {
	opts := experiments.DefaultOptions()
	opts.Benchmarks = fig7Space.Benches
	opts.Instructions = budget
	opts.Parallelism = par
	return batchSpec{space: fig7Space, opts: opts, setupBatch: fig7SetupBatch}
}

// runFig7 runs the Fig 7 space on the detailed backend, prewarmed, in
// cold rounds (fresh Runner, empty on-disk store) at Parallelism =
// nproc until the window has passed.
func runFig7(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	refCSV, err := os.ReadFile(filepath.Join(e.root, fig7RefCSV))
	if err != nil {
		return nil, err
	}
	refSHA, err := os.ReadFile(filepath.Join(e.root, fig7RefSHA))
	if err != nil {
		return nil, err
	}
	b := fig7Batch(fig7Budget, e.nproc)
	var setups, camps, reads, peaks []float64
	var rows [][]float64
	start := time.Now()
	for k := 0; untilDeadline(start, e.seconds, k, e.minRounds(fig7MinRound)); k++ {
		rd, err := b.runRound(ctx, e.inRound(k), fmt.Sprintf("fig7-%d", k), fig7Reads, fig7Setups)
		if err != nil {
			return nil, err
		}
		out.attempted += rd.c.plan.Len()
		out.gates = append(out.gates, rd.gates...)
		setups = append(setups, seconds(rd.setups)...)
		camps = append(camps, rd.campaign.Seconds())
		reads = append(reads, seconds(rd.reads)...)
		peaks = append(peaks, rd.peakMB)
		rows = append(rows, rd.rowMS)
		if d := csvDiff(rd.csv, refCSV); d != "" {
			out.gate("fig7 round %d: CSV differs from %s: %s", k, fig7RefCSV, d)
		}
		sum, err := resultDigest(rd)
		if err != nil {
			return nil, err
		}
		if want := strings.TrimSpace(string(refSHA)); sum != want {
			out.gate("fig7 round %d: result digest %s, want %s (%s)", k, sum, want, fig7RefSHA)
		}
		if rd.readSims != 0 {
			out.gate("fig7 round %d: read pass simulated %d points", k, rd.readSims)
		}
		e.lay.fig7Round(rd, e)
	}
	if err := goldenGate(ctx, e, out); err != nil {
		return nil, err
	}
	out.put("setup_s", setups)
	out.put("campaign_s", camps)
	out.put("read_s", reads)
	out.put("peak_rss_mb", peaks)
	out.putRows(rows)
	return out, nil
}

// resultDigest hashes every runstore.Encode'd result of a round in
// Space.Build order, so it is independent of the seed's plan order.
func resultDigest(rd *round) (string, error) {
	h := sha256.New()
	pts := rd.c.plan.Points()
	for _, i := range rd.c.canon {
		raw, err := runstore.Encode(rd.c.runner.PointKey(pts[i]), rd.results[i])
		if err != nil {
			return "", err
		}
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// goldenGate re-runs the Fig 7 space at the golden's budget and checks
// the CSV byte for byte against the repository's golden file.
func goldenGate(ctx context.Context, e *env, out *outcome) error {
	want, err := os.ReadFile(filepath.Join(e.root, goldenCSV))
	if err != nil {
		return err
	}
	b := fig7Batch(goldenBudget, e.nproc)
	r, err := experiments.NewRunner(b.opts)
	if err != nil {
		return err
	}
	plan, rows := b.space.Build(r)
	results, err := plan.RunAll(ctx)
	if err != nil {
		return err
	}
	got, err := b.renderCSV(filepath.Join(e.scratch, "fig7-golden.csv"), rows, results)
	if err != nil {
		return err
	}
	if d := csvDiff(got, want); d != "" {
		out.gate("fig7 at -n %d: CSV differs from %s: %s", goldenBudget, goldenCSV, d)
	}
	return nil
}
