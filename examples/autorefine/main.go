// Autorefine: the two-phase triage-then-refine campaign end to end,
// against a temporary run store. Pass one calibrates the analytical
// backend on a small golden slice of the space (running both
// backends); the full space then runs analytically with the
// corrections applied, the top-K points re-run on the cycle-level
// detailed backend, and the merged CSV streams to stdout with phase
// and backend columns. Pass two repeats the campaign against the warm
// store and proves — with the engine's own counters — that the fit is
// recomputed from store hits and nothing re-simulates.
//
// This is the library face of `sweep -refine -refine-top K`; see
// docs/REFINE.md for the full workflow.
//
// Run with:
//
//	go run ./examples/autorefine [-store DIR] [-n 40000] [-top 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"sharedicache"
)

func main() {
	dir := flag.String("store", "", "run-store directory (default: a temp dir)")
	n := flag.Uint64("n", 40_000, "master instruction budget per design point")
	top := flag.Int("top", 4, "frontier size: the K best points by time_ratio")
	flag.Parse()

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "runstore-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	ctx := context.Background()

	space := sharedicache.DesignSpace{
		Benches:     []string{"UA", "FT", "LULESH"},
		CPCs:        []int{2, 4, 8},
		SizesKB:     []int{16, 32},
		LineBuffers: []int{4},
		Buses:       []int{1, 2},
	}

	for pass := 1; pass <= 2; pass++ {
		opts := sharedicache.DefaultExperimentOptions()
		opts.Instructions = *n
		opts.Benchmarks = space.Benches
		runner, err := sharedicache.NewRunner(opts)
		if err != nil {
			log.Fatal(err)
		}
		store, err := sharedicache.OpenRunStore(*dir)
		if err != nil {
			log.Fatal(err)
		}
		runner.SetStore(store)

		fmt.Fprintf(os.Stderr, "== pass %d\n", pass)
		res, err := sharedicache.PrepareRefine(ctx, sharedicache.RefineConfig{
			Space:    space,
			Runner:   runner,
			Selector: sharedicache.TopKSelector{K: *top},
			Log:      os.Stderr,
		})
		if err != nil {
			log.Fatal(err)
		}
		if pass == 1 {
			fmt.Fprintf(os.Stderr, "calibration: time_ratio rmse %.4f, energy_ratio rmse %.4f over %d golden rows\n",
				res.Calibration.TimeRatio.RMSE, res.Calibration.EnergyRatio.RMSE, res.GoldenRows)
		} else if res.GoldenDetailedSims != 0 {
			log.Fatal("pass 2 should have refitted the calibration from store hits")
		}

		// Execute the mixed plan. The analytical triage already ran
		// inside PrepareRefine, so only the frontier's detailed points
		// (and their baselines) simulate here.
		csvw := sharedicache.NewSweepCSV(os.Stdout, opts.Workers)
		csvw.IncludePhaseColumn()
		csvw.IncludeBackendColumn()
		csvw.SetAdjust(res.Adjust)
		if pass == 1 {
			if err := csvw.Header(); err != nil {
				log.Fatal(err)
			}
			ch, err := res.Plan.RunAllStream(ctx)
			if err != nil {
				log.Fatal(err)
			}
			if err := csvw.EmitStream(ch, res.Rows, res.Plan.Len()); err != nil {
				log.Fatal(err)
			}
			if err := csvw.Flush(); err != nil {
				log.Fatal(err)
			}
		} else {
			// The warm pass only proves the counters; the CSV would be
			// byte-identical to pass 1.
			if _, err := res.Plan.RunAll(ctx); err != nil {
				log.Fatal(err)
			}
		}
		by := runner.BackendRuns()
		fmt.Fprintf(os.Stderr, "pass %d: %d detailed simulations (calibration %d), %d analytical, frontier %d of %d rows\n",
			pass, by["detailed"], res.GoldenDetailedSims, by["analytical"], res.FrontierRows, res.TriageRows)
		if pass == 2 && by["detailed"]+by["analytical"] != 0 {
			log.Fatal("warm pass re-simulated; the store is broken")
		}
	}
	fmt.Fprintln(os.Stderr, "warm pass: zero simulations — the fit's inputs and every result came from the store")
}
