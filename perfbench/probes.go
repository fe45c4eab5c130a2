package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"sharedicache"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
)

// fig7Probes re-executes every point of the traced Fig 7 round through
// the root package's public calls — NewWorkload, WarmLines,
// NewSimulator, Prewarm, Run — timing each call, and checks that every
// result deep-equals the Runner's.
func (l *layers) fig7Probes(ctx context.Context, e *env) error {
	rd := l.fig7
	if rd == nil {
		return fmt.Errorf("fig7 probes: no traced round")
	}
	ctx, span := e.tr.Start(ctx, "probe.fig7")
	defer span.End()
	opts := rd.c.runner.Options()
	pts := rd.c.plan.Points()

	type timing struct{ workload, warm, prewarm, run time.Duration }
	times := make([]timing, len(pts))
	errs := make([]error, len(pts))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pt := pts[i]
				var t timing
				p, ok := sharedicache.ProfileByName(pt.Bench)
				if !ok {
					errs[i] = fmt.Errorf("unknown benchmark %q", pt.Bench)
					continue
				}
				_, s := e.tr.Start(ctx, "probe.synth.workload")
				start := time.Now()
				wl, err := sharedicache.NewWorkload(p, sharedicache.WorkloadConfig{
					Workers: opts.Workers, MasterInstructions: opts.Instructions, Seed: opts.Seed,
				})
				t.workload = time.Since(start)
				s.End()
				if err != nil {
					errs[i] = err
					continue
				}
				_, s = e.tr.Start(ctx, "probe.synth.warmlines")
				start = time.Now()
				ic := make([][]uint64, wl.NumThreads())
				l2 := make([][]uint64, wl.NumThreads())
				for th := range ic {
					ic[th] = wl.WarmLines(th, pt.Cfg.ICache.LineBytes)
					l2[th] = wl.L2WarmLines(th, pt.Cfg.Mem.L2.LineBytes)
				}
				t.warm = time.Since(start)
				s.End()
				sim, err := sharedicache.NewSimulator(pt.Cfg, wl.Sources())
				if err != nil {
					errs[i] = err
					continue
				}
				_, s = e.tr.Start(ctx, "probe.core.prewarm")
				start = time.Now()
				sim.Prewarm(ic, l2)
				t.prewarm = time.Since(start)
				s.End()
				_, s = e.tr.Start(ctx, "probe.core.run")
				start = time.Now()
				res, err := sim.Run()
				t.run = time.Since(start)
				s.End()
				if err != nil {
					errs[i] = err
					continue
				}
				if !reflect.DeepEqual(res, rd.results[i]) {
					errs[i] = errProbeMismatch
				}
				times[i] = t
			}
		}()
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()

	var wlMS, warmMS, preMS []float64
	var runS, cycles float64
	for i, t := range times {
		if errors.Is(errs[i], errProbeMismatch) {
			l.gate("fig7 probe: %s point %d differs from the Runner's result", pts[i].Bench, i)
			continue
		}
		if errs[i] != nil {
			return fmt.Errorf("fig7 probe: %w", errs[i])
		}
		wlMS = append(wlMS, ms(t.workload))
		warmMS = append(warmMS, ms(t.warm))
		preMS = append(preMS, ms(t.prewarm))
		runS += t.run.Seconds()
		cycles += float64(rd.results[i].Cycles)
	}
	l.set("synth.workload_ms", Summarize(wlMS).Median)
	l.set("synth.warmlines_ms", Summarize(warmMS).Median)
	l.set("core.prewarm_ms", Summarize(preMS).Median)
	l.set("core.run_s", runS)
	l.set("core.cycles_per_s", cycles/runS)
	return nil
}

var errProbeMismatch = errors.New("probe result differs from the Runner's")

// triageProbes times the run store's public calls on the traced
// triage round's own results: Encode, Compress, Decode, and the
// Space.Build and CSV rendering of the triage space.
func (l *layers) triageProbes(e *env) error {
	rd, b := l.triage, l.triageSpec
	if rd == nil {
		return fmt.Errorf("triage probes: no traced round")
	}
	_, span := e.tr.Start(context.Background(), "probe.runstore")
	var enc, gz, dec, size []float64
	pts := rd.c.plan.Points()
	for i, res := range rd.results {
		k := rd.c.runner.PointKey(pts[i])
		start := time.Now()
		raw, err := runstore.Encode(k, res)
		enc = append(enc, us(time.Since(start)))
		if err != nil {
			span.End()
			return err
		}
		start = time.Now()
		packed := runstore.Compress(raw)
		gz = append(gz, us(time.Since(start)))
		size = append(size, float64(len(packed)))
		start = time.Now()
		back, ok := runstore.Decode(raw, k)
		dec = append(dec, us(time.Since(start)))
		if !ok || !reflect.DeepEqual(back, res) {
			l.gate("runstore probe: point %d does not round-trip through Encode/Decode", i)
		}
	}
	span.End()
	l.set("runstore.encode_us", Summarize(enc).Median)
	l.set("runstore.gzip_us", Summarize(gz).Median)
	l.set("runstore.decode_us", Summarize(dec).Median)
	l.set("runstore.entry_bytes", Summarize(size).Mean)

	var build, render []float64
	for k := 0; k < 5; k++ {
		r, err := experiments.NewRunner(b.opts)
		if err != nil {
			return err
		}
		start := time.Now()
		c := b.build(r, e.seed, e.round)
		build = append(build, ms(time.Since(start)))
		start = time.Now()
		if _, err := b.renderCSV(filepath.Join(e.scratch, "probe.csv"), c.rows, rd.results); err != nil {
			return err
		}
		render = append(render, ms(time.Since(start)))
	}
	os.Remove(filepath.Join(e.scratch, "probe.csv"))
	l.set("sweep.build_ms", Summarize(build).Median)
	l.set("sweep.csv_ms", Summarize(render).Median)
	return nil
}
