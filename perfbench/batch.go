package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

// timingStore wraps the on-disk run store the Runner writes through.
// It records when each result became durable (the end of a row's
// latency) and, in the traced run, how long each store call took and a
// span per call.
type timingStore struct {
	*runstore.Store
	tr *tracing.Tracer // nil outside the traced run

	mu      sync.Mutex
	durable map[string]time.Time // key hex -> when Put returned
	putUS   []float64
	getUS   []float64
	artPut  []float64
	artGet  []float64
}

func newTimingStore(st *runstore.Store, tr *tracing.Tracer) *timingStore {
	return &timingStore{Store: st, tr: tr, durable: map[string]time.Time{}}
}

func (s *timingStore) Get(k runstore.Key) (*core.Result, bool) {
	return s.GetCtx(context.Background(), k)
}

func (s *timingStore) Put(k runstore.Key, res *core.Result) error {
	return s.PutCtx(context.Background(), k, res)
}

// GetCtx and PutCtx make the shim an experiments.ContextResultStore, so
// its spans parent under the Runner's store.lookup/store.write spans.
func (s *timingStore) GetCtx(ctx context.Context, k runstore.Key) (*core.Result, bool) {
	if s.tr == nil {
		return s.Store.Get(k)
	}
	_, span := s.tr.Start(ctx, "runstore.get")
	start := time.Now()
	res, ok := s.Store.Get(k)
	d := time.Since(start)
	span.End()
	s.mu.Lock()
	s.getUS = append(s.getUS, us(d))
	s.mu.Unlock()
	return res, ok
}

func (s *timingStore) PutCtx(ctx context.Context, k runstore.Key, res *core.Result) error {
	_, span := s.tr.Start(ctx, "runstore.put")
	start := time.Now()
	err := s.Store.Put(k, res)
	now := time.Now()
	span.End()
	if err != nil {
		return err
	}
	hex := k.Hex()
	s.mu.Lock()
	if _, dup := s.durable[hex]; !dup {
		s.durable[hex] = now
	}
	if s.tr != nil {
		s.putUS = append(s.putUS, us(now.Sub(start)))
	}
	s.mu.Unlock()
	return nil
}

// PutArtifact and GetArtifact keep the Runner's simreport artifacts
// flowing through the shim (experiments.ArtifactStore), timed.
func (s *timingStore) PutArtifact(kind, fingerprint string, data []byte) error {
	start := time.Now()
	err := s.Store.PutArtifact(kind, fingerprint, data)
	s.mu.Lock()
	s.artPut = append(s.artPut, us(time.Since(start)))
	s.mu.Unlock()
	return err
}

func (s *timingStore) GetArtifact(kind, fingerprint string) ([]byte, bool) {
	start := time.Now()
	data, ok := s.Store.GetArtifact(kind, fingerprint)
	s.mu.Lock()
	s.artGet = append(s.artGet, us(time.Since(start)))
	s.mu.Unlock()
	return data, ok
}

func (s *timingStore) durableAt(hex string) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.durable[hex]
	return t, ok
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// batchSpec is one batch campaign shape: a design space, the options
// it runs under, and whether its CSV carries the backend column.
type batchSpec struct {
	space      sweep.Space
	opts       experiments.Options
	backendCol bool
	// setupBatch is how many back-to-back set-ups one set-up sample
	// averages: a Fig 7 set-up takes a few hundred microseconds, too
	// short to time one at a time on a noisy host.
	setupBatch int
}

// campaign is one built plan: the seed-ordered plan, its rows indexed
// into it, and the canonical (Space.Build) order of its points.
type campaign struct {
	runner *experiments.Runner
	plan   *experiments.Plan
	rows   []sweep.Row
	// canon[i] is the plan index of the i-th point in Space.Build order.
	canon []int
}

// build expands the space on r and reorders the plan by seed and round:
// every round of a run submits its points in an order of its own, so a
// run's row latencies cover several orders. The order a plan submits
// its points in is the workload's input: results and the CSV must not
// depend on it.
func (b batchSpec) build(r *experiments.Runner, seed, round uint64) *campaign {
	base, rows := b.space.Build(r)
	pts := base.Points()
	perm := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15+round)).Perm(len(pts))
	plan := r.Plan()
	canon := make([]int, len(pts))
	for _, old := range perm {
		canon[old] = plan.AddPoint(pts[old])
	}
	for i := range rows {
		rows[i].BaseIdx = canon[rows[i].BaseIdx]
		rows[i].PointIdx = canon[rows[i].PointIdx]
	}
	return &campaign{runner: r, plan: plan, rows: rows, canon: canon}
}

// renderCSV writes the merged CSV for rows over results (plan order) to
// path and returns its bytes.
func (b batchSpec) renderCSV(path string, rows []sweep.Row, results []*core.Result) ([]byte, error) {
	var buf bytes.Buffer
	c := sweep.NewCSV(&buf, b.opts.Workers)
	if b.backendCol {
		c.IncludeBackendColumn()
	}
	if err := c.Header(); err != nil {
		return nil, err
	}
	for _, m := range rows {
		if err := c.Row(m, results[m.BaseIdx], results[m.PointIdx]); err != nil {
			return nil, err
		}
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// round is what one cold campaign round measured.
type round struct {
	setups   []time.Duration // set-up samples
	campaign time.Duration
	reads    []time.Duration
	peakMB   float64 // RSS high-water mark over the round
	rowMS    []float64
	csv      []byte
	results  []*core.Result // plan order
	c        *campaign
	sims     map[string]int // write-pass simulations by backend
	readSims int
	store    *timingStore // the write pass's store shim
	gates    []string     // failed correctness gates
	// The traced run's handle on the write pass's Runner, and the last
	// read pass's store shim.
	reg       *layerRunner
	readStore *timingStore
}

// setup is the set-up a round times: open the empty store in dir, a
// fresh Runner over it and the seed-ordered plan. The directory itself
// is made beforehand, untimed: creating it is the host filesystem's
// cost, not the program's.
func (b batchSpec) setup(e *env, dir string) (*experiments.Runner, *timingStore, *campaign, error) {
	st, err := runstore.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	shim := newTimingStore(st, e.tr)
	r, err := experiments.NewRunner(b.opts)
	if err != nil {
		return nil, nil, nil, err
	}
	r.SetStore(shim)
	return r, shim, b.build(r, e.seed, e.round), nil
}

// runRound runs one cold round of a batch campaign: set up a fresh
// Runner over an empty on-disk store, run the plan to a merged CSV
// (the write pass), then re-render the CSV from the store with a fresh
// Runner reads times (the read pass). Between the reads it takes
// setups set-up samples on their own, so they spread over the whole
// run. The store directories are removed afterwards.
func (b batchSpec) runRound(ctx context.Context, e *env, tag string, reads, setups int) (*round, error) {
	dir := filepath.Join(e.scratch, "store-"+tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rd := &round{}

	flushDirty()
	resetPeakRSS()
	r, shim, c, err := b.setup(e, dir)
	if err != nil {
		return nil, err
	}
	rd.c = c
	rd.reg = e.lay.attach(r, e.tr)

	ctx, span := e.tr.Start(ctx, "campaign."+tag)
	t0 := time.Now()
	results, err := rd.c.plan.RunAll(ctx)
	if err != nil {
		span.End()
		return nil, err
	}
	_, csvSpan := e.tr.Start(ctx, "sweep.csv")
	rd.csv, err = b.renderCSV(filepath.Join(e.scratch, tag+".csv"), rd.c.rows, results)
	csvSpan.End()
	rd.campaign = time.Since(t0)
	span.End()
	if err != nil {
		return nil, err
	}
	rd.results, rd.store, rd.sims = results, shim, r.BackendRuns()
	for _, pt := range rd.c.plan.Points() {
		at, ok := shim.durableAt(r.PointKey(pt).Hex())
		if !ok {
			return nil, fmt.Errorf("%s: point %s never became durable", tag, pt.Bench)
		}
		rd.rowMS = append(rd.rowMS, ms(at.Sub(t0)))
	}

	flushDirty()
	for i := 0; i < max(reads, setups); i++ {
		if i < setups {
			d, err := b.timeSetup(e, fmt.Sprintf("%s-setup-%d", tag, i), max(1, b.setupBatch))
			if err != nil {
				return nil, err
			}
			rd.setups = append(rd.setups, d)
		}
		if i >= reads {
			continue
		}
		settle()
		t1 := time.Now()
		csv, r, err := b.readPass(ctx, e, dir, rd, filepath.Join(e.scratch, tag+"-read.csv"))
		if err != nil {
			return nil, err
		}
		rd.reads = append(rd.reads, time.Since(t1))
		rd.readSims += r.Simulations()
		if d := csvDiff(csv, rd.csv); d != "" {
			rd.gates = append(rd.gates, tag+": read-pass CSV differs from the write-pass CSV: "+d)
		}
	}
	rd.peakMB = peakRSSMB()
	return rd, nil
}

// timeSetup times n set-ups back to back, each in a directory of its
// own, and returns their mean.
func (b batchSpec) timeSetup(e *env, tag string, n int) (time.Duration, error) {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(e.scratch, fmt.Sprintf("store-%s-%d", tag, i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dirs[i])
	}
	settle()
	start := time.Now()
	for _, dir := range dirs {
		if _, _, _, err := b.setup(&env{seed: e.seed, round: e.round}, dir); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// readPass re-renders the round's CSV from the store in dir, as a
// repeated `sweep -store` run would: a fresh Runner over the freshly
// opened store runs the same plan, and every point must resolve from
// the store.
func (b batchSpec) readPass(ctx context.Context, e *env, dir string, rd *round, path string) ([]byte, *experiments.Runner, error) {
	ctx, span := e.tr.Start(ctx, "read.pass")
	defer span.End()
	st, err := runstore.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	r, err := experiments.NewRunner(b.opts)
	if err != nil {
		return nil, nil, err
	}
	rd.readStore = newTimingStore(st, e.tr)
	r.SetStore(rd.readStore)
	e.lay.attach(r, e.tr)
	c := b.build(r, e.seed, e.round)
	results, err := c.plan.RunAll(ctx)
	if err != nil {
		return nil, nil, err
	}
	_, csvSpan := e.tr.Start(ctx, "sweep.csv")
	csv, err := b.renderCSV(path, c.rows, results)
	csvSpan.End()
	return csv, r, err
}
