package campaignd

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/tracing"
)

// pointState is the dispatch lifecycle of one plan point.
type pointState int8

const (
	pointPending pointState = iota // waiting to be leased
	pointLeased                    // owned by a live (or not-yet-expired) lease
	pointDone                      // result published to the store
	pointHeld                      // declared by an open campaign, not yet arrived
)

// lease is one worker's claim on a batch of points. It is renewed by
// heartbeats; once deadline passes, any dispatch operation may expire
// it, returning its unfinished points to the queue for another worker
// to steal.
type lease struct {
	id       string
	deadline time.Time
	granted  time.Time
	indexes  []int
	// span is the lease's trace span (nil when tracing is off): opened
	// at grant, its context rides the X-Trace-Context response header
	// so the worker's batch spans parent under it, and it ends with an
	// outcome attribute when the lease completes or expires.
	span *tracing.ActiveSpan
}

// dispatch is the coordinator's work queue over the enqueued campaign
// plans. All methods are safe for concurrent use. Lease expiry is
// lazy: every mutating call first sweeps expired leases, so as long as
// any worker is polling for work, crashed workers' points flow back
// into the queue without a background janitor.
//
// The queue is multi-campaign: addCampaign appends a plan's points at
// any time (the worker protocol is unchanged — workers see one global
// point index space), campOf tracks ownership, and Lease draws each
// batch from a single campaign chosen round-robin, so one giant
// campaign cannot starve a later small one. Open-loop campaigns park
// points in the held state until markArrived releases them, which is
// how an open-loop client (Client.Arrive) submits work at the times it
// dictates. Once
// sealed, the queue admits no further campaign, and only then can a
// drained queue tell workers the work is over.
//
// batch == 0 selects adaptive batch sizing: the queue tracks an EWMA
// of the observed per-point completion latency (lease grant to lease
// completion, divided by the batch size) and hands out enough points
// to keep a worker busy for about a third of the lease TTL — long
// enough to amortise the lease round trip, short enough that a crash
// loses little work and heartbeats comfortably outpace the TTL.
type dispatch struct {
	ttl   time.Duration
	batch int
	now   func() time.Time

	mu sync.Mutex
	// points grows as campaigns are enqueued; every read goes through
	// d.mu because append may move the backing array under a reader.
	points  []experiments.Point
	state   []pointState
	done    []chan struct{} // done[i] closed when point i completes
	byHash  map[string][]int
	leases  map[string]*lease
	token   string // random lease-ID prefix: no stale ID from another coordinator names a lease here
	seq     int
	nDone   int
	sealed  bool  // no campaign may join; a drained queue is final
	expired int64 // leases expired so far (observability)
	// Lease-lifecycle counters (observability): granted counts Lease
	// grants, completed counts Completes of live leases.
	granted, completed int64
	// pointSec is the EWMA of observed seconds per completed point;
	// zero until the first lease completes.
	pointSec float64

	// Multi-campaign bookkeeping: campOf[i] is the campaign owning
	// point i, backendOf[i] the backend name its row resolves to (for
	// the per-backend gauges), nCamps the campaigns enqueued so far and
	// rr the fairness cursor Lease scans campaigns from.
	campOf    []int
	backendOf []string
	nCamps    int
	rr        int
	// reg, once registerMetrics ran, lets addCampaign register gauges
	// for backends that first appear in a later campaign;
	// knownBackends dedups those registrations.
	reg           *metrics.Registry
	knownBackends map[string]bool

	// tracer, when non-nil, records the dispatch-plane spans: a "lease"
	// span per grant and a completed "enqueue" span per granted point
	// covering its queue wait. enqueued[i] is when point i last became
	// leasable (campaign start, or its latest return to the queue).
	tracer   *tracing.Tracer
	enqueued []time.Time
	// queueWait, when metrics are registered, books each granted
	// point's queue wait as a /metrics histogram — the scrape-plane
	// twin of the "enqueue" trace spans, so operators without a trace
	// file still see queue latency.
	queueWait *metrics.Histogram
}

// Adaptive batch bounds and tuning.
const (
	maxAdaptiveBatch = 64
	// leaseFill is the fraction of the TTL an adaptive batch should
	// keep a worker busy for.
	leaseFill = 1.0 / 3
	// ewmaAlpha weights the newest per-point latency observation.
	ewmaAlpha = 0.3
)

// newDispatch builds an empty queue; campaigns join it through
// addCampaign.
func newDispatch(ttl time.Duration, batch int, now func() time.Time) *dispatch {
	return &dispatch{
		ttl:    ttl,
		batch:  batch,
		now:    now,
		byHash: map[string][]int{},
		leases: map[string]*lease{},
		token:  strconv.FormatUint(rand.Uint64(), 36),
	}
}

// ErrSealed refuses a campaign offered to a sealed coordinator.
var ErrSealed = errors.New("campaignd: coordinator is sealed against new campaigns")

// addCampaign appends one campaign's points to the queue and returns
// the campaign's index and the global index of its first point; a
// sealed queue refuses with ErrSealed.
// hashes[i] is point i's content address, which lets store-plane
// writes complete it, and backendOf[i] the backend name feeding the
// per-backend gauges. held[i] parks point i in the held state —
// open-loop campaigns declare their full plan up front but release
// rows only as the replayed trace arrives — and nil makes every point
// leasable immediately. Content addresses are global: a point whose hash
// another campaign already published completes on that campaign's
// store write, so overlapping campaigns never duplicate simulations.
func (d *dispatch) addCampaign(points []experiments.Point, hashes, backendOf []string, held []bool) (camp, base int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sealed {
		return 0, 0, ErrSealed
	}
	camp = d.nCamps
	d.nCamps++
	base = len(d.points)
	start := d.now()
	for i := range points {
		st := pointPending
		if held != nil && held[i] {
			st = pointHeld
		}
		d.points = append(d.points, points[i])
		d.state = append(d.state, st)
		d.done = append(d.done, make(chan struct{}))
		d.enqueued = append(d.enqueued, start)
		d.campOf = append(d.campOf, camp)
		d.backendOf = append(d.backendOf, backendOf[i])
		d.byHash[hashes[i]] = append(d.byHash[hashes[i]], base+i)
		if d.reg != nil {
			d.registerBackendLocked(backendOf[i])
		}
	}
	return camp, base, nil
}

// seal closes the queue to new campaigns.
func (d *dispatch) seal() {
	d.mu.Lock()
	d.sealed = true
	d.mu.Unlock()
}

// markArrived releases held points to the queue (held -> pending, as
// of now). Points already completed — deduplicated against another
// campaign's store write, or resumed from a warm store — stay done;
// their arrival is a no-op. Out-of-range indexes report an error.
func (d *dispatch) markArrived(indexes []int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, i := range indexes {
		if i < 0 || i >= len(d.points) {
			return fmt.Errorf("campaignd: point index %d out of range", i)
		}
	}
	now := d.now()
	for _, i := range indexes {
		if d.state[i] == pointHeld {
			d.state[i] = pointPending
			d.enqueued[i] = now
		}
	}
	return nil
}

// pointsAt copies the plan points at the given (already-validated)
// indexes. Reads go through the lock because addCampaign may move the
// backing array.
func (d *dispatch) pointsAt(indexes []int) []experiments.Point {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]experiments.Point, len(indexes))
	for k, i := range indexes {
		out[k] = d.points[i]
	}
	return out
}

// CampaignProgress is one campaign's point accounting.
type CampaignProgress struct {
	// Points is the campaign's plan size; Done counts results durably
	// in the store; Held counts declared-but-unarrived open-loop
	// points. The campaign is complete when Done == Points.
	Points, Done, Held int
}

// campaignProgress snapshots one campaign's accounting.
func (d *dispatch) campaignProgress(camp int) CampaignProgress {
	d.mu.Lock()
	defer d.mu.Unlock()
	var p CampaignProgress
	for i, c := range d.campOf {
		if c != camp {
			continue
		}
		p.Points++
		switch d.state[i] {
		case pointDone:
			p.Done++
		case pointHeld:
			p.Held++
		}
	}
	return p
}

// activeCampaignsLocked counts campaigns with incomplete points.
// Caller holds d.mu.
func (d *dispatch) activeCampaignsLocked() int {
	active := map[int]bool{}
	for i, c := range d.campOf {
		if d.state[i] != pointDone {
			active[c] = true
		}
	}
	return len(active)
}

// expireLocked returns every overdue lease's unfinished points to the
// queue. Caller holds d.mu.
func (d *dispatch) expireLocked() {
	now := d.now()
	for id, l := range d.leases {
		if now.Before(l.deadline) {
			continue
		}
		for _, i := range l.indexes {
			if d.state[i] == pointLeased {
				d.state[i] = pointPending
				d.enqueued[i] = now
			}
		}
		l.span.SetAttr("outcome", "expired") // nil-safe when tracing is off
		l.span.End()
		delete(d.leases, id)
		d.expired++
	}
}

// markDoneLocked completes point i (idempotently). Caller holds d.mu.
func (d *dispatch) markDoneLocked(i int) {
	if d.state[i] == pointDone {
		return
	}
	d.state[i] = pointDone
	d.nDone++
	close(d.done[i])
}

// completeHash marks every plan point stored under the given content
// address as done and returns the backend those points resolve to; ok
// is false when the hash names no plan point. The store plane calls it
// after each accepted PUT and each GET hit: a point is complete exactly
// when its result is durably in the store, which also lets a
// coordinator restarted over a warm store resume instead of
// re-dispatching finished work.
func (d *dispatch) completeHash(hash string) (backend string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, i := range d.byHash[hash] {
		d.markDoneLocked(i)
		backend, ok = d.backendOf[i], true
	}
	return backend, ok
}

// effectiveBatchLocked resolves the batch size for the next lease: the
// configured size, or — when configured adaptive (0) — a size derived
// from the observed mean point latency. Caller holds d.mu.
func (d *dispatch) effectiveBatchLocked() int {
	if d.batch > 0 {
		return d.batch
	}
	if d.pointSec <= 0 {
		return DefaultBatch
	}
	n := int(d.ttl.Seconds() * leaseFill / d.pointSec)
	if n < 1 {
		return 1
	}
	if n > maxAdaptiveBatch {
		return maxAdaptiveBatch
	}
	return n
}

// observeLocked folds one completed lease into the per-point latency
// EWMA. Caller holds d.mu.
func (d *dispatch) observeLocked(l *lease, completed int) {
	if l == nil || completed <= 0 || l.granted.IsZero() {
		return
	}
	obs := d.now().Sub(l.granted).Seconds() / float64(completed)
	if obs <= 0 {
		return
	}
	if d.pointSec == 0 {
		d.pointSec = obs
	} else {
		d.pointSec = (1-ewmaAlpha)*d.pointSec + ewmaAlpha*obs
	}
}

// Lease hands out up to max pending points whose backend is among
// backends, the names the worker registers (at most the configured or
// adaptive batch; max <= 0 means the full batch). A worker is never
// granted a point it cannot run, so none is ever handed back, and an
// empty list gets nothing. Each batch is drawn from a single campaign,
// chosen round-robin from the fairness cursor — FIFO within a campaign
// (plan order, so early rows stream out of the merge first), fair
// across live campaigns so one giant plan cannot starve a later small
// one; with one campaign this is exactly plan-order dispatch. It
// returns no points when nothing runnable is pending; allDone then
// distinguishes "poll again" from "the queue is sealed and every
// point is complete". An unsealed queue always answers "poll again",
// so a worker may join a serving coordinator ahead of any submission
// and outlive the campaigns enqueued so far.
func (d *dispatch) Lease(worker string, max int, backends []string) (id string, indexes []int, deadline time.Time, allDone bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	batch := d.effectiveBatchLocked()
	if max <= 0 || max > batch {
		max = batch
	}
	d.expireLocked()
	runs := make(map[string]bool, len(backends))
	for _, b := range backends {
		runs[b] = true
	}
	for off := 0; off < d.nCamps && len(indexes) == 0; off++ {
		camp := (d.rr + off) % d.nCamps
		for i := range d.state {
			if d.campOf[i] == camp && d.state[i] == pointPending && runs[d.backendOf[i]] {
				indexes = append(indexes, i)
				if len(indexes) == max {
					break
				}
			}
		}
		if len(indexes) > 0 {
			d.rr = (camp + 1) % d.nCamps
		}
	}
	if len(indexes) == 0 {
		return "", nil, time.Time{}, d.sealed && d.nDone == len(d.points)
	}
	d.seq++
	d.granted++
	id = fmt.Sprintf("%s-lease-%d", d.token, d.seq)
	now := d.now()
	deadline = now.Add(d.ttl)
	l := &lease{id: id, deadline: deadline, granted: now, indexes: indexes}
	if d.queueWait != nil {
		for _, i := range indexes {
			d.queueWait.Observe(now.Sub(d.enqueued[i]).Seconds())
		}
	}
	if d.tracer != nil {
		// The lease span roots this batch's timeline; each granted
		// point's queue wait is booked as a completed "enqueue" child.
		_, l.span = d.tracer.Start(context.Background(), "lease",
			tracing.A("lease", id),
			tracing.A("worker", worker),
			tracing.AInt("points", len(indexes)))
		for _, i := range indexes {
			d.tracer.Record("enqueue", l.span.Context(), d.enqueued[i], now,
				tracing.AInt("point", i),
				tracing.A("bench", d.points[i].Bench))
		}
	}
	for _, i := range indexes {
		d.state[i] = pointLeased
	}
	d.leases[id] = l
	return id, indexes, deadline, false
}

// LeaseContext returns the trace context of a live lease's span, so
// the HTTP plane can hand it to the worker in the X-Trace-Context
// response header; the zero SpanContext when the lease is gone or
// tracing is off.
func (d *dispatch) LeaseContext(id string) tracing.SpanContext {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.leases[id]; ok {
		return l.span.Context()
	}
	return tracing.SpanContext{}
}

// Renew extends a lease's deadline; it reports false when the lease
// has already expired (its points may be leased to someone else — the
// caller should abandon the batch).
func (d *dispatch) Renew(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	l, ok := d.leases[id]
	if !ok {
		return false
	}
	l.deadline = d.now().Add(d.ttl)
	return true
}

// Complete ends a live lease and returns its unfinished points to the
// queue as of this call. It marks nothing done: only the store plane
// does, when it accepts a point's PUT or answers a GET for it with a
// hit, so an unauthenticated Complete cannot mark a point done that
// has no result. Completing an unknown (expired) lease is a no-op.
// The adaptive batch's latency average counts the lease's points that
// are done by the time the Complete arrives.
func (d *dispatch) Complete(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l := d.leases[id]; l != nil {
		done := 0
		now := d.now()
		for _, i := range l.indexes {
			switch d.state[i] {
			case pointDone:
				done++
			case pointLeased:
				d.state[i] = pointPending
				d.enqueued[i] = now
			}
		}
		d.observeLocked(l, done)
		d.completed++
		l.span.SetAttr("completed", strconv.Itoa(done))
		l.span.SetAttr("outcome", "completed")
		l.span.End()
		delete(d.leases, id)
	}
	d.expireLocked()
}

// Done exposes point i's completion latch. The lock is for the slice
// header, which addCampaign may move; the latch itself never changes.
func (d *dispatch) Done(i int) <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.done[i]
}

// Batch reports the batch size the next lease would be granted at.
func (d *dispatch) Batch() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.effectiveBatchLocked()
}

// DispatchStats is the queue's part of Server.Stats: the dispatch
// counters GET /metrics exposes, read back as one in-process snapshot.
type DispatchStats struct {
	Points, Done, Leased, Pending int
	// Held counts declared-but-unarrived open-loop points; Campaigns
	// counts campaigns enqueued over the queue's lifetime and
	// ActiveCampaigns those with incomplete points.
	Held                       int
	Campaigns, ActiveCampaigns int
	Leases                     int
	ExpiredLeases              int64
	// GrantedLeases counts Lease grants, CompletedLeases Completes of
	// live leases.
	GrantedLeases, CompletedLeases int64
	// EffectiveBatch is the size the next lease would be granted at;
	// MeanPointMillis is the observed per-point latency EWMA feeding
	// adaptive batch sizing (0 until a lease completes).
	EffectiveBatch  int
	MeanPointMillis int64
}

// stats reads the queue's snapshot off the registry registerMetrics
// filled — the samples GET /metrics exposes, so the two cannot drift.
func (d *dispatch) stats() DispatchStats {
	snap := d.reg.Snapshot()
	intOf := func(name string) int64 {
		v, _ := snap.Value(name)
		return int64(v)
	}
	sumOf := func(name string) int {
		v, _ := snap.Sum(name)
		return int(v)
	}
	ewma, _ := snap.Value("campaignd_point_seconds_ewma")
	return DispatchStats{
		Points:          sumOf("campaignd_points"),
		Done:            sumOf("campaignd_points_done"),
		Leased:          int(intOf("campaignd_points_leased")),
		Pending:         int(intOf("campaignd_queue_pending")),
		Held:            int(intOf("campaignd_points_held")),
		Campaigns:       int(intOf("campaignd_campaigns_total")),
		ActiveCampaigns: int(intOf("campaignd_campaigns_active")),
		Leases:          int(intOf("campaignd_leases_live")),
		ExpiredLeases:   intOf("campaignd_leases_expired_total"),
		GrantedLeases:   intOf("campaignd_leases_granted_total"),
		CompletedLeases: intOf("campaignd_leases_completed_total"),
		EffectiveBatch:  int(intOf("campaignd_lease_batch")),
		MeanPointMillis: int64(ewma * 1000),
	}
}

// lockedRead wraps a read for func-backed instruments: take d.mu and
// sweep expired leases first, so a scrape of an idle coordinator
// reports crashed workers' leases as expired — never as live. (Safe
// at scrape time: the registry invokes callbacks without its own lock
// held.)
func (d *dispatch) lockedRead(read func() float64) func() float64 {
	return func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.expireLocked()
		return read()
	}
}

// registerBackendLocked registers the per-backend plan/done gauges the
// first time a backend name appears. The callbacks scan live dispatch
// state — not a snapshot — so campaigns enqueued after registration
// are folded into existing series automatically, and a backend that
// first appears in a later campaign gets its series the moment
// addCampaign sees it. Caller holds d.mu.
func (d *dispatch) registerBackendLocked(b string) {
	if d.knownBackends == nil {
		d.knownBackends = map[string]bool{}
	}
	if d.knownBackends[b] {
		return
	}
	d.knownBackends[b] = true
	count := func(match func(i int) bool) func() float64 {
		return d.lockedRead(func() float64 {
			n := 0
			for i := range d.backendOf {
				if match(i) {
					n++
				}
			}
			return float64(n)
		})
	}
	d.reg.GaugeFunc("campaignd_points", "plan points by simulation backend",
		count(func(i int) bool { return d.backendOf[i] == b }), metrics.L("backend", b))
	d.reg.GaugeFunc("campaignd_points_done", "plan points completed (result durably in the store) by backend",
		count(func(i int) bool { return d.backendOf[i] == b && d.state[i] == pointDone }),
		metrics.L("backend", b))
}

// registerMetrics exposes the queue on reg as func-backed instruments,
// so the dispatch state under d.mu stays the single source of truth.
// The per-backend plan/done gauges are what lets a scraper reconcile
// campaign progress against merged-CSV accounting; backends appearing
// in campaigns enqueued later register their series lazily.
func (d *dispatch) registerMetrics(reg *metrics.Registry) {
	d.mu.Lock()
	d.reg = reg
	d.queueWait = reg.Histogram("campaignd_queue_wait_seconds",
		"seconds a plan point waited in the queue before being leased", metrics.DurationBuckets)
	for _, b := range d.backendOf {
		d.registerBackendLocked(b)
	}
	d.mu.Unlock()
	locked := d.lockedRead
	countState := func(want pointState) func() float64 {
		return locked(func() float64 {
			n := 0
			for _, s := range d.state {
				if s == want {
					n++
				}
			}
			return float64(n)
		})
	}
	reg.GaugeFunc("campaignd_queue_pending", "plan points waiting to be leased", countState(pointPending))
	reg.GaugeFunc("campaignd_points_leased", "plan points owned by live leases", countState(pointLeased))
	reg.GaugeFunc("campaignd_points_held", "open-loop plan points declared but not yet arrived", countState(pointHeld))
	reg.GaugeFunc("campaignd_campaigns_active", "enqueued campaigns with incomplete points",
		locked(func() float64 { return float64(d.activeCampaignsLocked()) }))
	reg.GaugeFunc("campaignd_leases_live", "live (unexpired) leases",
		locked(func() float64 { return float64(len(d.leases)) }))
	reg.GaugeFunc("campaignd_lease_batch", "points the next lease would be granted",
		locked(func() float64 { return float64(d.effectiveBatchLocked()) }))
	reg.GaugeFunc("campaignd_point_seconds_ewma", "observed per-point completion latency EWMA feeding adaptive batch sizing",
		locked(func() float64 { return d.pointSec }))
	for _, c := range []struct {
		name, help string
		src        *int64
	}{
		{"campaignd_leases_granted_total", "leases granted to workers", &d.granted},
		{"campaignd_leases_completed_total", "leases completed by their worker", &d.completed},
		{"campaignd_leases_expired_total", "leases expired by TTL (points returned to the queue)", &d.expired},
	} {
		src := c.src
		reg.CounterFunc(c.name, c.help, locked(func() float64 { return float64(*src) }))
	}
	reg.CounterFunc("campaignd_campaigns_total", "campaigns enqueued over the coordinator's lifetime",
		locked(func() float64 { return float64(d.nCamps) }))
}
