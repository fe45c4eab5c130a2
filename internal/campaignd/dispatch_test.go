package campaignd

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
)

// fakeClock is a manually advanced clock for deterministic lease
// expiry tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// detailed is the backend list of a worker that registers only the
// default backend, which every synthetic point resolves to.
var detailed = []string{experiments.DefaultBackend}

// testDispatch builds a sealed queue over n synthetic points with
// distinct hashes, its metrics registered so stats can read them.
func testDispatch(n int, ttl time.Duration, batch int, clk *fakeClock) *dispatch {
	points := make([]experiments.Point, n)
	hashes := make([]string, n)
	backends := make([]string, n)
	for i := range points {
		points[i] = experiments.Point{Bench: fmt.Sprintf("B%d", i)}
		hashes[i] = fmt.Sprintf("hash-%d", i)
		backends[i] = experiments.DefaultBackend
	}
	d := newDispatch(ttl, batch, clk.now)
	if _, _, err := d.addCampaign(points, hashes, backends, nil); err != nil {
		panic(err)
	}
	d.registerMetrics(metrics.NewRegistry())
	d.seal()
	return d
}

// stored stands in for the store plane accepting the results of the
// given points of a testDispatch queue, which is what marks them done.
func stored(d *dispatch, indexes ...int) {
	for _, i := range indexes {
		d.completeHash(fmt.Sprintf("hash-%d", i))
	}
}

func mustLease(t *testing.T, d *dispatch, worker string, want []int) string {
	t.Helper()
	id, got, _, done := d.Lease(worker, 0, detailed)
	if done {
		t.Fatalf("%s: campaign reported done", worker)
	}
	if len(got) != len(want) {
		t.Fatalf("%s leased %v, want %v", worker, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s leased %v, want %v", worker, got, want)
		}
	}
	return id
}

// TestLeaseLifecycle walks the happy path: plan-order batches, no
// double-granting, stored results and completion, and the terminal
// all-done signal of a sealed queue.
func TestLeaseLifecycle(t *testing.T) {
	clk := newFakeClock()
	d := testDispatch(5, time.Minute, 2, clk)

	l1 := mustLease(t, d, "w1", []int{0, 1})
	l2 := mustLease(t, d, "w2", []int{2, 3})
	l3 := mustLease(t, d, "w1", []int{4})

	// Everything is leased: a further request gets nothing but must not
	// claim the campaign is over.
	if id, pts, _, done := d.Lease("w3", 0, detailed); id != "" || len(pts) != 0 || done {
		t.Fatalf("over-subscribed lease = (%q, %v, done=%v), want empty and not done", id, pts, done)
	}

	for _, c := range []struct {
		id      string
		indexes []int
	}{{l1, []int{0, 1}}, {l2, []int{2, 3}}, {l3, []int{4}}} {
		stored(d, c.indexes...)
		d.Complete(c.id)
	}
	if _, _, _, done := d.Lease("w1", 0, detailed); !done {
		t.Fatal("campaign not done after all points completed")
	}
	st := d.stats()
	if st.Done != 5 || st.Pending != 0 || st.Leased != 0 || st.Leases != 0 {
		t.Fatalf("final stats = %+v", st)
	}
	for i := 0; i < 5; i++ {
		select {
		case <-d.Done(i):
		default:
			t.Fatalf("point %d done latch not closed", i)
		}
	}
}

// TestLeaseExpiryStealing pins the work-stealing contract: a lease
// whose worker stops heartbeating expires, its unfinished points are
// re-leased to another worker, and a renewal attempt on the dead lease
// reports it gone.
func TestLeaseExpiryStealing(t *testing.T) {
	clk := newFakeClock()
	d := testDispatch(3, time.Minute, 2, clk)

	l1 := mustLease(t, d, "crasher", []int{0, 1})
	clk.advance(30 * time.Second)
	if !d.Renew(l1) {
		t.Fatal("half-way renewal refused")
	}

	// The renewal pushed the deadline out; the lease survives the
	// original deadline...
	clk.advance(45 * time.Second)
	if _, pts, _, _ := d.Lease("thief", 0, detailed); len(pts) != 1 || pts[0] != 2 {
		t.Fatalf("leased %v while the first lease is still live, want [2]", pts)
	}
	// ...but once the renewed deadline passes, the points are stolen in
	// plan order by the next lease request.
	clk.advance(16 * time.Second)
	l3 := mustLease(t, d, "thief", []int{0, 1})
	if d.Renew(l1) {
		t.Fatal("expired lease renewed")
	}
	if st := d.stats(); st.ExpiredLeases != 1 {
		t.Fatalf("ExpiredLeases = %d, want 1", st.ExpiredLeases)
	}

	// The crashed worker limps back and completes anyway. The call is
	// accepted but marks nothing, and leaves the thief's leases alone.
	// The thief's stored results then mark its points done.
	d.Complete(l1)
	if st := d.stats(); st.Done != 0 || st.Leased != 3 {
		t.Fatalf("after an expired lease's completion: %+v, want 0 done / 3 leased", st)
	}
	stored(d, 0, 1)
	d.Complete(l3)
	st := d.stats()
	if st.Done != 2 {
		t.Fatalf("Done = %d after completion, want 2", st.Done)
	}
}

// TestAdaptiveBatch pins the latency-derived batch sizing: with batch
// 0 the first lease hands out DefaultBatch points, and once completed
// leases establish a per-point latency, later leases are sized to fill
// about a third of the TTL — clamped to [1, maxAdaptiveBatch].
func TestAdaptiveBatch(t *testing.T) {
	clk := newFakeClock()
	ttl := time.Minute // adaptive target: ~20s of work per lease
	d := testDispatch(200, ttl, 0, clk)

	// No observations yet: the conservative default.
	id, pts, _, _ := d.Lease("w", 0, detailed)
	if len(pts) != DefaultBatch {
		t.Fatalf("first adaptive lease = %d points, want DefaultBatch %d", len(pts), DefaultBatch)
	}
	// The batch takes 2s/point; the EWMA should settle near that and
	// size the next lease at ~20s / 2s = 10 points.
	clk.advance(time.Duration(len(pts)) * 2 * time.Second)
	stored(d, pts...)
	d.Complete(id)
	if got := d.Batch(); got != 10 {
		t.Fatalf("adaptive batch after 2s/point = %d, want 10", got)
	}
	if _, pts, _, _ = d.Lease("w", 0, detailed); len(pts) != 10 {
		t.Fatalf("second adaptive lease = %d points, want 10", len(pts))
	}

	// stats surfaces the knobs for Server.Stats, and the registry shows
	// the live 10-point lease (snapshotted while the lease is live — the
	// fake clock is shared with the cases below).
	st := d.stats()
	if st.EffectiveBatch != 10 || st.MeanPointMillis == 0 {
		t.Fatalf("stats = batch %d / mean %dms, want 10 / nonzero", st.EffectiveBatch, st.MeanPointMillis)
	}
	snap := d.reg.Snapshot()
	live, _ := snap.Value("campaignd_leases_live")
	leased, _ := snap.Value("campaignd_points_leased")
	if live != 1 || leased != 10 {
		t.Fatalf("campaignd_leases_live = %v, campaignd_points_leased = %v; want the live 10-point lease (1, 10)", live, leased)
	}

	// Very slow points shrink the batch to the floor of 1...
	slow := testDispatch(50, ttl, 0, clk)
	id, pts, _, _ = slow.Lease("w", 0, detailed)
	clk.advance(time.Duration(len(pts)) * 2 * ttl)
	stored(slow, pts...)
	slow.Complete(id)
	if got := slow.Batch(); got != 1 {
		t.Fatalf("adaptive batch for slow points = %d, want 1", got)
	}

	// ...and near-instant points saturate at the cap.
	fast := testDispatch(5000, ttl, 0, clk)
	id, pts, _, _ = fast.Lease("w", 0, detailed)
	clk.advance(time.Millisecond)
	stored(fast, pts...)
	fast.Complete(id)
	if got := fast.Batch(); got != maxAdaptiveBatch {
		t.Fatalf("adaptive batch for fast points = %d, want cap %d", got, maxAdaptiveBatch)
	}

	// A fixed batch ignores observations entirely.
	fixed := testDispatch(50, ttl, 3, clk)
	id, pts, _, _ = fixed.Lease("w", 0, detailed)
	clk.advance(time.Hour)
	stored(fixed, pts...)
	fixed.Complete(id)
	if got := fixed.Batch(); got != 3 {
		t.Fatalf("fixed batch drifted to %d", got)
	}
}

// TestPartialCompleteReleasesRest pins the partial-completion
// contract: completing a lease whose results are only partly stored
// returns the rest to the queue immediately instead of leaving it
// leased to a lease that is gone until its TTL runs out, and the
// latency average counts only the stored points.
func TestPartialCompleteReleasesRest(t *testing.T) {
	clk := newFakeClock()
	d := testDispatch(4, time.Minute, 3, clk)
	id := mustLease(t, d, "w1", []int{0, 1, 2})
	stored(d, 0, 2)
	clk.advance(4 * time.Second)
	d.Complete(id)
	if d.pointSec != 2 {
		t.Fatalf("per-point latency = %vs, want 4s over the 2 stored points", d.pointSec)
	}
	st := d.stats()
	if st.Done != 2 || st.Pending != 2 || st.Leased != 0 || st.Leases != 0 {
		t.Fatalf("after partial complete: %+v, want 2 done / 2 pending / no leases", st)
	}
	// The released point is immediately leasable, in plan order.
	mustLease(t, d, "w2", []int{1, 3})
}

// TestLeaseFiltersByBackend pins lease-time backend filtering: a
// worker is granted only pending points on the backends it names, in
// plan order, never a point on another backend; an empty list gets
// nothing, and points no live worker can run stay pending and keep
// the sealed queue from reporting done.
func TestLeaseFiltersByBackend(t *testing.T) {
	clk := newFakeClock()
	points := make([]experiments.Point, 5)
	hashes := make([]string, 5)
	backends := []string{"detailed", "analytical", "quantum-sim", "detailed", "analytical"}
	for i := range points {
		points[i] = experiments.Point{Bench: fmt.Sprintf("B%d", i)}
		hashes[i] = fmt.Sprintf("hash-%d", i)
	}
	d := newDispatch(time.Minute, 8, clk.now)
	if _, _, err := d.addCampaign(points, hashes, backends, nil); err != nil {
		t.Fatal(err)
	}
	d.registerMetrics(metrics.NewRegistry())
	d.seal()

	for _, c := range []struct {
		worker string
		names  []string
		want   []int
	}{
		{"none", nil, nil},
		{"unknown", []string{"ghost-sim"}, nil},
		{"detailed", []string{"detailed"}, []int{0, 3}},
		{"both", []string{"analytical", "detailed", "ghost-sim"}, []int{1, 4}},
		{"again", []string{"detailed", "analytical"}, nil},
	} {
		id, got, _, done := d.Lease(c.worker, 0, c.names)
		if done || !slices.Equal(got, c.want) || (id == "") != (len(c.want) == 0) {
			t.Fatalf("%s leased %q %v done=%v, want %v", c.worker, id, got, done, c.want)
		}
		stored(d, got...)
		d.Complete(id)
	}
	if st := d.stats(); st.Done != 4 || st.Pending != 1 {
		t.Fatalf("stats = %+v, want 4 done and the quantum-sim point pending", st)
	}
	if _, got, _, done := d.Lease("quantum", 0, []string{"quantum-sim"}); !slices.Equal(got, []int{2}) || done {
		t.Fatalf("quantum worker leased %v done=%v, want [2]", got, done)
	}
}

// TestQueueWaitHistogram pins the scrape-plane twin of the "enqueue"
// trace spans: every granted point books its queue wait (time since it
// last became leasable) into campaignd_queue_wait_seconds, and a point
// returned to the queue restarts its wait from the return, not from
// campaign start.
func TestQueueWaitHistogram(t *testing.T) {
	clk := newFakeClock()
	d := testDispatch(4, time.Minute, 2, clk)
	reg := d.reg

	waits := func() (count float64, sum float64) {
		t.Helper()
		for _, f := range reg.Snapshot() {
			if f.Name == "campaignd_queue_wait_seconds" {
				if len(f.Series) != 1 {
					t.Fatalf("queue-wait histogram has %d series, want 1", len(f.Series))
				}
				return f.Series[0].Value, f.Series[0].Sum
			}
		}
		t.Fatal("campaignd_queue_wait_seconds not registered")
		return 0, 0
	}

	// Both granted points waited 3s since campaign start.
	clk.advance(3 * time.Second)
	id := mustLease(t, d, "w1", []int{0, 1})
	if count, sum := waits(); count != 2 || sum != 6 {
		t.Fatalf("after first lease: count %v sum %v, want 2 / 6s", count, sum)
	}

	// A Complete with nothing stored re-enqueues its points NOW: their
	// next grant books only the 5s since that Complete, not the 8s
	// since start.
	d.Complete(id)
	clk.advance(5 * time.Second)
	mustLease(t, d, "w2", []int{0, 1})
	if count, sum := waits(); count != 4 || sum != 16 {
		t.Fatalf("after re-lease: count %v sum %v, want 4 / 16s", count, sum)
	}
}

// TestCompleteValidation pins that a Complete naming no live lease is
// a no-op, and the store-plane completion path.
func TestCompleteValidation(t *testing.T) {
	clk := newFakeClock()
	d := testDispatch(2, time.Minute, 8, clk)
	d.Complete("nope")
	if st := d.stats(); st.Done != 0 || st.Pending != 2 {
		t.Fatalf("an unknown lease's Complete changed the queue: %+v", st)
	}

	// A store-plane PUT completes the point without any lease at all.
	d.completeHash("hash-1")
	if st := d.stats(); st.Done != 1 {
		t.Fatalf("Done = %d after completeHash, want 1", st.Done)
	}
	d.completeHash("hash-1") // idempotent
	d.completeHash("unknown-hash")
	if st := d.stats(); st.Done != 1 {
		t.Fatalf("Done = %d after redundant completeHash, want 1", st.Done)
	}
}
