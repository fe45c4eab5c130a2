package campaignd

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
)

// collectStream drains a merge stream, failing on any terminal error,
// and returns the results in plan order.
func collectStream(t *testing.T, ch <-chan experiments.PointResult, n int) []*core.Result {
	t.Helper()
	results := make([]*core.Result, 0, n)
	for pr := range ch {
		if pr.Err != nil {
			t.Fatalf("stream error at index %d: %v", pr.Index, pr.Err)
		}
		if pr.Index != len(results) {
			t.Fatalf("stream delivered index %d, want %d (plan order)", pr.Index, len(results))
		}
		results = append(results, pr.Result)
	}
	if len(results) != n {
		t.Fatalf("stream delivered %d results, want %d", len(results), n)
	}
	return results
}

// TestTwoWorkerCampaign is the distributed acceptance pin: two workers
// against one coordinator complete the campaign with zero duplicate
// simulations, and the merged stream equals a single-process run
// point for point.
func TestTwoWorkerCampaign(t *testing.T) {
	pts := testPoints()
	srv, hs, store := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Batch = 2 // force the workers to interleave leases
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	reports := make([]WorkerReport, 2)
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := Worker{URL: hs.URL, ID: "w" + string(rune('1'+i)), Parallelism: 2}
			rep, err := w.Run(ctx)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			reports[i] = rep
		}(i)
	}

	merged := collectStream(t, srv.Stream(ctx, 0), len(pts))
	wg.Wait()

	// Zero duplicate simulations: the workers' fresh simulations tile
	// the plan exactly, and every one was published exactly once.
	totalSims := reports[0].Simulations + reports[1].Simulations
	if totalSims != len(pts) {
		t.Fatalf("workers simulated %d points total, want %d (duplicates or misses)", totalSims, len(pts))
	}
	if st := srv.Stats(); st.Store.Writes != int64(len(pts)) {
		t.Fatalf("store writes = %d, want %d", st.Store.Writes, len(pts))
	}
	if got := reports[0].Points + reports[1].Points; got != len(pts) {
		t.Fatalf("workers completed %d points, want %d", got, len(pts))
	}

	// The merge is identical to simulating the same plan in one
	// process (results go through the store's JSON round trip, which
	// TestWarmStoreZeroSimulations pins as loss-free).
	direct, err := testRunner(t).Plan(pts...).RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, merged) {
		t.Fatal("distributed merge differs from single-process campaign")
	}

	// The campaign is durable: a fresh runner over the same store
	// resolves everything without simulating.
	warm := testRunner(t)
	warm.SetStore(store)
	if _, err := warm.Plan(pts...).RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if warm.Simulations() != 0 {
		t.Fatalf("store left %d points unsimulated", warm.Simulations())
	}
}

// TestCrashedWorkerRecovery kills a worker mid-campaign (it leases a
// batch and never heartbeats) and verifies the campaign still
// completes: the dead lease expires and a live worker steals the
// points, without losing or double-counting any design point.
func TestCrashedWorkerRecovery(t *testing.T) {
	pts := testPoints()
	srv, hs, _ := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Batch = 2
		cfg.TTL = 300 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The "crashed" worker: claims the first batch, then disappears —
	// no heartbeat, no completion, no simulation.
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := client.Lease(ctx, "crasher", 0, detailed)
	if err != nil {
		t.Fatal(err)
	}
	if len(grant.Points) != 2 {
		t.Fatalf("crasher leased %d points, want 2", len(grant.Points))
	}

	// The survivor polls, trips the expiry sweep, and steals the batch.
	w := Worker{URL: hs.URL, ID: "survivor", Parallelism: 2}
	rep, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	merged := collectStream(t, srv.Stream(ctx, 0), len(pts))
	for i, res := range merged {
		if res == nil {
			t.Fatalf("point %d lost", i)
		}
	}
	st := srv.Stats()
	if st.Dispatch.Done != len(pts) {
		t.Fatalf("dispatch done = %d, want %d", st.Dispatch.Done, len(pts))
	}
	if st.Dispatch.ExpiredLeases == 0 {
		t.Fatal("campaign completed without expiring the crashed worker's lease")
	}
	if rep.Points != len(pts) {
		t.Fatalf("survivor completed %d points, want all %d", rep.Points, len(pts))
	}

	// No double counting: the stream emitted each point exactly once
	// (collectStream pins plan order and count), and every stored
	// result matches an independent simulation.
	direct, err := testRunner(t).Plan(pts...).RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, merged) {
		t.Fatal("post-recovery merge differs from single-process campaign")
	}
}

// TestWorkerJoinsBeforeFirstCampaign: a worker that connects to a
// coordinator before any campaign exists keeps polling instead of
// taking the empty queue for a finished one, and completes the
// campaign enqueued after it joined, exiting once the coordinator is
// sealed behind it.
func TestWorkerJoinsBeforeFirstCampaign(t *testing.T) {
	srv, _, _ := testServer(t, nil, func(cfg *ServerConfig) {
		cfg.TTL = 250 * time.Millisecond // 50 ms lease polls
	})
	var polls atomic.Int32
	h := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lease" {
			polls.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type outcome struct {
		rep WorkerReport
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		w := Worker{URL: hs.URL, ID: "early", Parallelism: 2}
		rep, err := w.Run(ctx)
		ran <- outcome{rep, err}
	}()
	// Several polls of the empty queue, with the worker still running.
	for polls.Load() < 3 {
		select {
		case o := <-ran:
			t.Fatalf("worker exited before any campaign was enqueued: %d points, err %v", o.rep.Points, o.err)
		case <-time.After(10 * time.Millisecond):
		}
	}

	pts := testPoints()
	if _, err := srv.Enqueue("late", pts, testRows(pts), sweep.Shape{}); err != nil {
		t.Fatal(err)
	}
	srv.Seal()
	o := <-ran
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.rep.Points != len(pts) {
		t.Fatalf("worker completed %d points, want %d", o.rep.Points, len(pts))
	}
	if st := srv.Stats(); st.Dispatch.Done != len(pts) {
		t.Fatalf("dispatch done = %d, want %d", st.Dispatch.Done, len(pts))
	}
}

// putGate is a ResponseWriter that runs first, once, just before the
// first 2xx answer to a store-plane PUT leaves the coordinator.
type putGate struct {
	http.ResponseWriter
	first func()
}

func (g putGate) WriteHeader(code int) {
	if code < 300 {
		g.first()
	}
	g.ResponseWriter.WriteHeader(code)
}

// TestCoordinatorRestartMidCampaign kills a coordinator mid-campaign
// with a worker attached and starts a new one on the same store
// directory and address. The worker, never restarted, rides out the
// outage on its retries and finishes the campaign on the new
// coordinator, which resumes from the point already durable: its
// merged CSV is byte-identical to the single-process sweep, and the
// two coordinators together wrote at most one batch more than the
// plan.
func TestCoordinatorRestartMidCampaign(t *testing.T) {
	sp := sweep.Space{
		Benches: []string{"FT", "UA"},
		CPCs:    []int{2, 8}, SizesKB: []int{16}, LineBuffers: []int{4}, Buses: []int{1},
	}
	want, _ := localSweepCSV(t, sp)
	dir := t.TempDir()
	const batch = 1
	// coordinator enqueues the space's campaign on a fresh coordinator
	// over dir and seals it, as a one-shot campaignd does.
	coordinator := func() (*Server, int, int) {
		t.Helper()
		store, err := runstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		runner := testRunner(t)
		runner.SetStore(store)
		srv, err := New(ServerConfig{Runner: runner, Store: store, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		plan, rows := sp.Build(runner)
		id, err := srv.Enqueue("restart", plan.Points(), rows, sweep.Shape{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Seal()
		return srv, id, plan.Len()
	}

	// Coordinator A goes down the moment its first result is durable:
	// every later request blocks until A is killed, so A stores
	// exactly one point and the worker sees only dropped connections.
	a, _, points := coordinator()
	durable, killed := make(chan struct{}), make(chan struct{})
	var down atomic.Bool
	inner := a.Handler()
	srvA := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			<-killed
			http.Error(w, "coordinator killed", http.StatusServiceUnavailable)
			return
		}
		if r.Method == http.MethodPut {
			w = putGate{w, func() {
				if down.CompareAndSwap(false, true) {
					close(durable)
				}
			}}
		}
		inner.ServeHTTP(w, r)
	})}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lnA.Addr().String()
	go srvA.Serve(lnA)
	kill := sync.OnceFunc(func() {
		close(killed)
		srvA.Close()
	})
	defer kill()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type outcome struct {
		rep WorkerReport
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		w := Worker{URL: "http://" + addr, ID: "survivor", Parallelism: 1,
			poll: 10 * time.Millisecond, leaseRetry: 20 * time.Millisecond, putBackoff: 20 * time.Millisecond}
		rep, err := w.Run(ctx)
		ran <- outcome{rep, err}
	}()

	select {
	case <-durable:
	case o := <-ran:
		t.Fatalf("worker exited before any result was durable: %+v, err %v", o.rep, o.err)
	}
	// Coordinator B re-enqueues the same plan over the same store before
	// A dies, so the outage is only the close-to-listen gap.
	b, id, _ := coordinator()
	if done := b.Stats().Dispatch.Done; done != 1 {
		t.Fatalf("restarted coordinator resumed %d durable points, want 1", done)
	}
	kill()
	lnB, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srvB := &http.Server{Handler: b.Handler()}
	go srvB.Serve(lnB)
	defer srvB.Close()

	o := <-ran
	if o.err != nil {
		t.Fatalf("worker did not finish on the restarted coordinator: %v", o.err)
	}
	var got bytes.Buffer
	if err := b.WriteCSV(ctx, &got, id); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("CSV after the restart differs from the single-process sweep:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	aw, bw := a.Stats().Store.Writes, b.Stats().Store.Writes
	if aw != 1 || aw+bw < int64(points) || aw+bw > int64(points+batch) {
		t.Fatalf("store writes: %d before the restart + %d after, want 1 + between %d and %d",
			aw, bw, points-1, points-1+batch)
	}
}
