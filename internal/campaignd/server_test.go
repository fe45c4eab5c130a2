package campaignd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
)

// testOptions is the small campaign every campaignd test runs.
func testOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Instructions = 20_000
	opts.CharInstructions = 200_000
	opts.Benchmarks = []string{"FT", "UA"}
	return opts
}

func testRunner(t testing.TB) *experiments.Runner {
	t.Helper()
	r, err := experiments.NewRunner(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testServer stands up a coordinator over a fresh store. A non-nil
// plan is enqueued as campaign 0, with the rows testRows derives.
func testServer(t testing.TB, points []experiments.Point, mutate func(*ServerConfig)) (*Server, *httptest.Server, *runstore.Store) {
	t.Helper()
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner := testRunner(t)
	runner.SetStore(store)
	cfg := ServerConfig{Runner: runner, Store: store}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if points != nil {
		if _, err := srv.Enqueue("test", points, testRows(points), sweep.Shape{}); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs, store
}

func sharedCfg(cpc, sizeKB, buses int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Organization = core.OrgWorkerShared
	cfg.CPC = cpc
	cfg.ICache.SizeBytes = sizeKB << 10
	cfg.Buses = buses
	return cfg
}

// testPoints is a 6-point campaign: per benchmark a baseline and two
// shared organisations.
func testPoints() []experiments.Point {
	var pts []experiments.Point
	for _, b := range []string{"FT", "UA"} {
		pts = append(pts,
			experiments.Point{Bench: b, Cfg: core.DefaultConfig()},
			experiments.Point{Bench: b, Cfg: sharedCfg(8, 16, 2)},
			experiments.Point{Bench: b, Cfg: sharedCfg(2, 32, 1)},
		)
	}
	return pts
}

// testRows derives a hand-built plan's CSV rows: each shared point
// against the latest private baseline of its benchmark.
func testRows(points []experiments.Point) []sweep.Row {
	base := map[string]int{}
	var rows []sweep.Row
	for i, pt := range points {
		cfg := pt.Cfg
		if cfg.Organization != core.OrgWorkerShared {
			base[pt.Bench] = i
			continue
		}
		rows = append(rows, sweep.Row{
			Bench: pt.Bench, CPC: cfg.CPC, KB: cfg.ICache.SizeBytes >> 10, LB: cfg.LineBuffers, Bus: cfg.Buses,
			BaseIdx: base[pt.Bench], PointIdx: i,
		})
	}
	return rows
}

// fakeKey builds a store key without running anything.
func fakeKey(i int) runstore.Key {
	cfg := core.DefaultConfig()
	cfg.CPC = 1 << (i % 4)
	return runstore.Key{
		Bench:    "FT",
		Config:   cfg,
		Prewarm:  true,
		Campaign: runstore.Fingerprint{Workers: 8, Instructions: 20_000, Seed: 1, CharInstructions: 200_000},
	}
}

func fakeResult(i int) *core.Result {
	return &core.Result{Config: core.DefaultConfig(), Cycles: uint64(1000 + i)}
}

// TestStorePlaneRoundTrip pins the network store plane end to end:
// publish, resolve, miss on absence, and corruption-as-miss across the
// HTTP hop in both directions.
func TestStorePlaneRoundTrip(t *testing.T) {
	_, hs, store := testServer(t, nil, nil)
	rs, err := NewRemoteStore(context.Background(), hs.URL)
	if err != nil {
		t.Fatal(err)
	}

	k, res := fakeKey(1), fakeResult(1)
	if _, ok := rs.Get(k); ok {
		t.Fatal("Get hit on an empty store")
	}
	if err := rs.Put(k, res); err != nil {
		t.Fatal(err)
	}
	got, ok := rs.Get(k)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatal("remote round trip lost the result")
	}
	// The entry landed in the backing store under its content address.
	if direct, ok := store.Get(k); !ok || !reflect.DeepEqual(direct, res) {
		t.Fatal("server-side store missing the published entry")
	}

	// Corrupt the entry on disk: the server must refuse to serve it, so
	// the client sees a plain miss.
	path := filepath.Join(store.Dir(), k.Hex()+".json")
	if err := os.WriteFile(path, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.Get(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}

	// A PUT whose body does not verify against its address is rejected
	// and leaves no entry behind.
	wrong, err := runstore.Encode(fakeKey(2), fakeResult(2))
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, hs.URL+"/v1/run/"+k.Hex(), strings.NewReader(string(wrong)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mislabelled PUT got %s, want 400", resp.Status)
	}

	// Malformed content addresses are rejected outright.
	for _, bad := range []string{"zz", "../../etc/passwd", strings.Repeat("g", 64)} {
		resp, err := http.Get(hs.URL + "/v1/run/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("GET of malformed hash %q succeeded", bad)
		}
	}

	st := rs.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Misses == 0 {
		t.Fatalf("remote stats = %+v, want 1 write, 1 hit, >0 misses", st)
	}
}

// TestRemoteStoreDistrustsServer pins the client half of
// corruption-as-miss: a coordinator (or middlebox) answering 200 with
// garbage — or with a validly encoded entry for the wrong key — is a
// miss, never a hit and never an error.
func TestRemoteStoreDistrustsServer(t *testing.T) {
	mislabelled, err := runstore.Encode(fakeKey(2), fakeResult(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"garbled":     "{\"Version\":1,\"Key\":tr",
		"mislabelled": string(mislabelled),
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(body))
		}))
		rs, err := NewRemoteStore(context.Background(), hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rs.Get(fakeKey(1)); ok {
			t.Fatalf("untrustworthy %s response served as a hit", name)
		}
		if st := rs.Stats(); st.BadEntries != 1 || st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("%s: stats = %+v, want 1 bad, 1 miss", name, st)
		}
		hs.Close()
	}
}

// TestRemoteTiering is the distributed acceptance pin for the cache
// hierarchy: a campaign run through a RemoteStore simulates everything
// once, and a second runner against the same coordinator simulates
// nothing and gets identical results.
func TestRemoteTiering(t *testing.T) {
	_, hs, _ := testServer(t, nil, nil)
	ctx := context.Background()
	pts := testPoints()

	run := func() ([]*core.Result, *experiments.Runner) {
		rs, err := NewRemoteStore(context.Background(), hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		r := testRunner(t)
		r.SetStore(rs)
		results, err := r.Plan(pts...).RunAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return results, r
	}

	first, cold := run()
	if got, want := cold.Simulations(), len(pts); got != want {
		t.Fatalf("cold run simulated %d, want %d", got, want)
	}
	second, warm := run()
	if got := warm.Simulations(); got != 0 {
		t.Fatalf("warm run simulated %d, want 0 (remote tier missed)", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("remote store round trip changed results")
	}

	// And the remote tier is bit-identical to simulating locally.
	direct, err := testRunner(t).Plan(pts...).RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, second) {
		t.Fatal("remote-tier results differ from direct simulation")
	}
}

// TestServerResume pins warm-store resume: a campaign enqueued on a
// coordinator restarted over a store that already holds some of the
// plan marks those points done at once instead of re-dispatching them.
func TestServerResume(t *testing.T) {
	pts := testPoints()
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner := testRunner(t)
	runner.SetStore(store)
	// Simulate the first two points "in a previous life".
	if _, err := runner.Plan(pts[:2]...).RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	restarted := testRunner(t)
	restarted.SetStore(store)
	srv, err := New(ServerConfig{Runner: restarted, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Enqueue("resume", pts, testRows(pts), sweep.Shape{}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Dispatch.Done != 2 || st.Dispatch.Pending != len(pts)-2 {
		t.Fatalf("resumed dispatch stats = %+v, want 2 done / %d pending", st.Dispatch, len(pts)-2)
	}
}
