package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
)

// TestSimReportE2E is the telemetry acceptance pin: a two-worker
// loopback campaign with a reporting coordinator collects exactly one
// report per dispatched point — built by the coordinator from each
// point's PUT, with the wall time the PUT carries, so workers need no
// flag of their own — every report satisfies cycle conservation on this
// all-detailed plan, and GET /v1/simstatsz serves the aggregate whose
// count agrees with the merged stream's point count.
func TestSimReportE2E(t *testing.T) {
	col := simreport.NewCollector()
	pts := testPoints()
	srv, hs, _ := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Batch = 2 // force the workers to interleave leases
		cfg.Reports = col
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := Worker{URL: hs.URL, ID: "w" + string(rune('1'+i)), Parallelism: 2}
			if _, err := w.Run(ctx); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	merged := collectStream(t, srv.Stream(ctx, 0), len(pts))
	wg.Wait()

	// One report per dispatched point, keyed to the coordinator's own
	// point hashes.
	if got := col.Len(); got != len(pts) {
		t.Fatalf("coordinator collected %d reports for %d dispatched points", got, len(pts))
	}
	wantKeys := map[string]bool{}
	runner := srv.runner
	for _, pt := range pts {
		wantKeys[runner.PointKey(pt).Hex()] = true
	}
	for _, rep := range col.Reports() {
		if !wantKeys[rep.Key] {
			t.Fatalf("pushed report keyed %s matches no plan point", rep.Key)
		}
		if rep.Backend != "detailed" {
			t.Fatalf("report backend = %q, want detailed", rep.Backend)
		}
		if rep.StackTotal() == 0 || rep.StackTotal() != rep.CoreCycles() {
			t.Fatalf("%s %s/cpc=%d: conservation violated over the wire: stack %d, core cycles %d",
				rep.Bench, rep.Org, rep.CPC, rep.StackTotal(), rep.CoreCycles())
		}
		if rep.Host.Replayed || rep.Host.WallSeconds <= 0 {
			t.Fatalf("worker-pushed report lost its host cost: %+v", rep.Host)
		}
	}

	// GET /v1/simstatsz serves the same aggregate as JSON; its report
	// count agrees with the merged stream (== the merged CSV row count).
	resp, err := http.Get(hs.URL + "/v1/simstatsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/simstatsz: %s", resp.Status)
	}
	var sum simreport.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("/v1/simstatsz is not valid Summary JSON: %v", err)
	}
	if sum.Reports != len(merged) {
		t.Fatalf("simstatsz reports = %d, merged stream delivered %d", sum.Reports, len(merged))
	}
	if sum.CoreCycles == 0 || sum.CoreCycles != sum.StackCycles {
		t.Fatalf("campaign totals %d/%d violate conservation", sum.CoreCycles, sum.StackCycles)
	}
	if len(sum.Backends) != 1 || sum.Backends[0].Backend != "detailed" {
		t.Fatalf("backend rollup = %+v", sum.Backends)
	}
	if sum.Backends[0].SimCyclesPerSecond.Count != len(pts) {
		t.Fatalf("rate distribution covers %d points, want %d",
			sum.Backends[0].SimCyclesPerSecond.Count, len(pts))
	}
	if len(sum.Groups) == 0 {
		t.Fatal("summary has no per-config groups")
	}

	// The client wrapper decodes the same endpoint.
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	viaClient, err := client.SimStatsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if viaClient.Reports != sum.Reports || viaClient.StackCycles != sum.StackCycles {
		t.Fatal("Client.SimStatsz disagrees with the raw endpoint")
	}
}

// TestSimReportWorkerLocalCollector pins that a worker's caller-owned
// collector (-report on the worker side) and the coordinator's summary
// are independent: the worker keeps a report per point it ran, and the
// coordinator still holds one per dispatched point, built from the
// worker's PUTs.
func TestSimReportWorkerLocalCollector(t *testing.T) {
	coord := simreport.NewCollector()
	pts := testPoints()
	srv, hs, _ := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Reports = coord
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	local := simreport.NewCollector()
	w := Worker{URL: hs.URL, ID: "solo", Parallelism: 2, Reports: local}
	var rep WorkerReport
	var wErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, wErr = w.Run(ctx)
	}()
	collectStream(t, srv.Stream(ctx, 0), len(pts))
	<-done
	if wErr != nil {
		t.Fatal(wErr)
	}
	if rep.Points != len(pts) || local.Len() != len(pts) {
		t.Fatalf("local collector holds %d reports, worker completed %d points, want %d",
			local.Len(), rep.Points, len(pts))
	}
	if coord.Len() != len(pts) {
		t.Fatalf("coordinator holds %d reports, want %d", coord.Len(), len(pts))
	}
}

// TestSimReportFromStoredEntry pins the coordinator's one derivation
// path: every report it serves equals simreport.FromResult over the
// store entry of its key, and differs only in the host cost the PUT
// carried.
func TestSimReportFromStoredEntry(t *testing.T) {
	col := simreport.NewCollector()
	pts := testPoints()[:3] // one benchmark's baseline and shared points
	srv, hs, store := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Reports = col
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := Worker{URL: hs.URL, ID: "solo", Parallelism: 2}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}

	byKey := map[string]simreport.Report{}
	for _, r := range col.Reports() {
		byKey[r.Key] = r
	}
	if len(byKey) != len(pts) {
		t.Fatalf("coordinator holds %d reports, want %d", len(byKey), len(pts))
	}
	opts := srv.runner.Options()
	for _, pt := range pts {
		key := srv.runner.PointKey(pt)
		res, ok := store.Get(key)
		if !ok {
			t.Fatalf("%s: no store entry", pt.Bench)
		}
		got, ok := byKey[key.Hex()]
		if !ok {
			t.Fatalf("no report for stored key %s", key.Hex())
		}
		if got.Host.Replayed || got.Host.WallSeconds <= 0 {
			t.Fatalf("report lost the PUT's wall time: %+v", got.Host)
		}
		got.Host = simreport.HostCost{}
		want := simreport.FromResult(key.Hex(), pt.Bench, opts.PointBackend(pt), key.Prewarm, res)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("report for %s differs from FromResult over its store entry:\n got %+v\nwant %+v", key.Hex(), got, want)
		}
	}
}

// TestPutWallHeader pins the X-Wall-Seconds contract of
// PUT /v1/run/{hash}: a value that is not a finite number >= 0 is a 400
// that writes nothing; a valid one becomes the report's host cost; a
// missing one gives a Replayed report; and a PUT naming no campaign
// point gives no report at all.
func TestPutWallHeader(t *testing.T) {
	col := simreport.NewCollector()
	pts := testPoints()
	srv, hs, store := testServer(t, pts, func(cfg *ServerConfig) {
		cfg.Reports = col
	})
	results, err := testRunner(t).RunAll(context.Background(), pts[0], pts[1])
	if err != nil {
		t.Fatal(err)
	}
	put := func(k runstore.Key, res *core.Result, wall string) int {
		t.Helper()
		raw, err := runstore.Encode(k, res)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, hs.URL+"/v1/run/"+k.Hex(), bytes.NewReader(raw))
		if wall != "" {
			req.Header.Set(wallHeader, wall)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	k0, k1 := srv.runner.PointKey(pts[0]), srv.runner.PointKey(pts[1])
	for _, bad := range []string{"abc", "-1", "-0.5", "NaN", "Inf", "+Inf", "-Inf", "1e999", "0x"} {
		if code := put(k0, results[0], bad); code != http.StatusBadRequest {
			t.Fatalf("PUT with %s: %q = %d, want 400", wallHeader, bad, code)
		}
	}
	if store.ContainsHash(k0.Hex()) || srv.Stats().Dispatch.Done != 0 || col.Len() != 0 {
		t.Fatal("a rejected PUT wrote an entry, completed a point or added a report")
	}

	if code := put(k0, results[0], "0.25"); code != http.StatusNoContent {
		t.Fatalf("valid PUT = %d", code)
	}
	if code := put(k1, results[1], ""); code != http.StatusNoContent {
		t.Fatalf("PUT without %s = %d", wallHeader, code)
	}
	if code := put(fakeKey(1), fakeResult(1), "1"); code != http.StatusNoContent {
		t.Fatalf("PUT of a non-campaign entry = %d", code)
	}
	host := map[string]simreport.HostCost{}
	for _, r := range col.Reports() {
		host[r.Key] = r.Host
	}
	want := map[string]simreport.HostCost{
		k0.Hex(): {WallSeconds: 0.25},
		k1.Hex(): {Replayed: true},
	}
	if !reflect.DeepEqual(host, want) {
		t.Fatalf("report host costs = %+v, want %+v", host, want)
	}
}

// TestSimReportEndpointsDisabled pins the off-by-default contract:
// without a collector GET /v1/simstatsz 404s.
func TestSimReportEndpointsDisabled(t *testing.T) {
	_, hs, _ := testServer(t, testPoints(), nil)
	resp, err := http.Get(hs.URL + "/v1/simstatsz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/simstatsz without reporting = %s, want 404", resp.Status)
	}
}
