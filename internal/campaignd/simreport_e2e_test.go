package campaignd

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"sharedicache/internal/simreport"
)

// TestSimReportE2E is the telemetry acceptance pin: a two-worker
// loopback campaign with a reporting coordinator collects exactly one
// report per dispatched point — sent by the workers inside their batch
// completions, needing no flag of their own (collection auto-enables from the campaign
// handshake) — every report satisfies cycle conservation on this
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

// TestSimReportWorkerLocalCollector pins the caller-owned collector
// contract: a worker whose driver passed its own collector (-report on
// the worker side) keeps its reports locally even when the coordinator
// also collects — nothing is drained out from under the caller.
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
	if local.Len() != rep.Points {
		t.Fatalf("local collector holds %d reports, worker completed %d points", local.Len(), rep.Points)
	}
	// Nothing was pushed: the caller owns the collector.
	if coord.Len() != 0 {
		t.Fatalf("coordinator received %d reports from a caller-owned collector", coord.Len())
	}
}

// TestSimReportEndpointsDisabled pins the off-by-default contract:
// without a collector GET /v1/simstatsz 404s and the handshake does
// not ask workers to collect.
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
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	info, err := client.Campaign(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Reports {
		t.Fatal("handshake asks for reports with reporting off")
	}
}
