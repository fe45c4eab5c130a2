package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
)

// mixedCampaign builds a small campaign whose points deliberately mix
// the detailed and analytical backends — per benchmark one detailed
// baseline, one detailed shared point and one analytical shared point
// — together with the CSV row metadata mirroring sweep.Space.Build.
func mixedCampaign() ([]experiments.Point, []sweep.Row) {
	var pts []experiments.Point
	var rows []sweep.Row
	for _, b := range []string{"FT", "UA"} {
		base := len(pts)
		pts = append(pts, experiments.Point{Bench: b, Cfg: core.DefaultConfig()})
		pts = append(pts, experiments.Point{Bench: b, Cfg: sharedCfg(8, 16, 2)})
		rows = append(rows, sweep.Row{
			Bench: b, CPC: 8, KB: 16, LB: 4, Bus: 2,
			BaseIdx: base, PointIdx: base + 1, Backend: "detailed",
		})
		pts = append(pts, experiments.Point{Bench: b, Cfg: sharedCfg(2, 32, 1), Backend: "analytical"})
		rows = append(rows, sweep.Row{
			Bench: b, CPC: 2, KB: 32, LB: 4, Bus: 1,
			BaseIdx: base, PointIdx: base + 2, Backend: "analytical",
		})
	}
	return pts, rows
}

// emitCSV renders a result stream through the shared CSV emitter and
// returns the bytes.
func emitCSV(t *testing.T, ch <-chan experiments.PointResult, rows []sweep.Row, planLen, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	csvw := sweep.NewCSV(&buf, workers)
	csvw.IncludeBackendColumn()
	if err := csvw.Header(); err != nil {
		t.Fatal(err)
	}
	if err := csvw.EmitStream(ch, rows, planLen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMixedBackendCampaign is the mixed-backend acceptance pin: a
// distributed loopback campaign whose plan interleaves detailed and
// analytical points produces a CSV byte-identical to the
// single-process run, with zero duplicate simulations and every entry
// stored under its own backend's key.
func TestMixedBackendCampaign(t *testing.T) {
	pts, rows := mixedCampaign()
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
	distCSV := emitCSV(t, srv.Stream(ctx, 0), rows, len(pts), testOptions().Workers)
	wg.Wait()

	// Zero duplicate simulations across the mixed plan.
	if totalSims := reports[0].Simulations + reports[1].Simulations; totalSims != len(pts) {
		t.Fatalf("workers simulated %d points total, want %d", totalSims, len(pts))
	}
	if st := srv.Stats(); st.Store.Writes != int64(len(pts)) {
		t.Fatalf("store writes = %d, want %d", st.Store.Writes, len(pts))
	}

	// The single-process run of the same mixed plan emits identical
	// bytes through the same emitter.
	local := testRunner(t)
	ch := local.Plan(pts...).RunAllStream(context.Background())
	localCSV := emitCSV(t, ch, rows, len(pts), testOptions().Workers)
	if !bytes.Equal(distCSV, localCSV) {
		t.Fatalf("mixed-backend distributed CSV differs from single-process run:\n--- distributed\n%s--- local\n%s",
			distCSV, localCSV)
	}
	if !strings.Contains(string(distCSV), ",analytical,") || !strings.Contains(string(distCSV), ",detailed,") {
		t.Fatalf("CSV does not label both backends:\n%s", distCSV)
	}

	// Each backend's entries landed under its own fingerprint: the
	// detailed key of the analytical point is absent and vice versa.
	probe := testRunner(t)
	anaPoint := pts[2] // analytical override
	detKey := probe.PointKey(experiments.Point{Bench: anaPoint.Bench, Cfg: anaPoint.Cfg})
	if _, ok := store.Get(detKey); ok {
		t.Fatal("analytical point stored under the detailed key")
	}
	if _, ok := store.Get(probe.PointKey(anaPoint)); !ok {
		t.Fatal("analytical point missing from its own key")
	}
}

// registerQuantumStub registers the "quantum-sim" stub backend used by
// the backend-filtering tests exactly once for the test binary. The
// coordinator must know a backend to coordinate it (Server.Enqueue
// validates the plan); the *worker-side* gap is simulated per Worker
// via its backends override, since a process-wide registry cannot
// unregister.
var registerQuantumStub = sync.OnceFunc(func() {
	experiments.RegisterBackend("quantum-sim", func(opts experiments.Options) (experiments.Backend, error) {
		return quantumStub{}, nil
	})
})

type quantumStub struct{}

func (quantumStub) Name() string        { return "quantum-sim" }
func (quantumStub) Fingerprint() string { return "quantum-sim/v1" }
func (quantumStub) Execute(ctx context.Context, bench string, cfg core.Config, prewarm bool) (*core.Result, error) {
	return &core.Result{Config: cfg, Cycles: 42,
		Cores: make([]core.CoreResult, cfg.Workers+1)}, nil
}

// withoutQuantum is the backend list of a binary built without the
// quantum-sim backend.
var withoutQuantum = []string{"analytical", "detailed"}

// TestWorkerLeasedOnlyRunnableBackends pins the wire contract for
// backend dispatch: a worker lacking a point's backend is never leased
// that point — it runs the two points it can, the quantum-sim point
// stays pending with no lease on it, and a capable worker drains it,
// so the campaign completes with no point starved or handed back.
func TestWorkerLeasedOnlyRunnableBackends(t *testing.T) {
	registerQuantumStub()
	pts := []experiments.Point{
		{Bench: "FT", Cfg: core.DefaultConfig(), Backend: "quantum-sim"},
		{Bench: "FT", Cfg: core.DefaultConfig()},
		{Bench: "FT", Cfg: sharedCfg(8, 16, 2)},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// The limited worker stops once its one batch has completed: after
	// that it could only poll for a point it must never be leased.
	limitedCtx, stopLimited := context.WithCancel(ctx)
	defer stopLimited()
	srv, hs := wrapCoordinator(t, pts, func(cfg *ServerConfig) {
		cfg.Batch = 3 // one lease could span the mixed plan
	}, cancelAfterCompletes(1, stopLimited))

	limited := Worker{URL: hs.URL, ID: "limited", Parallelism: 2, backends: withoutQuantum}
	lrep, lerr := limited.Run(limitedCtx)
	if lrep.Points != 2 || lrep.Leases != 1 || lrep.Simulations != 2 {
		t.Fatalf("limited worker report = %+v (err %v), want its 2 runnable points in 1 lease", lrep, lerr)
	}
	if st := srv.Stats().Dispatch; st.Done != 2 || st.Pending != 1 || st.Leased != 0 {
		t.Fatalf("dispatch = %+v after the limited worker, want 2 done and the quantum point pending", st)
	}

	capable := Worker{URL: hs.URL, ID: "capable", Parallelism: 1}
	crep, err := capable.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if crep.Points != 1 {
		t.Fatalf("capable worker completed %d points, want the quantum point", crep.Points)
	}
	merged := collectStream(t, srv.Stream(ctx, 0), len(pts))
	if merged[0].Cycles != 42 {
		t.Fatalf("quantum point cycles = %d, want the stub's 42", merged[0].Cycles)
	}
}

// FuzzLeaseBody throws arbitrary bodies at the unauthenticated
// POST /v1/renew and POST /v1/lease of a coordinator over a small
// mixed-backend campaign. Neither may panic or answer 5xx, and a lease
// answer is a 400 or a grant whose every point resolves to a backend
// the decoded body names.
func FuzzLeaseBody(f *testing.F) {
	registerQuantumStub()
	for _, req := range []leaseRequest{
		{Worker: "w", Backends: []string{"analytical", "detailed"}},
		{Worker: "w", Max: 1, Backends: []string{"analytical"}},
		{Worker: "w"},
		{Worker: "w", Backends: []string{}},
		{Worker: "w", Backends: []string{"ghost-sim", "quantum-sim", ""}},
		{Worker: "w", Max: math.MaxInt, Backends: []string{"detailed", "quantum-sim"}},
		{Max: -1, Backends: []string{"detailed"}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"Lease":"lease-1"}`))
	f.Add([]byte(`{"Backends":"detailed"}`))
	f.Add([]byte(`{"Backends":[null,7]}`))
	f.Add([]byte(`{`))

	clk := newFakeClock()
	pts, _ := mixedCampaign()
	pts = append(pts, experiments.Point{Bench: "FT", Cfg: core.DefaultConfig(), Backend: "quantum-sim"})
	srv, _, _ := testServer(f, pts, func(cfg *ServerConfig) {
		cfg.Batch = 2
		cfg.now = clk.now
	})
	opts := srv.runner.Options()
	h := srv.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Expire every earlier lease, so points keep flowing back.
		clk.advance(time.Hour)
		if rec := post("/v1/renew", body); rec.Code >= 500 {
			t.Fatalf("renew status %d for body %q", rec.Code, body)
		}
		rec := post("/v1/lease", body)
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("lease status %d for body %q", rec.Code, body)
		}
		var req leaseRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("granted a body that does not decode (%v): %q", err, body)
		}
		var g LeaseGrant
		if err := json.Unmarshal(rec.Body.Bytes(), &g); err != nil {
			t.Fatalf("grant %q: %v", rec.Body.Bytes(), err)
		}
		for _, lp := range g.Points {
			if b := opts.PointBackend(lp.Point); !slices.Contains(req.Backends, b) {
				t.Fatalf("point %d on backend %q granted to a worker naming %q", lp.Index, b, req.Backends)
			}
		}
	})
}

// TestStorePlaneGzip pins the compressed wire: entries land on disk
// gzip-compressed via a RemoteStore PUT, ship with Content-Encoding:
// gzip to clients that accept it, and unwrap server-side for clients
// that do not.
func TestStorePlaneGzip(t *testing.T) {
	_, hs, store := testServer(t, nil, nil)
	rs, err := NewRemoteStore(context.Background(), hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	k, res := fakeKey(3), fakeResult(3)
	if err := rs.Put(k, res); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(filepath.Join(store.Dir(), k.Hex()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !runstore.Compressed(disk) {
		t.Fatal("remote PUT left an uncompressed entry on disk")
	}

	// A client that does not accept gzip gets plain canonical JSON.
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/run/"+k.Hex(), nil)
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	plainBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "" || runstore.Compressed(plainBody) {
		t.Fatal("identity client received a compressed body")
	}
	if got, ok := runstore.Decode(plainBody, k); !ok || got.Cycles != res.Cycles {
		t.Fatal("plain body does not decode to the entry")
	}

	// A gzip-accepting client gets the stored bytes with the encoding
	// label (setting the header manually disables Go's transparent
	// decompression, exposing the raw wire form).
	req, _ = http.NewRequest(http.MethodGet, hs.URL+"/v1/run/"+k.Hex(), nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	gzBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" || !runstore.Compressed(gzBody) {
		t.Fatalf("gzip client got encoding %q, compressed=%v", resp.Header.Get("Content-Encoding"), runstore.Compressed(gzBody))
	}
	if got, ok := runstore.Decode(gzBody, k); !ok || got.Cycles != res.Cycles {
		t.Fatal("gzip body does not decode to the entry")
	}

	// And the default RemoteStore round trip still resolves the entry.
	if got, ok := rs.Get(k); !ok || got.Cycles != res.Cycles {
		t.Fatal("RemoteStore.Get lost the compressed entry")
	}

	// A legacy plain-JSON PUT (no Content-Encoding) still verifies.
	k2, res2 := fakeKey(4), fakeResult(4)
	plain, err := runstore.Encode(k2, res2)
	if err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodPut, hs.URL+"/v1/run/"+k2.Hex(), bytes.NewReader(plain))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("plain-JSON PUT got %s", resp.Status)
	}
	if got, ok := store.Get(k2); !ok || got.Cycles != res2.Cycles {
		t.Fatal("plain-JSON PUT did not land in the store")
	}
}
