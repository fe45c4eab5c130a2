package campaignd

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"sharedicache/internal/metrics"
	"sharedicache/internal/refine"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

// architectureDoc is the reference the operator docs keep for the
// coordinator's endpoints and metric families.
const architectureDoc = "../../docs/ARCHITECTURE.md"

// docTable returns the first cell of every row of the markdown table
// whose header line is header, with its backquotes stripped.
func docTable(t *testing.T, header string) []string {
	t.Helper()
	f, err := os.Open(architectureDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cells []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == header:
			in = true
		case !in || strings.HasPrefix(line, "|---"):
		case !strings.HasPrefix(line, "|"):
			in = false
		default:
			cells = append(cells, strings.Trim(strings.TrimSpace(strings.Split(line, "|")[1]), "`"))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatalf("%s has no table under %q", architectureDoc, header)
	}
	return cells
}

// TestDocsReference runs a one-benchmark campaign on a coordinator with
// tracing and reporting on, drained by one worker with its own registry
// and report collector, and holds docs/ARCHITECTURE.md to what the code
// serves: its metric table names exactly the families the coordinator
// and worker registries carry, and every row of its endpoint table is
// routed (never the mux's 404 or 405), each GET answering 200.
func TestDocsReference(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Wired as cmd/campaignd wires its runtime: one registry, tracer
	// and collector shared by the runner and the server.
	coordReg := metrics.NewRegistry()
	tracer, reports := tracing.New(tracing.Config{Process: "coordinator"}), simreport.NewCollector()
	runner := testRunner(t)
	runner.SetStore(store)
	runner.SetMetrics(coordReg)
	runner.SetTracer(tracer)
	runner.SetReporter(reports)
	srv, err := New(ServerConfig{Runner: runner, Store: store, Metrics: coordReg, Tracer: tracer, Reports: reports})
	if err != nil {
		t.Fatal(err)
	}
	// An auto-refine campaign, as `campaignd -refine` enqueues it: the
	// coordinator's runner resolves the calibration and triage phases
	// (re-resolving the golden analytical points from memory), and the
	// worker simulates the frontier, so every runner family has fired.
	res, err := refine.Prepare(ctx, refine.Config{
		Space: sweep.Space{
			Benches: []string{"FT"}, CPCs: []int{2, 4, 8},
			SizesKB: []int{16}, LineBuffers: []int{4}, Buses: []int{1},
		},
		Runner: runner, Selector: refine.TopK{K: 1}, GoldenMax: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := srv.Enqueue("docs", res.Plan.Points(), res.Rows, res.Shape())
	if err != nil {
		t.Fatal(err)
	}
	srv.Seal()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	workReg := metrics.NewRegistry()
	w := Worker{URL: hs.URL, ID: "w1", Parallelism: 2, Metrics: workReg, Reports: simreport.NewCollector()}
	ran := make(chan error, 1)
	go func() {
		_, err := w.Run(ctx)
		ran <- err
	}()
	if err := srv.WriteCSV(ctx, io.Discard, id); err != nil {
		t.Fatal(err)
	}
	if err := <-ran; err != nil {
		t.Fatal(err)
	}

	t.Run("metrics", func(t *testing.T) {
		documented := docTable(t, "| metric | type | labels | meaning |")
		registered := map[string]bool{}
		for _, reg := range []*metrics.Registry{coordReg, workReg} {
			for _, f := range reg.Snapshot() {
				registered[f.Name] = true
			}
		}
		for name := range registered {
			if !slices.Contains(documented, name) {
				t.Errorf("metric family %s is registered but missing from %s's table", name, architectureDoc)
			}
		}
		for _, name := range documented {
			if !registered[name] {
				t.Errorf("%s documents metric %s, which nothing registers", architectureDoc, name)
			}
		}
	})

	t.Run("endpoints", func(t *testing.T) {
		entries, err := store.Index()
		if err != nil || len(entries) == 0 {
			t.Fatalf("store index after the campaign: %d entries, %v", len(entries), err)
		}
		fill := strings.NewReplacer("{hash}", entries[0].Hash, "{id}", "0")
		for _, row := range docTable(t, "| endpoint | plane | purpose |") {
			method, path, ok := strings.Cut(row, " ")
			if !ok {
				t.Fatalf("endpoint row %q is not METHOD PATH", row)
			}
			req := httptest.NewRequest(method, fill.Replace(path), nil)
			if _, pattern := srv.mux.Handler(req); pattern == "" {
				t.Errorf("%s: documented but not routed (the mux answers 404 or 405)", row)
				continue
			}
			if method != http.MethodGet {
				continue
			}
			resp, err := http.Get(hs.URL + req.URL.Path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: GET %s = %s, want 200", row, req.URL.Path, resp.Status)
			}
		}
		// The counters are served once, at /metrics.
		resp, err := http.Get(hs.URL + "/v1/statsz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/statsz = %s, want 404", resp.Status)
		}
	})
}
