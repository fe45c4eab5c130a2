package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/clitest"
	"sharedicache/internal/experiments"
	"sharedicache/internal/simreport"
	"sharedicache/internal/sweep"
)

// TestUsageGolden pins the -h flag listing, as cmd/sweep's does.
func TestUsageGolden(t *testing.T) {
	clitest.Usage(t, registerFlags)
	clitest.BadFlag(t, "campaignd", run)
}

// TestErrorPrefixedOnce: an internal/campaignd error prints behind
// the driver's name exactly once.
func TestErrorPrefixedOnce(t *testing.T) {
	clitest.ErrorLine(t, "campaignd", run, []string{"-store", t.TempDir(), "-lease-batch", "-1", "-bench", "FT", "-n", "20000"},
		"campaignd: negative lease batch -1")
}

// TestEmptySpaceRefused: a design space with no valid row (cpc 3 does
// not divide the 8 workers) is refused before the coordinator listens,
// naming the first invalid row and why.
func TestEmptySpaceRefused(t *testing.T) {
	clitest.ErrorLine(t, "campaignd", run, []string{"-store", t.TempDir(), "-addr", "127.0.0.1:0", "-bench", "FT", "-cpc", "3", "-n", "20000"},
		"campaignd: design space has no valid row: row 0 (FT cpc 3): core: CPC = 3 must divide Workers = 8 and be >= 2")
}

// syncBuffer is a bytes.Buffer safe for the coordinator's concurrent
// stderr writers (the driver, its slog handler and HTTP handlers).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// localCSV renders the single-process sweep of the design-space flags
// in args: Space.Build, RunAllStream, EmitStream — cmd/sweep's path.
// It also returns the swept rows as the campaign spec a submitter
// would send for the same space.
func localCSV(t *testing.T, args []string) ([]byte, []campaignd.PointSpec) {
	t.Helper()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	sf := sweep.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	opts, err := sf.Options()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := experiments.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	space, err := sf.Space()
	if err != nil {
		t.Fatal(err)
	}
	plan, rows := space.Build(runner)
	var buf bytes.Buffer
	csvw := sweep.NewCSV(&buf, opts.Workers)
	if err := csvw.Header(); err != nil {
		t.Fatal(err)
	}
	if err := csvw.EmitStream(plan.RunAllStream(context.Background()), rows, plan.Len()); err != nil {
		t.Fatal(err)
	}
	specs := make([]campaignd.PointSpec, len(rows))
	for i, m := range rows {
		specs[i] = campaignd.PointSpec{Bench: m.Bench, CPC: m.CPC, KB: m.KB, LB: m.LB, Bus: m.Bus}
	}
	return buf.Bytes(), specs
}

// awaitStderr waits until the driver's stderr holds line, failing the
// test if the driver exits or ctx ends first.
func awaitStderr(t *testing.T, ctx context.Context, stderr *syncBuffer, ran <-chan error, line string) {
	t.Helper()
	for !strings.Contains(stderr.String(), line) {
		select {
		case err := <-ran:
			t.Fatalf("campaignd exited before %q: %v\n%s", line, err, stderr.String())
		case <-ctx.Done():
			t.Fatalf("campaignd never printed %q:\n%s", line, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestOneShotCampaign drives plain campaignd end to end: the
// coordinator enqueues the flags' campaign, two in-process workers
// drain it over loopback HTTP, and the CSV streamed to stdout is
// byte-identical to the single-process sweep of the same flags, with
// zero duplicate simulations and zero expired leases. The coordinator
// runs with -trace, -report and -pprof; during its grace window the
// test scrapes what it serves, and after exit it reads the files:
//
//   - the workers' completed points sum to the plan;
//   - GET /metrics is well-formed text exposition whose counters
//     reconcile with that accounting, runtime gauges included;
//   - GET /v1/trace and the -trace file are one merged timeline (one
//     trace ID) with one worker "point" span per point and at least as
//     many coordinator "enqueue" spans;
//   - GET /v1/simstatsz holds one report per point whose stall stacks
//     sum to the simulated core cycles, all on the detailed backend,
//     and every report in the -report file conserves cycles;
//   - the /debug/pprof/ index answers.
func TestOneShotCampaign(t *testing.T) {
	space := []string{"-bench", "FT,UA", "-cpc", "4,8", "-size", "16", "-buses", "2", "-n", "20000"}
	want, _ := localCSV(t, space)

	// The workers' handshake retries until the coordinator listens.
	addr := freeAddr(t)
	base := "http://" + addr
	dir := t.TempDir()
	tracePath, reportPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "report.json")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	coordCtx, stopCoord := context.WithCancel(ctx)
	defer stopCoord()
	var stdout bytes.Buffer
	var stderr syncBuffer
	args := append(space, "-addr", addr, "-store", filepath.Join(dir, "rs"), "-lease-batch", "2", "-grace", "1m",
		"-trace", tracePath, "-report", reportPath, "-pprof")
	ran := make(chan error, 1)
	go func() { ran <- run(coordCtx, args, &stdout, &stderr) }()

	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		workerPoints int
	)
	for _, id := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := campaignd.Worker{URL: base, ID: id, Parallelism: 1}
			rep, err := w.Run(ctx)
			if err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
			mu.Lock()
			workerPoints += rep.Points
			mu.Unlock()
		}()
	}
	wg.Wait()

	// The workers saw the campaign done; once the coordinator has
	// booked its completion, scrape its final state in the grace window.
	awaitStderr(t, ctx, &stderr, ran, "campaign complete:")
	m := regexp.MustCompile(`campaign complete: points=(\d+) `).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no point count in the completion line:\n%s", stderr.String())
	}
	pts, _ := strconv.Atoi(m[1])
	if pts != 6 || workerPoints != pts {
		t.Errorf("workers completed %d points, the plan has %d (want 6)", workerPoints, pts)
	}

	samples := exposition(t, get(t, base+"/metrics"))
	for _, key := range []string{
		"# TYPE campaignd_points_done gauge",
		"# TYPE runstore_writes_total counter",
		"# TYPE go_goroutines gauge",
		"go_heap_alloc_bytes",
	} {
		if _, ok := samples[key]; !ok {
			t.Errorf("/metrics lacks %q", key)
		}
	}
	for key, want := range map[string]float64{
		`campaignd_points{backend="detailed"}`:      float64(pts),
		`campaignd_points_done{backend="detailed"}`: float64(pts),
		"runstore_writes_total":                     float64(pts),
		"campaignd_queue_pending":                   0,
		"campaignd_points_leased":                   0,
		"campaignd_leases_expired_total":            0,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("/metrics %s = %v (present %v), want %v", key, got, ok, want)
		}
	}

	checkTrace := func(what string, raw []byte) {
		t.Helper()
		events := traceEvents(t, raw)
		ids := map[string]bool{}
		for _, ev := range events {
			if ev.Ph == "X" {
				ids[ev.Args["trace"]] = true
			}
		}
		if len(ids) != 1 {
			t.Errorf("%s holds %d trace IDs, want one merged timeline", what, len(ids))
		}
		if n := countNames(events, "point"); n != pts {
			t.Errorf("%s has %d point spans, want %d", what, n, pts)
		}
		if n := countNames(events, "enqueue"); n < pts {
			t.Errorf("%s has %d enqueue spans, want at least %d", what, n, pts)
		}
	}
	checkTrace("GET /v1/trace", get(t, base+"/v1/trace"))

	client, err := campaignd.NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := client.SimStatsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reports != pts || sum.CoreCycles == 0 || sum.CoreCycles != sum.StackCycles {
		t.Errorf("/v1/simstatsz: %d reports, core cycles %d, stack cycles %d; want %d reports conserving nonzero cycles",
			sum.Reports, sum.CoreCycles, sum.StackCycles, pts)
	}
	if len(sum.Backends) != 1 || sum.Backends[0].Backend != "detailed" || sum.Backends[0].SimCyclesPerSecond.Count != pts {
		t.Errorf("/v1/simstatsz backends = %+v, want one detailed group rating %d points", sum.Backends, pts)
	}

	if !strings.Contains(string(get(t, base+"/debug/pprof/")), "profile") {
		t.Error("/debug/pprof/ index lists no profile")
	}

	stopCoord()
	if err := <-ran; err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("merged CSV differs from the single-process sweep:\n--- campaignd\n%s--- sweep\n%s", stdout.Bytes(), want)
	}
	if !strings.Contains(stderr.String(), "duplicates=0 expired_leases=0") {
		t.Fatalf("stderr lacks clean accounting:\n%s", stderr.String())
	}

	// The exit-time files carry the same campaign.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace("the -trace file", raw)
	if raw, err = os.ReadFile(reportPath); err != nil {
		t.Fatal(err)
	}
	var doc simreport.File
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Reports) != pts || doc.Summary.Reports != len(doc.Reports) {
		t.Errorf("-report file holds %d reports, summary %d, want %d", len(doc.Reports), doc.Summary.Reports, pts)
	}
	for _, r := range doc.Reports {
		var stack, cycles uint64
		for _, c := range r.Cores {
			stack += c.Stack.Total()
			cycles += c.SerialCycles + c.ParallelCycles
		}
		if stack != cycles {
			t.Errorf("report %s %s cpc=%d: stall stacks sum to %d of %d core cycles", r.Bench, r.Org, r.CPC, stack, cycles)
		}
	}
}

// TestServeCampaigns drives campaignd -serve: it enqueues no campaign
// of its own, two arrive over the campaign API (one closed, one open
// whose rows are released one /arrive call each), and one in-process
// worker drains both, polling on until it is interrupted, since a
// serving coordinator never seals. Each merged CSV is byte-identical to the
// single-process sweep of its space, /metrics shows one arrival-lag
// observation per arrival and nothing held or active, and the
// interrupted service reports its whole lifetime's accounting.
func TestServeCampaigns(t *testing.T) {
	ua := []string{"-bench", "UA", "-cpc", "2,8", "-size", "16", "-lb", "4", "-buses", "1", "-n", "20000"}
	ft := []string{"-bench", "FT", "-cpc", "2,8", "-size", "16", "-lb", "4", "-buses", "1", "-n", "20000"}
	wantUA, rowsUA := localCSV(t, ua)
	wantFT, rowsFT := localCSV(t, ft)

	addr := freeAddr(t)
	base := "http://" + addr
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	var stderr syncBuffer
	ran := make(chan error, 1)
	go func() {
		ran <- run(serveCtx, []string{"-addr", addr, "-serve", "-n", "20000", "-store", t.TempDir()}, io.Discard, &stderr)
	}()
	awaitStderr(t, ctx, &stderr, ran, "campaignd: serving")

	client, err := campaignd.NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := client.Enqueue(ctx, campaignd.CampaignSpec{Name: "ua", Rows: rowsUA})
	if err != nil {
		t.Fatal(err)
	}
	open, err := client.Enqueue(ctx, campaignd.CampaignSpec{Name: "ft", Rows: rowsFT, Open: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := range rowsFT {
		if err := client.Arrive(ctx, open.ID, []int{k}, int64(100*k)); err != nil {
			t.Fatal(err)
		}
	}
	workerCtx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	worked := make(chan error, 1)
	go func() {
		w := campaignd.Worker{URL: base, ID: "w1", Parallelism: 2}
		_, err := w.Run(workerCtx)
		worked <- err
	}()
	for _, id := range []int{closed.ID, open.ID} {
		for {
			st, err := client.CampaignStatus(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Complete {
				break
			}
			select {
			case err := <-worked:
				t.Fatalf("worker exited with campaign %d incomplete: %v", id, err)
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	stopWorker()
	if err := <-worked; !errors.Is(err, context.Canceled) {
		t.Fatalf("worker: err = %v, want its interruption", err)
	}
	for id, want := range map[int][]byte{closed.ID: wantUA, open.ID: wantFT} {
		got, err := client.CampaignCSV(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("campaign %d CSV differs from the single-process sweep:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
	samples := exposition(t, get(t, base+"/metrics"))
	for key, want := range map[string]float64{
		"campaignd_arrival_lag_seconds_count": float64(len(rowsFT)),
		"campaignd_points_held":               0,
		"campaignd_campaigns_active":          0,
		"campaignd_campaigns_total":           2,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("/metrics %s = %v (present %v), want %v", key, got, ok, want)
		}
	}

	stopServe()
	if err := <-ran; err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	const stopped = "service stopped: campaigns=2 points=6 writes=6 duplicates=0 expired_leases=0"
	if !strings.Contains(stderr.String(), stopped) {
		t.Errorf("stderr lacks %q:\n%s", stopped, stderr.String())
	}
}

// freeAddr reserves a loopback port and releases it, for a driver
// that must listen on an address given as a flag.
func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// get fetches url and returns the body, failing the test on an error
// or a non-200 status.
func get(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// expositionLine is one Prometheus text-exposition sample line:
// name{labels} value.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// exposition parses Prometheus text exposition into "name{labels}" ->
// value samples, failing the test on any sample line that is not
// well-formed. Comment lines (# HELP, # TYPE) are returned as keys
// with value 0, so a test can require a family's type line.
func exposition(t testing.TB, body []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			out[line] = 0
			continue
		case !expositionLine.MatchString(line):
			t.Fatalf("malformed exposition line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// traceEvent is one complete Chrome trace event as the tracer writes
// it.
type traceEvent struct {
	Name string
	Ph   string
	Args map[string]string
}

// traceEvents parses a Chrome trace-event JSON document, failing the
// test unless it holds at least one event and every event carries ph,
// ts, dur and name.
func traceEvents(t testing.TB, raw []byte) []traceEvent {
	t.Helper()
	var doc struct{ TraceEvents []map[string]json.RawMessage }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	events := make([]traceEvent, len(doc.TraceEvents))
	for i, ev := range doc.TraceEvents {
		for _, k := range []string{"ph", "ts", "dur", "name"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("trace event %d lacks %q", i, k)
			}
		}
		json.Unmarshal(ev["name"], &events[i].Name)
		json.Unmarshal(ev["ph"], &events[i].Ph)
		json.Unmarshal(ev["args"], &events[i].Args)
	}
	return events
}

// countNames counts the events named name.
func countNames(events []traceEvent, name string) int {
	n := 0
	for _, ev := range events {
		if ev.Name == name {
			n++
		}
	}
	return n
}
