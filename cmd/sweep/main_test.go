package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/clitest"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
)

func TestUsageGolden(t *testing.T) {
	clitest.Usage(t, registerFlags)
	clitest.BadFlag(t, "sweep", run)
}

// TestErrorPrefixedOnce: a driver error prints behind the driver's name
// exactly once.
func TestErrorPrefixedOnce(t *testing.T) {
	clitest.ErrorLine(t, "sweep", run, []string{"-bench", "XX"},
		`sweep: unknown benchmark "XX"`)
}

// TestInterruptedRunWritesOutputs: a cancelled sweep still writes every
// requested exit-time file, each complete.
func TestInterruptedRunWritesOutputs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	args := append([]string{"-bench", "FT", "-cpc", "8", "-size", "16", "-buses", "1", "-n", "20000"}, clitest.OutputArgs(dir)...)
	err := run(ctx, args, &bytes.Buffer{}, &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	clitest.CheckOutputs(t, dir)
}

// sweepRun calls run in-process and returns its stdout and stderr,
// failing the test on an error.
func sweepRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

// wantLines fails the test unless stderr contains every line.
func wantLines(t *testing.T, stderr string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains(stderr, l) {
			t.Errorf("stderr lacks %q:\n%s", l, stderr)
		}
	}
}

// TestFig7GoldenCSV pins the simulator's fast path: a fresh detailed
// sweep of the Fig 7 space is byte-identical to the golden CSV the
// naive per-cycle loop generated before any fast path landed.
func TestFig7GoldenCSV(t *testing.T) {
	want, err := os.ReadFile("testdata/fig7_detailed.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sweepRun(t, "-bench", "FT,UA,nab,CoEVP", "-cpc", "2,4,8", "-size", "16,32", "-lb", "4",
		"-buses", "1,2", "-n", "20000")
	if got != string(want) {
		t.Fatalf("Fig 7 sweep differs from testdata/fig7_detailed.golden.csv:\n%s", got)
	}
}

// TestPersistentStore pins the persistent store end to end through
// run: a warm rerun over the same store simulates nothing and emits
// the same bytes, a sharded sweep merged through a store matches the
// unsharded CSV byte for byte, and the store garbage-collects.
func TestPersistentStore(t *testing.T) {
	space := func(extra ...string) []string {
		return append([]string{"-bench", "FT", "-cpc", "8", "-size", "16", "-n", "20000"}, extra...)
	}
	store := t.TempDir()
	cold, coldErr := sweepRun(t, space("-store", store, "-metrics", "127.0.0.1:0")...)
	wantLines(t, coldErr, "serving metrics on http://127.0.0.1:")
	warm, warmErr := sweepRun(t, space("-store", store)...)
	wantLines(t, warmErr, "sweep: 0 simulated")
	if warm != cold {
		t.Fatalf("warm CSV differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	sharded := t.TempDir()
	sweepRun(t, space("-store", sharded, "-shard", "1/2")...)
	sweepRun(t, space("-store", sharded, "-shard", "2/2")...)
	merged, mergeErr := sweepRun(t, space("-store", sharded, "-merge")...)
	wantLines(t, mergeErr, "0 simulated")
	if merged != cold {
		t.Fatalf("merged CSV differs from the unsharded run:\nunsharded:\n%s\nmerged:\n%s", cold, merged)
	}

	sweepRun(t, "-store", store, "-storeop", "gc")
}

// TestStoreopRequiresStore: store maintenance runs on a local store's
// own filesystem, so -storeop without -store is a usage error, with or
// without -remote.
func TestStoreopRequiresStore(t *testing.T) {
	for _, args := range [][]string{
		{"-storeop", "index"},
		{"-remote", "http://127.0.0.1:1", "-storeop", "index"},
		{"-remote", "http://127.0.0.1:1", "-storeop", "gc"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), args, &stdout, &stderr)
		if err == nil || err.Error() != "-storeop requires -store" {
			t.Errorf("sweep %v: err = %v, want the -store requirement", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("sweep %v wrote a CSV:\n%s", args, stdout.Bytes())
		}
	}
}

// TestMergeMissingPoint: -merge over a store that lacks one point of
// the campaign exits non-zero naming that point, and prints no CSV.
func TestMergeMissingPoint(t *testing.T) {
	store := t.TempDir()
	space := []string{"-bench", "FT", "-size", "16", "-lb", "4", "-buses", "1", "-n", "20000", "-store", store}
	sweepRun(t, append(space, "-cpc", "8")...)

	var stdout, stderr bytes.Buffer
	err := run(context.Background(), append(space, "-cpc", "4,8", "-merge"), &stdout, &stderr)
	if code := sweep.ExitCode("sweep", err, &stderr); code == 0 {
		t.Fatal("-merge over an incomplete store exited 0")
	}
	if err == nil || !strings.Contains(err.Error(), "missing FT on worker-shared/cpc=4") {
		t.Fatalf("err = %v, want it to name the missing FT cpc=4 point", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("failed merge wrote to stdout:\n%s", stdout.Bytes())
	}
}

// TestAnalyticalBackend pins the analytical triage backend end to end
// through run: it sweeps a Fig 7 space with zero detailed
// simulations, emits the backend column, and its store entries are
// isolated from the detailed backend's, so a warm analytical store is
// a miss for a detailed sweep of the same points.
func TestAnalyticalBackend(t *testing.T) {
	store := t.TempDir()
	csv, stderr := sweepRun(t, "-bench", "UA,FT,LULESH", "-cpc", "2,4,8", "-size", "16,32", "-lb", "4",
		"-buses", "1,2", "-n", "80000", "-backend", "analytical", "-store", store)
	if !regexp.MustCompile(`backend analytical: .* \(detailed 0\)`).MatchString(stderr) {
		t.Errorf("stderr lacks a `backend analytical: ... (detailed 0)` line:\n%s", stderr)
	}
	if !strings.HasPrefix(csv, "benchmark,backend,") {
		t.Errorf("CSV header lacks the backend column:\n%s", csv)
	}
	if !strings.Contains(csv, ",analytical,") {
		t.Errorf("CSV has no analytical rows:\n%s", csv)
	}
	if n := strings.Count(csv, "\n"); n <= 30 {
		t.Errorf("CSV has %d lines, want more than 30", n)
	}

	// One baseline plus one shared point: both simulate, zero hits.
	_, stderr = sweepRun(t, "-bench", "FT", "-cpc", "8", "-size", "16", "-lb", "4", "-buses", "2",
		"-n", "80000", "-store", store)
	wantLines(t, stderr, "sweep: 2 simulated, 0 store hits")
}

// TestRefineColdWarm pins the auto-refine campaign end to end through
// run: the cold run stays within its exact simulation budget (golden
// + frontier detailed runs) and its detailed rows equal the matching
// rows of a plain detailed sweep of the same space; the warm run over
// the same store refits the calibration from store hits, simulates
// nothing and emits the same bytes.
func TestRefineColdWarm(t *testing.T) {
	space := []string{"-bench", "FT", "-cpc", "2,4,8", "-size", "16,32", "-lb", "4", "-buses", "1,2", "-n", "20000"}
	refineArgs := append(append([]string{}, space...),
		"-refine", "-refine-top", "4", "-refine-golden", "6", "-store", t.TempDir())
	cold, coldErr := sweepRun(t, refineArgs...)
	wantLines(t, coldErr,
		"refine: calibration fitted over 6 golden rows (7 detailed simulations)",
		"sweep: refine: 9 detailed simulations (calibration 7 + frontier 2)")
	if n := strings.Count(cold, ",refine,detailed,"); n != 4 {
		t.Fatalf("cold CSV has %d refine rows, want 4:\n%s", n, cold)
	}

	// Each refine row, minus its phase column, is a row of the plain
	// detailed sweep.
	detailed, _ := sweepRun(t, append(append([]string{}, space...), "-backend", "detailed")...)
	detRows := map[string]bool{}
	for _, l := range strings.Split(detailed, "\n") {
		detRows[l] = true
	}
	for _, l := range strings.Split(cold, "\n") {
		if !strings.Contains(l, ",refine,") {
			continue
		}
		f := strings.Split(l, ",")
		if row := strings.Join(append(f[:1:1], f[2:]...), ","); !detRows[row] {
			t.Errorf("refine row %q is not in the detailed sweep:\n%s", row, detailed)
		}
	}

	warm, warmErr := sweepRun(t, refineArgs...)
	wantLines(t, warmErr,
		"refine: calibration fitted over 6 golden rows (0 detailed simulations)",
		"sweep: refine: 0 detailed simulations (calibration 0 + frontier 0), 0 analytical")
	if warm != cold {
		t.Fatalf("warm CSV differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// remoteServer stands up an in-process coordinator whose campaign
// options are those the sweep flags in args describe, with no
// campaign of its own, as campaignd -serve runs it.
func remoteServer(t *testing.T, args ...string) (*campaignd.Server, string) {
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
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner.SetStore(store)
	srv, err := campaignd.New(campaignd.ServerConfig{Runner: runner, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs.URL
}

// TestRemoteCampaigns drives this driver's coordinator clients against
// one serving coordinator: a -worker joins first, two -submit clients
// enqueue one space each, and the worker drains both, outliving the
// first to finish, until it is interrupted. Each merged CSV is
// byte-identical to the local sweep of its space, neither client
// simulates anything, the worker's points sum to both plans, and the
// coordinator booked one write per point and no duplicate or expired
// lease.
func TestRemoteCampaigns(t *testing.T) {
	ua := []string{"-bench", "UA", "-cpc", "2,8", "-size", "16", "-lb", "4", "-buses", "1", "-n", "20000"}
	ft := []string{"-bench", "FT", "-cpc", "2,8", "-size", "16", "-lb", "4", "-buses", "1", "-n", "20000"}
	localUA, _ := sweepRun(t, ua...)
	localFT, _ := sweepRun(t, ft...)

	srv, url := remoteServer(t, "-n", "20000")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type result struct {
		stdout, stderr string
		err            error
	}
	start := func(ctx context.Context, args ...string) <-chan result {
		done := make(chan result, 1)
		go func() {
			var out, errb bytes.Buffer
			err := run(ctx, append([]string{"-remote", url}, args...), &out, &errb)
			done <- result{out.String(), errb.String(), err}
		}()
		return done
	}
	workerCtx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	worker := start(workerCtx, "-worker")
	submitUA := start(ctx, append([]string{"-submit"}, ua...)...)
	submitFT := start(ctx, append([]string{"-submit"}, ft...)...)

	for _, c := range []struct {
		name string
		res  <-chan result
		want string
	}{{"-submit UA", submitUA, localUA}, {"-submit FT", submitFT, localFT}} {
		r := <-c.res
		if r.err != nil {
			t.Fatalf("%s: %v\n%s", c.name, r.err, r.stderr)
		}
		if r.stdout != c.want {
			t.Errorf("%s CSV differs from the local sweep:\ngot:\n%s\nwant:\n%s", c.name, r.stdout, c.want)
		}
		wantLines(t, r.stderr, "0 simulated locally")
	}
	// A serving coordinator never seals, so its worker runs until
	// interrupted, then reports its share.
	stopWorker()
	w := <-worker
	if !errors.Is(w.err, context.Canceled) {
		t.Fatalf("-worker: err = %v, want the interruption\n%s", w.err, w.stderr)
	}
	wantLines(t, w.stderr, "sweep: worker done: 6 points")

	st := srv.Stats()
	if d := st.Dispatch; d.Campaigns != 2 || d.Points != 6 || d.Done != 6 || d.ExpiredLeases != 0 || st.Store.Writes != 6 {
		t.Errorf("coordinator: %d campaigns, %d/%d points done, %d writes, %d expired leases; want 2, 6/6, 6, 0",
			d.Campaigns, d.Done, d.Points, st.Store.Writes, d.ExpiredLeases)
	}
}

// TestModeCompositionErrors: flags that do not compose are usage
// errors, raised before any network contact and before anything is
// written to stdout or stderr.
func TestModeCompositionErrors(t *testing.T) {
	const remote = "http://127.0.0.1:1"
	submitCompose := "-submit drives a remote campaign; it does not compose with -worker, -shard, -merge, -storeop or -refine"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-submit"}, "-submit requires -remote URL (a campaignd -serve coordinator)"},
		{[]string{"-remote", remote, "-submit", "-worker"}, submitCompose},
		{[]string{"-remote", remote, "-submit", "-shard", "1/2"}, submitCompose},
		{[]string{"-remote", remote, "-submit", "-merge"}, submitCompose},
		{[]string{"-remote", remote, "-submit", "-storeop", "gc"}, submitCompose},
		{[]string{"-remote", remote, "-submit", "-refine"}, submitCompose},
		{[]string{"-store", t.TempDir(), "-remote", remote}, "-store and -remote are mutually exclusive"},
		{[]string{"-pprof"}, "-pprof requires -metrics (it mounts on the metrics listener)"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), c.args, &stdout, &stderr)
		if err == nil || err.Error() != c.want {
			t.Errorf("sweep %v: err = %v, want %q", c.args, err, c.want)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("sweep %v wrote output:\n%s%s", c.args, stdout.Bytes(), stderr.Bytes())
		}
	}
}

// TestWorkerRejectsLocalModes: a worker runs the coordinator's
// campaign, so -shard, -merge and -storeop are usage errors, raised
// before the worker contacts the coordinator.
func TestWorkerRejectsLocalModes(t *testing.T) {
	for _, extra := range [][]string{{"-shard", "1/2"}, {"-merge"}, {"-storeop", "index"}} {
		args := append([]string{"-remote", "http://127.0.0.1:1", "-worker"}, extra...)
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-worker runs the coordinator's campaign") {
			t.Errorf("sweep %v: err = %v, want the -worker rejection", extra, err)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("sweep %v wrote output:\n%s%s", extra, stdout.Bytes(), stderr.Bytes())
		}
	}
}
