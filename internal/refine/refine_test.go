package refine

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

// testSpace is a small but non-trivial space: 3 shared points + 1
// baseline per backend for one benchmark.
func testSpace() sweep.Space {
	return sweep.Space{
		Benches:     []string{"FT"},
		CPCs:        []int{2, 4, 8},
		SizesKB:     []int{16},
		LineBuffers: []int{4},
		Buses:       []int{2},
	}
}

func prepare(t *testing.T, st *runstore.Store, seed uint64, sel Selector, goldenMax int) (*experiments.Runner, *Result) {
	t.Helper()
	r := newTestRunner(t, seed)
	if st != nil {
		r.SetStore(st)
	}
	res, err := Prepare(context.Background(), Config{
		Space: testSpace(), Runner: r,
		Selector: sel, GoldenMax: goldenMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, res
}

// emitAll executes a prepared plan and renders the merged CSV exactly
// the way the drivers do.
func emitAll(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	csvw := res.Shape().NewCSV(&buf, 8)
	if err := csvw.Header(); err != nil {
		t.Fatal(err)
	}
	ch, err := res.Plan.RunAllStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := csvw.EmitStream(ch, res.Rows, res.Plan.Len()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refineLines filters a merged CSV down to its refine-phase rows.
func refineLines(csv []byte) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split(csv, []byte("\n")) {
		if bytes.Contains(line, []byte(",refine,")) {
			out = append(out, line)
		}
	}
	return out
}

// TestPrepareEndToEnd runs the full two-phase pipeline and checks the
// structural guarantees: phase labelling, simulation accounting, and
// that triage rows carry calibrated (not raw) metrics.
func TestPrepareEndToEnd(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, res := prepare(t, st, 1, TopK{K: 1}, 2)

	if res.TriageRows != 3 || res.FrontierRows != 1 {
		t.Fatalf("rows: triage %d frontier %d, want 3 and 1", res.TriageRows, res.FrontierRows)
	}
	// Golden plan: 1 bench x 2 backend baselines + 2 sampled rows x 2
	// backends = 6 points, 3 of them detailed.
	if res.GoldenDetailedSims != 3 {
		t.Fatalf("golden detailed sims = %d, want 3", res.GoldenDetailedSims)
	}
	csv := emitAll(t, res)

	// Total detailed simulations stay within golden + frontier.
	det := r.BackendRuns()["detailed"]
	if det > res.GoldenDetailedSims+res.FrontierRows {
		t.Fatalf("detailed sims = %d, want <= golden %d + frontier %d",
			det, res.GoldenDetailedSims, res.FrontierRows)
	}
	if got := len(refineLines(csv)); got != res.FrontierRows {
		t.Fatalf("CSV has %d refine rows, want %d", got, res.FrontierRows)
	}

	// Triage rows must differ from a raw analytical emission unless the
	// fit is a perfect identity (it will not be, at this fidelity).
	rawRes := *res
	rawRes.Calibration = Calibration{TimeRatio: Fit{A: 1}, EnergyRatio: Fit{A: 1}}
	raw := emitAll(t, &rawRes)
	if bytes.Equal(csv, raw) {
		t.Fatal("triage rows appear uncalibrated")
	}
	// And the refine (detailed) rows must be IDENTICAL between the two:
	// calibration never touches ground truth.
	if !reflect.DeepEqual(refineLines(csv), refineLines(raw)) {
		t.Fatal("calibration leaked into detailed rows")
	}
}

// TestRefineRowsMatchHandAuthoredMixedPlan pins the acceptance
// guarantee: the detailed rows of an auto-refined campaign are
// byte-identical to the same rows emitted from an equivalent
// hand-authored mixed plan on a fresh runner.
func TestRefineRowsMatchHandAuthoredMixedPlan(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, res := prepare(t, st, 1, TopK{K: 2}, 2)
	auto := refineLines(emitAll(t, res))
	if len(auto) != 2 {
		t.Fatalf("auto refine rows = %d, want 2", len(auto))
	}

	// Hand-author the equivalent mixed plan on a fresh runner with no
	// store: the full space analytical, plus the frontier detailed —
	// copied from the refine result's row metadata, the way a user
	// would transcribe a triage CSV.
	r2 := newTestRunner(t, 1)
	spaceA := testSpace()
	spaceA.Backend = "analytical"
	plan, rows := spaceA.Build(r2)
	for i := range rows {
		rows[i].Phase = PhaseTriage
	}
	workers := r2.Options().Workers
	base := plan.AddPoint(experiments.Point{Bench: "FT", Cfg: sweep.BaseConfig(workers), Backend: "detailed"})
	for _, m := range res.Rows[res.TriageRows:] {
		pi := plan.AddPoint(experiments.Point{
			Bench: m.Bench, Cfg: sweep.PointConfig(workers, m.CPC, m.KB, m.LB, m.Bus), Backend: "detailed",
		})
		rows = append(rows, sweep.Row{
			Bench: m.Bench, CPC: m.CPC, KB: m.KB, LB: m.LB, Bus: m.Bus,
			BaseIdx: base, PointIdx: pi, Backend: "detailed", Phase: PhaseRefine,
		})
	}
	hand := &Result{Plan: plan, Rows: rows} // identity calibration
	got := refineLines(emitAll(t, hand))
	if !reflect.DeepEqual(auto, got) {
		t.Fatalf("refine rows diverge from the hand-authored mixed plan:\nauto: %q\nhand: %q", auto, got)
	}
}

// TestFitReuseAndStaleInvalidation pins what a warm run store buys
// the calibration: a second campaign under identical options refits
// from store hits with zero golden simulations and identical
// coefficients, while any fit-relevant change (here: the seed) moves
// the golden points' store keys and recalibrates from fresh runs.
func TestFitReuseAndStaleInvalidation(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, first := prepare(t, st, 1, Pareto{}, 2)
	if first.GoldenDetailedSims == 0 {
		t.Fatal("a cold store must run the golden space")
	}

	// Same campaign, fresh store handle: every golden point hits.
	st2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2, second := prepare(t, st2, 1, Pareto{}, 2)
	if second.GoldenDetailedSims != 0 {
		t.Fatalf("warm run executed %d golden detailed sims, want 0", second.GoldenDetailedSims)
	}
	if second.Calibration != first.Calibration {
		t.Fatalf("warm refit drifted: %+v vs %+v", second.Calibration, first.Calibration)
	}
	// The warm store also makes the whole triage free.
	if n := r2.BackendRuns()["detailed"]; n != 0 {
		t.Fatalf("warm run executed %d detailed sims before plan execution, want 0", n)
	}

	// A changed seed is a different campaign: its golden points miss
	// the store and the fit is derived from fresh simulations.
	st3, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, third := prepare(t, st3, 99, Pareto{}, 2)
	if third.GoldenDetailedSims == 0 {
		t.Fatal("a seed change must recalibrate from the golden space")
	}
}

// TestPrepareValidation covers the config error paths.
func TestPrepareValidation(t *testing.T) {
	r := newTestRunner(t, 1)
	ctx := context.Background()
	if _, err := Prepare(ctx, Config{Runner: r, Selector: Pareto{}, Space: sweep.Space{Backend: "analytical", Benches: []string{"FT"}}}); err == nil {
		t.Fatal("a pre-set Space.Backend must be rejected")
	}
	if _, err := Prepare(ctx, Config{Runner: r, Space: testSpace()}); err == nil {
		t.Fatal("a missing selector must be rejected")
	}
	if _, err := Prepare(ctx, Config{Selector: Pareto{}, Space: testSpace()}); err == nil {
		t.Fatal("a missing runner must be rejected")
	}
	if _, err := Prepare(ctx, Config{Runner: r, Selector: Pareto{}, Space: sweep.Space{Benches: []string{"FT"}}}); err == nil {
		t.Fatal("an empty space must be rejected")
	}
	if _, err := Prepare(ctx, Config{Runner: r, Selector: Pareto{}, Space: testSpace(), GoldenMax: -1}); err == nil {
		t.Fatal("negative GoldenMax must be rejected")
	}
	bad := selectorFunc(func(c []Candidate) ([]int, error) { return []int{0, 0}, nil })
	if _, err := Prepare(ctx, Config{Runner: r, Selector: bad, Space: testSpace()}); err == nil {
		t.Fatal("duplicate frontier indexes must be rejected")
	}
}

// selectorFunc adapts a function to the Selector interface for tests.
type selectorFunc func([]Candidate) ([]int, error)

func (selectorFunc) Name() string                          { return "test" }
func (f selectorFunc) Select(c []Candidate) ([]int, error) { return f(c) }

func TestGoldenSample(t *testing.T) {
	for _, tc := range []struct {
		n, max int
		want   []int
	}{
		{5, 10, []int{0, 1, 2, 3, 4}},
		{5, 2, []int{0, 4}},
		{12, 6, []int{0, 2, 4, 6, 8, 11}},
		{3, 1, []int{0}},
		{1, 3, []int{0}},
	} {
		if got := goldenSample(tc.n, tc.max); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("goldenSample(%d, %d) = %v, want %v", tc.n, tc.max, got, tc.want)
		}
	}
}

// TestPrepareTracesPhases: Prepare traces through the runner's own
// tracer. Each phase is one span, and every point span the runner
// records parents under a phase.
func TestPrepareTracesPhases(t *testing.T) {
	r := newTestRunner(t, 1)
	tr := tracing.New(tracing.Config{Process: "test"})
	r.SetTracer(tr)
	if _, err := Prepare(context.Background(), Config{
		Space: testSpace(), Runner: r, Selector: TopK{K: 1, Metric: "time_ratio"}, GoldenMax: 2,
	}); err != nil {
		t.Fatal(err)
	}
	phases := map[string]string{}
	points := 0
	spans := tr.Spans()
	for _, sp := range spans {
		switch sp.Name {
		case "refine.calibrate", "refine.triage", "refine.select":
			if _, dup := phases[sp.SpanID]; dup {
				t.Fatalf("span ID %s recorded twice", sp.SpanID)
			}
			phases[sp.SpanID] = sp.Name
		}
	}
	if len(phases) != 3 {
		t.Fatalf("recorded phases %v, want refine.calibrate, refine.triage and refine.select once each", phases)
	}
	for _, sp := range spans {
		if sp.Name != "point" {
			continue
		}
		points++
		if _, ok := phases[sp.ParentID]; !ok {
			t.Errorf("point span %s parents under %q, not a refine phase", sp.SpanID, sp.ParentID)
		}
	}
	if points == 0 {
		t.Fatal("Prepare recorded no point spans")
	}
}
