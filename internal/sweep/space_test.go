package sweep

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/synth"
)

func testRunner(t *testing.T) *experiments.Runner {
	t.Helper()
	opts := experiments.DefaultOptions()
	opts.Instructions = 20_000
	opts.Benchmarks = []string{"FT", "UA"}
	r, err := experiments.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSpaceBuild pins the plan construction every driver shares: per
// benchmark one baseline followed by the valid shared cross product,
// row metadata pointing at the right plan slots, the invalid
// combinations (cpc 1, cpc not dividing the worker count, rejected
// configs) silently skipped, and the Fig 7 space exactly.
func TestSpaceBuild(t *testing.T) {
	r := testRunner(t)
	sp := Space{
		Benches:     []string{"FT", "UA"},
		CPCs:        []int{1, 2, 3, 8}, // 1 and 3 are invalid for 8 workers
		SizesKB:     []int{16, 32},
		LineBuffers: []int{4},
		Buses:       []int{1, 2},
	}
	plan, rows := sp.Build(r)

	// 2 valid cpcs x 2 sizes x 1 lb x 2 buses = 8 shared points per
	// benchmark, plus one baseline each.
	wantRows := 2 * 8
	if len(rows) != wantRows {
		t.Fatalf("built %d rows, want %d", len(rows), wantRows)
	}
	if plan.Len() != wantRows+2 {
		t.Fatalf("plan has %d points, want %d", plan.Len(), wantRows+2)
	}

	points := plan.Points()
	for _, m := range rows {
		if m.CPC == 1 || m.CPC == 3 {
			t.Fatalf("invalid cpc %d survived into the rows", m.CPC)
		}
		base := points[m.BaseIdx]
		if base.Bench != m.Bench || base.Cfg.Organization != core.OrgPrivate {
			t.Fatalf("row %v baseline is %s/%v, want its own private baseline", m, base.Bench, base.Cfg.Organization)
		}
		pt := points[m.PointIdx]
		if pt.Bench != m.Bench || pt.Cfg.CPC != m.CPC || pt.Cfg.ICache.SizeBytes != m.KB<<10 ||
			pt.Cfg.LineBuffers != m.LB || pt.Cfg.Buses != m.Bus {
			t.Fatalf("row %+v does not describe plan point %+v", m, pt.Cfg)
		}
		if m.BaseIdx >= m.PointIdx {
			t.Fatalf("row %+v: baseline must precede its design point in plan order", m)
		}
	}

	// Rows are in plan (= emission) order.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].PointIdx >= rows[i].PointIdx {
			t.Fatal("rows out of plan order")
		}
	}

	// A space with no valid row plans nothing, not even a baseline.
	sp.CPCs = []int{1, 3}
	if plan, rows := sp.Build(r); plan.Len() != 0 || len(rows) != 0 {
		t.Fatalf("all-invalid space planned %d points and %d rows, want none", plan.Len(), len(rows))
	}

	// The Fig 7 space's plan and rows, point for point, as recorded
	// before the layout was shared: per benchmark the private baseline,
	// then cpc 2/4/8 x 16/32 KB x 1/2 buses at 4 line buffers, the bus
	// count varying fastest — 52 points, 48 rows, each row labelled
	// with the resolved campaign backend.
	sp = Space{
		Benches: []string{"FT", "UA", "nab", "CoEVP"},
		CPCs:    []int{2, 4, 8}, SizesKB: []int{16, 32}, LineBuffers: []int{4}, Buses: []int{1, 2},
	}
	plan, rows = sp.Build(r)
	var fig7Pts []experiments.Point
	var fig7Rows []Row
	for _, b := range sp.Benches {
		base := len(fig7Pts)
		cfg := core.DefaultConfig()
		cfg.Workers = 8
		fig7Pts = append(fig7Pts, experiments.Point{Bench: b, Cfg: cfg})
		for _, cpc := range []int{2, 4, 8} {
			for _, kb := range []int{16, 32} {
				for _, bus := range []int{1, 2} {
					cfg := core.DefaultConfig()
					cfg.Workers = 8
					cfg.Organization = core.OrgWorkerShared
					cfg.CPC = cpc
					cfg.ICache.SizeBytes = kb << 10
					cfg.LineBuffers = 4
					cfg.Buses = bus
					fig7Rows = append(fig7Rows, Row{
						Bench: b, CPC: cpc, KB: kb, LB: 4, Bus: bus,
						BaseIdx: base, PointIdx: len(fig7Pts), Backend: "detailed",
					})
					fig7Pts = append(fig7Pts, experiments.Point{Bench: b, Cfg: cfg})
				}
			}
		}
	}
	if len(fig7Pts) != 52 || len(fig7Rows) != 48 {
		t.Fatalf("expectation has %d points and %d rows, want 52 and 48", len(fig7Pts), len(fig7Rows))
	}
	if got := plan.Points(); !reflect.DeepEqual(got, fig7Pts) {
		t.Fatalf("Fig 7 plan differs:\n got %+v\nwant %+v", got, fig7Pts)
	}
	if !reflect.DeepEqual(rows, fig7Rows) {
		t.Fatalf("Fig 7 rows differ:\n got %+v\nwant %+v", rows, fig7Rows)
	}
}

// TestExpandExplicitRows pins Expand over hand-listed rows: a
// benchmark whose only row is invalid gets no baseline, a later
// benchmark's baseline lands at its first valid row, an override runs
// and labels only its own row, and the error names the first invalid
// row by position.
func TestExpandExplicitRows(t *testing.T) {
	opts := experiments.DefaultOptions()
	coords := []Coord{
		{Bench: "FT", CPC: 2, KB: 16, LB: 4, Bus: 1},
		{Bench: "UA", CPC: 3, KB: 16, LB: 4, Bus: 1}, // 3 does not divide 8
		{Bench: "nab", CPC: 1, KB: 16, LB: 4, Bus: 1},
		{Bench: "nab", CPC: 8, KB: 32, LB: 4, Bus: 2, Backend: "analytical"},
		{Bench: "FT", CPC: 4, KB: 16, LB: 4, Bus: 1},
	}
	points, rows, err := Expand(nil, opts, "", coords)
	if err == nil || !strings.Contains(err.Error(), "row 1 (UA cpc 3)") {
		t.Fatalf("err = %v, want one naming row 1 and its cpc", err)
	}
	var got []string
	for _, pt := range points {
		got = append(got, fmt.Sprintf("%s/%v/%d/%q", pt.Bench, pt.Cfg.Organization, pt.Cfg.CPC, pt.Backend))
	}
	want := []string{
		`FT/private/1/""`, `FT/worker-shared/2/""`,
		`nab/private/1/""`, `nab/worker-shared/8/"analytical"`,
		`FT/worker-shared/4/""`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
	wantRows := []Row{
		{Bench: "FT", CPC: 2, KB: 16, LB: 4, Bus: 1, BaseIdx: 0, PointIdx: 1, Backend: "detailed"},
		{Bench: "nab", CPC: 8, KB: 32, LB: 4, Bus: 2, BaseIdx: 2, PointIdx: 3, Backend: "analytical"},
		{Bench: "FT", CPC: 4, KB: 16, LB: 4, Bus: 1, BaseIdx: 0, PointIdx: 4, Backend: "detailed"},
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("rows = %+v, want %+v", rows, wantRows)
	}

	// Appending keeps the given points and indexes past them.
	prefix := []experiments.Point{{Bench: "LULESH"}}
	points, rows, _ = Expand(prefix, opts, "analytical", coords[:1])
	if len(points) != 3 || points[0].Bench != "LULESH" || rows[0].BaseIdx != 1 || rows[0].PointIdx != 2 ||
		points[1].Backend != "analytical" || rows[0].Backend != "analytical" {
		t.Fatalf("appended layout = %+v / %+v", points, rows)
	}
}

// BenchmarkSpaceBuild times the layout of perfbench's triage space (24
// benchmarks x cpc 2/4/8 x 8-64 KB x 1-8 line buffers x 1/2/4 buses:
// 3,456 rows, 3,480 points), which is nearly all of a campaign's setup.
func BenchmarkSpaceBuild(b *testing.B) {
	sp := Space{
		Benches:     synth.ProfileNames(),
		CPCs:        []int{2, 4, 8},
		SizesKB:     []int{8, 16, 32, 64},
		LineBuffers: []int{1, 2, 4, 8},
		Buses:       []int{1, 2, 4},
		Backend:     "analytical",
	}
	opts := experiments.DefaultOptions()
	opts.Benchmarks = sp.Benches
	r, err := experiments.NewRunner(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if plan, rows := sp.Build(r); plan.Len() != 3480 || len(rows) != 3456 {
			b.Fatalf("triage space built %d points and %d rows, want 3480 and 3456", plan.Len(), len(rows))
		}
	}
}

// TestCSVHeader pins the column schema both drivers emit — by default
// exactly the historical one (the byte-identity guarantees rest on
// it), and with a backend column inserted after the benchmark when a
// backend was explicitly selected.
func TestCSVHeader(t *testing.T) {
	var sb strings.Builder
	c := NewCSV(&sb, 8)
	if err := c.Header(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "benchmark,cpc,size_kb,line_buffers,buses,time_ratio,worker_mpki,access_ratio,bus_avg_wait,area_ratio,energy_ratio\n"
	if sb.String() != want {
		t.Fatalf("header = %q, want %q", sb.String(), want)
	}

	sb.Reset()
	c = NewCSV(&sb, 8)
	c.IncludeBackendColumn()
	if err := c.Header(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want = "benchmark,backend,cpc,size_kb,line_buffers,buses,time_ratio,worker_mpki,access_ratio,bus_avg_wait,area_ratio,energy_ratio\n"
	if sb.String() != want {
		t.Fatalf("backend header = %q, want %q", sb.String(), want)
	}
}

// TestSpaceBackendStampsPoints pins the backend plumbing: a Space with
// a backend stamps every plan point (baseline included, so the
// normalisation is backend-consistent) and every row, and the Flags
// default leaves all of it empty.
func TestSpaceBackendStampsPoints(t *testing.T) {
	r := testRunner(t)
	sp := Space{
		Benches: []string{"FT"}, CPCs: []int{8}, SizesKB: []int{16},
		LineBuffers: []int{4}, Buses: []int{2}, Backend: "analytical",
	}
	plan, rows := sp.Build(r)
	for i, pt := range plan.Points() {
		if pt.Backend != "analytical" {
			t.Fatalf("point %d backend = %q, want analytical", i, pt.Backend)
		}
	}
	for _, m := range rows {
		if m.Backend != "analytical" {
			t.Fatalf("row %+v lost the backend stamp", m)
		}
	}

	// A default space leaves the points unstamped (the campaign rule
	// applies) but labels rows with the backend that rule resolves to,
	// so an enabled backend column never mislabels a row.
	sp.Backend = ""
	plan, rows = sp.Build(r)
	for _, pt := range plan.Points() {
		if pt.Backend != "" {
			t.Fatal("default space stamped a backend")
		}
	}
	if rows[0].Backend != "detailed" {
		t.Fatalf("default row backend = %q, want the resolved campaign backend", rows[0].Backend)
	}

	ana, err := experiments.NewRunner(func() experiments.Options {
		o := experiments.DefaultOptions()
		o.Instructions = 20_000
		o.Backend = "analytical"
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	_, rows = sp.Build(ana)
	if rows[0].Backend != "analytical" {
		t.Fatalf("row backend = %q, want the runner's campaign backend", rows[0].Backend)
	}
}
