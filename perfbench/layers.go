package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/simreport"
	"sharedicache/internal/tracing"
)

// traceCapacity bounds each tracer's span ring: a traced triage round
// records about seven spans per point over two passes of 3480 points.
const traceCapacity = 1 << 17

// perLayerUnits names every per-layer metric the traced run reports,
// with its unit. README.md says which pass measures each and which
// end-to-end metric it should move.
var perLayerUnits = map[string]string{
	"synth.workload_ms":                  "ms",
	"synth.warmlines_ms":                 "ms",
	"core.prewarm_ms":                    "ms",
	"experiments.synth_memo_misses":      "count",
	"experiments.prewarm_memo_misses":    "count",
	"core.run_s":                         "s",
	"core.cycles_per_s":                  "1/s",
	"core.kips":                          "kinstr/s",
	"core.cycles":                        "count",
	"core.instructions":                  "count",
	"core.bus_granted":                   "count",
	"core.merged_fills":                  "count",
	"experiments.points":                 "count",
	"experiments.simulations.detailed":   "count",
	"experiments.simulations.analytical": "count",
	"experiments.memory_hits":            "count",
	"experiments.store_hits":             "count",
	"experiments.store_misses":           "count",
	"experiments.busy_frac":              "fraction",
	"analytical.point_us":                "us",
	"runstore.put_us.p50":                "us",
	"runstore.put_us.p99":                "us",
	"runstore.encode_us":                 "us",
	"runstore.gzip_us":                   "us",
	"runstore.entry_bytes":               "bytes",
	"runstore.writes":                    "count",
	"runstore.get_us.p50":                "us",
	"runstore.get_us.p99":                "us",
	"runstore.decode_us":                 "us",
	"runstore.bad_entries":               "count",
	"simreport.artifact_put_us":          "us",
	"simreport.artifact_get_us":          "us",
	"simreport.replayed":                 "count",
	"sweep.build_ms":                     "ms",
	"sweep.csv_ms":                       "ms",
	"campaignd.lease_rtt_ms.p50":         "ms",
	"campaignd.lease_rtt_ms.p99":         "ms",
	"campaignd.put_rtt_ms.p50":           "ms",
	"campaignd.put_rtt_ms.p99":           "ms",
	"campaignd.complete_rtt_ms.p50":      "ms",
	"campaignd.queue_wait_ms.p50":        "ms",
	"campaignd.queue_wait_ms.p99":        "ms",
	"campaignd.poll_wait_ms":             "ms",
	"campaignd.leases":                   "count",
	"campaignd.batch_mean":               "points",
	"campaignd.empty_polls":              "count",
	"campaignd.expired_leases":           "count",
	"campaignd.duplicates":               "count",
	"campaignd.worker_restarts":          "count",
	"campaignd.arrival_lag_ms.max":       "ms",
	"campaignd.csv_ready_ms":             "ms",
	"service.slo_miss_frac":              "fraction",
	"metrics.scrape_ms":                  "ms",
	"tracing.spans":                      "count",
	"tracing.dropped":                    "count",
	"tracing.overhead_frac":              "fraction",
	"tracing.overhead_base_s":            "s",
	"prof.frontend":                      "fraction",
	"prof.core":                          "fraction",
	"prof.backend":                       "fraction",
	"prof.interconnect":                  "fraction",
	"prof.cachesim":                      "fraction",
	"prof.memsys":                        "fraction",
	"prof.synth":                         "fraction",
	"prof.runstore":                      "fraction",
	"prof.sweep":                         "fraction",
	"prof.campaignd":                     "fraction",
	"prof.runtime_gc":                    "fraction",
	"prof.syscall":                       "fraction",
}

// layers collects the traced run's per-layer metrics. A nil *layers
// (every untraced run) ignores every call.
type layers struct {
	mu      sync.Mutex
	vals    map[string]float64
	runners []*layerRunner
	coord   []*tracing.Tracer // coordinator tracers of service passes
	gates   []string

	// The first traced round of each batch workload, for the probes.
	fig7, triage *round
	triageSpec   batchSpec
}

// layerRunner is one Runner the traced run attached observability to.
type layerRunner struct {
	reg *metrics.Registry
	rep *simreport.Collector
}

func newLayers() *layers { return &layers{vals: map[string]float64{}} }

func (l *layers) set(name string, v float64) {
	l.mu.Lock()
	l.vals[name] = v
	l.mu.Unlock()
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.vals[name] += v
	l.mu.Unlock()
}

func (l *layers) gate(format string, args ...any) {
	l.mu.Lock()
	l.gates = append(l.gates, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// attach gives r the program's own observability — the tracer, a
// simreport collector and a fresh metrics registry — and remembers it
// so its counters are summed into the experiments.* metrics.
func (l *layers) attach(r *experiments.Runner, tr *tracing.Tracer) *layerRunner {
	if l == nil {
		return nil
	}
	lr := &layerRunner{reg: metrics.NewRegistry(), rep: simreport.NewCollector()}
	r.SetMetrics(lr.reg)
	r.SetTracer(tr)
	r.SetReporter(lr.rep)
	l.mu.Lock()
	l.runners = append(l.runners, lr)
	l.mu.Unlock()
	return lr
}

// value reads one counter from a runner's registry (0 when unset).
func (lr *layerRunner) value(name string, labels ...metrics.Label) float64 {
	v, _ := lr.reg.Value(name, labels...)
	return v
}

// runnerCounters sums the experiments.* counters over every attached
// Runner.
func (l *layers) runnerCounters() {
	for _, name := range []string{"experiments.points", "experiments.memory_hits", "experiments.store_hits",
		"experiments.store_misses", "experiments.simulations.detailed", "experiments.simulations.analytical",
		"experiments.synth_memo_misses", "experiments.prewarm_memo_misses", "simreport.replayed"} {
		l.set(name, 0)
	}
	for _, lr := range l.runners {
		hits := lr.value("runner_cache_hits_total", metrics.L("tier", "memory"))
		misses := lr.value("runner_cache_misses_total", metrics.L("tier", "memory"))
		l.add("experiments.points", hits+misses)
		l.add("experiments.memory_hits", hits)
		l.add("experiments.store_hits", lr.value("runner_cache_hits_total", metrics.L("tier", "store")))
		l.add("experiments.store_misses", lr.value("runner_cache_misses_total", metrics.L("tier", "store")))
		l.add("experiments.simulations.detailed", lr.value("runner_simulations_total", metrics.L("backend", "detailed")))
		l.add("experiments.simulations.analytical", lr.value("runner_simulations_total", metrics.L("backend", "analytical")))
		l.add("experiments.synth_memo_misses", lr.value("runner_synth_memo_misses_total", metrics.L("backend", "detailed")))
		l.add("experiments.prewarm_memo_misses", lr.value("runner_prewarm_memo_misses_total", metrics.L("backend", "detailed")))
		for _, rep := range lr.rep.Reports() {
			if rep.Host.Replayed {
				l.add("simreport.replayed", 1)
			}
		}
	}
}

// fig7Round books a traced Fig 7 round: the exact simulator counts
// (which must repeat bit for bit), the campaign's simulation rate and
// how busy the Runner kept its Parallelism slots.
func (l *layers) fig7Round(rd *round, e *env) {
	if l == nil {
		return
	}
	var cycles, instr, granted, merged float64
	for _, res := range rd.results {
		cycles += float64(res.Cycles)
		instr += float64(res.TotalInstructions())
		granted += float64(res.Bus.Granted)
		merged += float64(res.MergedFills)
	}
	l.mu.Lock()
	if prev, ok := l.vals["core.cycles"]; ok && prev != cycles {
		l.gates = append(l.gates, fmt.Sprintf("core.cycles %v in one round, %v in another", prev, cycles))
	}
	if l.fig7 == nil {
		l.fig7 = rd
	}
	l.mu.Unlock()
	l.set("core.cycles", cycles)
	l.set("core.instructions", instr)
	l.set("core.bus_granted", granted)
	l.set("core.merged_fills", merged)
	l.set("core.kips", instr/rd.campaign.Seconds()/1e3)
	var busy float64
	for _, rep := range rd.reg.rep.Reports() {
		busy += rep.Host.WallSeconds
	}
	l.set("experiments.busy_frac", busy/(rd.campaign.Seconds()*float64(rd.c.runner.Options().Parallelism)))
}

// triageRound books a traced triage round: store-plane and artifact
// timings, analytical cost per point and store counters.
func (l *layers) triageRound(rd *round, b batchSpec, e *env) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.triage == nil {
		l.triage, l.triageSpec = rd, b
	}
	l.mu.Unlock()
	put := Summarize(rd.store.putUS)
	get := Summarize(rd.readStore.getUS)
	l.set("runstore.put_us.p50", put.Median)
	l.set("runstore.put_us.p99", put.Tail)
	l.set("runstore.get_us.p50", get.Median)
	l.set("runstore.get_us.p99", get.Tail)
	l.set("simreport.artifact_put_us", Summarize(rd.store.artPut).Median)
	l.set("simreport.artifact_get_us", Summarize(rd.readStore.artGet).Median)
	l.set("runstore.writes", float64(rd.store.Stats().Writes))
	l.set("runstore.bad_entries", float64(rd.store.Stats().BadEntries+rd.readStore.Stats().BadEntries))
	var pointUS []float64
	for _, rep := range rd.reg.rep.Reports() {
		if rep.Backend == "analytical" && !rep.Host.Replayed {
			pointUS = append(pointUS, rep.Host.WallSeconds*1e6)
		}
	}
	l.set("analytical.point_us", Summarize(pointUS).Median)
}

// serviceWindow books a traced service window: the lease and store
// planes as the coordinator served them, as the workers' clients saw
// them, and per row.
func (l *layers) serviceWindow(p *servicePass, e *env) {
	if l == nil {
		return
	}
	s := p.svc
	st := s.srv.Stats()
	l.set("campaignd.expired_leases", float64(st.Dispatch.ExpiredLeases))
	l.set("campaignd.duplicates", float64(max(0, st.Store.Writes-int64(st.Dispatch.Done))))
	l.set("campaignd.worker_restarts", float64(s.fleet.restarts.Load()))
	l.set("campaignd.arrival_lag_ms.max", Summarize(p.lagMS).Max)
	l.set("campaignd.csv_ready_ms", ms(p.csvReady))
	l.set("metrics.scrape_ms", Summarize(p.scrapeMS).Median)

	s.shim.mu.Lock()
	leases, empty := s.shim.leases, s.shim.empty
	s.shim.mu.Unlock()
	leasedAt := map[string]time.Time{}
	var points float64
	for _, lo := range leases {
		points += float64(len(lo.points))
		for _, pt := range lo.points {
			h := s.runner.PointKey(pt).Hex()
			if _, ok := leasedAt[h]; !ok {
				leasedAt[h] = lo.at
			}
		}
	}
	l.set("campaignd.leases", float64(len(leases)))
	l.set("campaignd.empty_polls", float64(empty))
	if len(leases) > 0 {
		l.set("campaignd.batch_mean", points/float64(len(leases)))
	}
	var queue, poll []float64
	late := p.missing
	for k, r := range s.rows {
		if at, ok := leasedAt[s.hashes[r.PointIdx]]; ok {
			queue = append(queue, ms(at.Sub(p.released[k])))
			poll = append(poll, ms(at.Sub(p.due[k])))
		}
	}
	for _, v := range p.rowMS {
		if v > ms(sloLimit) {
			late++
		}
	}
	q := Summarize(queue)
	l.set("campaignd.queue_wait_ms.p50", q.Median)
	l.set("campaignd.queue_wait_ms.p99", q.Tail)
	l.set("campaignd.poll_wait_ms", Summarize(poll).Median)
	l.set("service.slo_miss_frac", float64(late)/float64(len(s.rows)))

	rtt := clientRTT.snapshot()
	lease, put, complete := Summarize(rtt["POST /v1/lease"]), Summarize(rtt["PUT /v1/run/{hash}"]), Summarize(rtt["POST /v1/complete"])
	l.set("campaignd.lease_rtt_ms.p50", lease.Median)
	l.set("campaignd.lease_rtt_ms.p99", lease.Tail)
	l.set("campaignd.put_rtt_ms.p50", put.Median)
	l.set("campaignd.put_rtt_ms.p99", put.Tail)
	l.set("campaignd.complete_rtt_ms.p50", complete.Median)
	l.mu.Lock()
	l.coord = append(l.coord, s.coord)
	l.mu.Unlock()
}

// rttShim times every request the process's HTTP clients send — the
// campaignd Client and RemoteStore use http.DefaultTransport — by
// route, as the client sees the round trip.
type rttShim struct {
	next http.RoundTripper
	mu   sync.Mutex
	by   map[string][]float64
}

var clientRTT = &rttShim{by: map[string][]float64{}}

func (t *rttShim) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	d := ms(time.Since(start))
	t.mu.Lock()
	t.by[routeName(r)] = append(t.by[routeName(r)], d)
	t.mu.Unlock()
	return resp, err
}

func (t *rttShim) snapshot() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64, len(t.by))
	for k, v := range t.by {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// runTraced is the separate traced run. Every workload runs one traced
// pass — the named one for the full window, the others for their
// shortest pass — so every layer is measured, under a CPU profile, with
// the program's tracer, report collectors and registries attached.
// Untraced Fig 7 rounds before and after the passes are the base of
// tracing.overhead_frac.
func runTraced(ctx context.Context, e *env, named *workload, prov map[string]any) error {
	outDir := filepath.Join(e.root, ".perfbench", "trace")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	untraced := func(tag string) (float64, error) {
		rd, err := fig7Batch(fig7Budget, e.nproc).runRound(ctx, &env{scratch: e.scratch, seed: e.seed, nproc: e.nproc}, tag, 0, 0)
		if err != nil {
			return 0, err
		}
		return rd.campaign.Seconds(), nil
	}
	before, err := untraced("fig7-untraced-0")
	if err != nil {
		return err
	}

	e.tr = tracing.New(tracing.Config{Process: "perfbench", Capacity: traceCapacity})
	e.lay = newLayers()
	clientRTT.next = http.DefaultTransport
	http.DefaultTransport = clientRTT
	prof, err := os.Create(filepath.Join(outDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	out, traced, err := tracedPasses(ctx, e, named)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := prof.Close(); err != nil {
		return err
	}
	after, err := untraced("fig7-untraced-1")
	if err != nil {
		return err
	}

	l := e.lay
	base := (before + after) / 2
	l.set("tracing.overhead_base_s", base)
	l.set("tracing.overhead_frac", traced/base-1)
	l.runnerCounters()
	shares, err := packageShares(filepath.Join(outDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	for name, v := range shares {
		l.set(name, v)
	}
	spans := e.tr.Spans()
	dropped := e.tr.Dropped()
	for _, c := range l.coord {
		spans = append(spans, c.Spans()...)
		dropped += c.Dropped()
	}
	l.set("tracing.spans", float64(len(spans)))
	l.set("tracing.dropped", float64(dropped))
	if err := writeTrace(filepath.Join(outDir, "trace.json"), spans); err != nil {
		return err
	}
	table := selfTimes(spans)
	if err := writeSelfTimes(filepath.Join(outDir, "layers.tsv"), table); err != nil {
		return err
	}
	printSelfTimes(os.Stdout, table)

	out.gates = append(out.gates, l.gates...)
	for name := range perLayerUnits {
		if v, ok := l.vals[name]; ok {
			out.metrics[name] = v
		}
	}
	prov["trace_dir"] = ".perfbench/trace"
	return emit(os.Stdout, prov, out, perLayerUnits)
}

// tracedPasses runs the traced pass of every workload and the layer
// probes, and returns the passes' combined outcome and the traced Fig 7
// campaign time.
func tracedPasses(ctx context.Context, e *env, named *workload) (*outcome, float64, error) {
	out := newOutcome()
	window := e.seconds
	var fig7 float64
	for i := range workloads {
		w := &workloads[i]
		e.seconds = window
		if w != named {
			e.seconds = time.Second
		}
		ctx, span := e.tr.Start(ctx, "workload."+w.name)
		o, err := w.run(ctx, e)
		span.End()
		if err != nil {
			return nil, 0, fmt.Errorf("traced %s: %w", w.name, err)
		}
		out.attempted += o.attempted
		out.failed += o.failed
		out.gates = append(out.gates, o.gates...)
		switch w.name {
		case "fig7-detailed":
			fig7 = o.metrics["campaign_s"]
			err = e.lay.fig7Probes(ctx, e)
		case "triage-store":
			err = e.lay.triageProbes(e)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return out, fig7, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
