package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
	"sharedicache/internal/tracing"
)

const (
	// serviceRPS is the steady arrival rate. One worker of Parallelism 1
	// resolves an analytical row in well under a millisecond, so 60
	// rows/s keeps the fleet far below capacity: latency is the control
	// plane's (the idle lease poll, TTL/5 clamped to 1 s), not queueing.
	// 60 rows/s over a 20 s window is 1200 rows, enough for a p99 with
	// at least ten samples beyond it.
	serviceRPS = 60
	// sloLimit is the row latency limit: twice the 1 s idle poll, so a
	// row misses it only if it waits out more than one full poll.
	sloLimit = 2 * time.Second
	// serviceLead separates the enqueue from the first row's due time.
	serviceLead = 100 * time.Millisecond
	// serviceSetups is how many times a run sets the service up, and
	// serviceReads how many times it re-fetches the merged CSV.
	serviceSetups = 5
	serviceReads  = 10
	// restartBackoff paces the supervisor's worker restarts.
	restartBackoff = 50 * time.Millisecond
	// drainTimeout bounds the wait for the last rows after the window.
	drainTimeout = 60 * time.Second
)

// service is one in-process campaignd coordinator on 127.0.0.1 with its
// worker fleet.
type service struct {
	dir     string
	runner  *experiments.Runner
	srv     *campaignd.Server
	client  *campaignd.Client
	url     string
	httpSrv *http.Server
	served  chan struct{} // closed when Serve returns
	shim    *handlerShim
	fleet   *fleet
	coord   *tracing.Tracer   // coordinator tracer (traced run only)
	reg     *metrics.Registry // coordinator and fleet registry (traced run only)

	id     int // the open campaign
	spec   campaignd.CampaignSpec
	points []experiments.Point
	rows   []sweep.Row
	hashes []string // per point
	setup  time.Duration
}

// serviceOptions are the coordinator's campaign options: the triage
// budget, all 24 benchmarks.
func serviceOptions() experiments.Options {
	return triageBatch(1).opts
}

// serviceRows is the seed's arrival input: n rows spread evenly over
// the triage space (the same rows for every seed, so every run does the
// same work), released in a seed-shuffled order.
func serviceRows(seed uint64, n int) ([]campaignd.PointSpec, error) {
	r, err := experiments.NewRunner(serviceOptions())
	if err != nil {
		return nil, err
	}
	_, rows := triageBatch(1).space.Build(r)
	n = min(n, len(rows))
	out := make([]campaignd.PointSpec, n)
	for k, p := range rand.New(rand.NewPCG(seed, 0x51ed270b)).Perm(n) {
		m := rows[p*len(rows)/n]
		out[k] = campaignd.PointSpec{Bench: m.Bench, CPC: m.CPC, KB: m.KB, LB: m.LB, Bus: m.Bus}
	}
	return out, nil
}

// startService starts a coordinator with no campaign, joins the fleet,
// then enqueues the open campaign (every row held until it arrives).
// The whole sequence is the workload's set-up.
func startService(ctx context.Context, e *env, tag string, rows []campaignd.PointSpec) (*service, error) {
	s := &service{dir: filepath.Join(e.scratch, "service-"+tag), served: make(chan struct{})}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	settle()
	start := time.Now()
	st, err := runstore.Open(s.dir)
	if err != nil {
		return nil, err
	}
	if s.runner, err = experiments.NewRunner(serviceOptions()); err != nil {
		return nil, err
	}
	s.runner.SetStore(st)
	cfg := campaignd.ServerConfig{Runner: s.runner, Store: st}
	if e.traced() {
		s.coord = tracing.New(tracing.Config{Process: "coordinator", Capacity: traceCapacity})
		s.reg = metrics.NewRegistry()
		cfg.Tracer, cfg.Reports, cfg.Metrics = s.coord, simreport.NewCollector(), s.reg
	}
	if s.srv, err = campaignd.New(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.shim = newHandlerShim(s.srv.Handler(), e.traced())
	s.httpSrv = &http.Server{Handler: s.shim}
	go func() {
		defer close(s.served)
		s.httpSrv.Serve(ln)
	}()
	if s.client, err = campaignd.NewClient(s.url); err != nil {
		s.stop()
		return nil, err
	}
	s.fleet = startFleet(s.url, max(1, e.nproc-1), s.reg)

	s.spec = campaignd.CampaignSpec{Name: "perfbench-" + tag, Backend: "analytical", Rows: rows, Open: true}
	reply, err := s.client.Enqueue(ctx, s.spec)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.id = reply.ID
	s.setup = time.Since(start)
	s.points, s.rows = expandCampaign(serviceOptions(), s.spec)
	if len(s.points) != reply.Points {
		s.stop()
		return nil, fmt.Errorf("coordinator expanded %d points, the benchmark %d", reply.Points, len(s.points))
	}
	for _, pt := range s.points {
		s.hashes = append(s.hashes, s.runner.PointKey(pt).Hex())
	}
	return s, nil
}

// stop stops the fleet and the server and waits for both.
func (s *service) stop() {
	if s.fleet != nil {
		s.fleet.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx)
	<-s.served
	os.RemoveAll(s.dir)
}

// expandCampaign mirrors how the coordinator expands a campaign spec:
// per benchmark one private baseline at first appearance, then each
// row in submitted order.
func expandCampaign(opts experiments.Options, spec campaignd.CampaignSpec) ([]experiments.Point, []sweep.Row) {
	var points []experiments.Point
	var rows []sweep.Row
	base := map[string]int{}
	for _, r := range spec.Rows {
		if _, ok := base[r.Bench]; !ok {
			base[r.Bench] = len(points)
			points = append(points, experiments.Point{Bench: r.Bench, Cfg: sweep.BaseConfig(opts.Workers), Backend: spec.Backend})
		}
		rows = append(rows, sweep.Row{
			Bench: r.Bench, CPC: r.CPC, KB: r.KB, LB: r.LB, Bus: r.Bus,
			BaseIdx: base[r.Bench], PointIdx: len(points), Backend: spec.Backend,
		})
		points = append(points, experiments.Point{
			Bench: r.Bench, Cfg: sweep.PointConfig(opts.Workers, r.CPC, r.KB, r.LB, r.Bus), Backend: spec.Backend,
		})
	}
	return points, rows
}

// fleet is the in-process worker fleet. It joins when the service
// starts, before any campaign is live, and a supervisor restarts every
// worker that exits while rows remain.
type fleet struct {
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	finished atomic.Bool  // every row is durable: exits are final
	restarts atomic.Int64 // worker exits while rows remained
}

func startFleet(url string, n int, reg *metrics.Registry) *fleet {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	for i := 0; i < n; i++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for {
				w := &campaignd.Worker{URL: url, ID: fmt.Sprintf("perfbench-w%d", i), Parallelism: 1, Metrics: reg}
				// An error exit is restarted like a clean one; a row it
				// left unfinished fails the awaitDurable gate.
				w.Run(ctx)
				if ctx.Err() != nil || f.finished.Load() {
					return
				}
				f.restarts.Add(1)
				select {
				case <-time.After(restartBackoff):
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	return f
}

func (f *fleet) stop() {
	f.cancel()
	f.wg.Wait()
}

// handlerShim wraps the coordinator's handler. It records when each
// result became durable on the store plane (a PUT /v1/run/{hash}
// answered 2xx); in the traced run it also decodes every lease grant.
type handlerShim struct {
	next   http.Handler
	traced bool

	mu      sync.Mutex
	durable map[string]time.Time
	changed chan struct{} // signalled (non-blocking) on each new durable hash
	leases  []leaseObs
	empty   int
}

// leaseObs is one non-empty lease grant as the coordinator sent it.
type leaseObs struct {
	at     time.Time
	points []experiments.Point
}

func newHandlerShim(next http.Handler, traced bool) *handlerShim {
	return &handlerShim{next: next, traced: traced, durable: map[string]time.Time{},
		changed: make(chan struct{}, 1)}
}

func (h *handlerShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	put := r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/run/")
	lease := h.traced && r.URL.Path == "/v1/lease"
	if !put && !lease {
		h.next.ServeHTTP(w, r)
		return
	}
	rec := &recorder{ResponseWriter: w, keep: lease}
	h.next.ServeHTTP(rec, r)
	now := time.Now()
	var g campaignd.LeaseGrant
	granted := lease && rec.status < 300 && json.Unmarshal(rec.body.Bytes(), &g) == nil && !g.Done
	h.mu.Lock()
	defer h.mu.Unlock()
	if put && rec.status < 300 {
		hash := strings.TrimPrefix(r.URL.Path, "/v1/run/")
		if _, dup := h.durable[hash]; !dup {
			h.durable[hash] = now
			select {
			case h.changed <- struct{}{}:
			default:
			}
		}
	}
	switch {
	case !granted:
	case len(g.Points) == 0:
		h.empty++
	default:
		obs := leaseObs{at: now}
		for _, lp := range g.Points {
			obs.points = append(obs.points, lp.Point)
		}
		h.leases = append(h.leases, obs)
	}
}

// durableAt reports when hash became durable.
func (h *handlerShim) durableAt(hash string) (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.durable[hash]
	return t, ok
}

// routeName folds request paths into their route patterns.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/run/"):
		p = "/v1/run/{hash}"
	case strings.HasPrefix(p, "/v1/campaign/"):
		rest := strings.TrimPrefix(p, "/v1/campaign/")
		p = "/v1/campaign/{id}"
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			p += rest[i:]
		}
	}
	return r.Method + " " + p
}

// recorder captures the status code and, when keep is set, the body.
type recorder struct {
	http.ResponseWriter
	status int
	keep   bool
	body   bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	if r.keep {
		r.body.Write(p)
	}
	return r.ResponseWriter.Write(p)
}

// servicePass is what one open-loop window measured.
type servicePass struct {
	svc      *service
	due      []time.Time // per row
	released []time.Time // per row: when its /arrive call returned
	lagMS    []float64   // per /arrive call: how late the generator sent it
	rowMS    []float64   // due -> durable, rows that completed
	missing  int         // rows never durable
	campaign time.Duration
	csvReady time.Duration
	csv      []byte
	scrapeMS []float64
	rssMB    []float64 // RSS high-water mark of each second of the window
}

// runService runs the open-loop service workload: set the service up
// several times (timing each), then release one open campaign's rows on
// a steady schedule for the window and wait for its merged CSV.
func runService(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	n := int(serviceRPS * e.seconds.Seconds())
	rows, err := serviceRows(e.seed, n)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < serviceSetups-1; k++ {
		s, err := startService(ctx, e, fmt.Sprintf("setup-%d", k), rows)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		s.stop()
	}
	s, err := startService(ctx, e, "window", rows)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	setups = append(setups, s.setup.Seconds())

	resetPeakRSS()
	p, err := s.window(ctx, e)
	if err != nil {
		return nil, err
	}
	out.attempted = len(rows)
	out.failed = p.missing
	if p.missing > 0 {
		out.gate("service: %d of %d rows never became durable", p.missing, len(rows))
	}
	st := s.srv.Stats()
	if dup := st.Store.Writes - int64(st.Dispatch.Done); dup != 0 {
		out.gate("service: %d duplicate store writes", dup)
	}
	var reads []float64
	for k := 0; k < serviceReads; k++ {
		settle()
		start := time.Now()
		csv, err := s.client.CampaignCSV(ctx, s.id)
		if err != nil {
			return nil, err
		}
		reads = append(reads, time.Since(start).Seconds())
		if d := csvDiff(csv, p.csv); d != "" {
			out.gate("service: re-fetched /csv differs from the first: %s", d)
		}
	}
	want, err := s.singleProcessCSV(ctx, e)
	if err != nil {
		return nil, err
	}
	if d := csvDiff(p.csv, want); d != "" {
		out.gate("service: merged /csv differs from the single-process sweep of the same rows: %s", d)
	}
	e.lay.serviceWindow(p, e)
	out.put("setup_s", setups)
	out.samples["campaign_s"] = 1
	out.metrics["campaign_s"] = p.campaign.Seconds()
	out.put("read_s", reads)
	out.put("peak_rss_mb", p.rssMB)
	out.putRows([][]float64{p.rowMS})
	return out, nil
}

// window releases the rows on the steady schedule and waits until all
// of them are durable and the merged CSV is served.
func (s *service) window(ctx context.Context, e *env) (*servicePass, error) {
	pts := make([]synth.ArrivalPoint, len(s.spec.Rows))
	for k, r := range s.spec.Rows {
		pts[k] = synth.ArrivalPoint{Bench: r.Bench, CPC: r.CPC, KB: r.KB, LB: r.LB, Bus: r.Bus, Backend: "analytical"}
	}
	sched, err := synth.SynthesizeArrivals(synth.ArrivalSpec{Mode: synth.ArrivalSteady, StartRPS: serviceRPS, Slot: time.Second}, pts)
	if err != nil {
		return nil, err
	}
	p := &servicePass{svc: s, due: make([]time.Time, len(sched)), released: make([]time.Time, len(sched))}
	stopScrape := s.scrapeLoop(e, &p.scrapeMS)
	defer stopScrape()
	stopRSS := sampleRSS(time.Second, &p.rssMB)
	defer stopRSS()

	t0 := time.Now().Add(serviceLead)
	for k := range sched {
		p.due[k] = t0.Add(sched[k].Offset)
	}
	for k := 0; k < len(sched); {
		if wait := time.Until(p.due[k]); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// Everything now due ships in one call; the generator never
		// waits for completion — that is the open loop.
		batch := []int{k}
		for k++; k < len(sched) && !p.due[k].After(time.Now()); k++ {
			batch = append(batch, k)
		}
		sent := time.Now()
		if err := s.client.Arrive(ctx, s.id, batch, sched[batch[len(batch)-1]].Offset.Milliseconds()); err != nil {
			return nil, err
		}
		now := time.Now()
		p.lagMS = append(p.lagMS, ms(sent.Sub(p.due[batch[0]])))
		for _, i := range batch {
			p.released[i] = now
		}
	}
	err = s.awaitDurable(ctx)
	s.fleet.finished.Store(true)
	if err == nil {
		p.csv, err = s.fetchCSV(ctx)
	}
	csvAt := time.Now()
	stopScrape()
	stopRSS()
	if err != nil && !errors.Is(err, errIncomplete) {
		return nil, err
	}
	p.campaign = csvAt.Sub(p.due[0])
	p.csvReady = csvAt.Sub(p.due[len(p.due)-1])
	for k, r := range s.rows {
		at, ok := s.shim.durableAt(s.hashes[r.PointIdx])
		if !ok {
			p.missing++
			continue
		}
		p.rowMS = append(p.rowMS, ms(at.Sub(p.due[k])))
	}
	return p, nil
}

var errIncomplete = errors.New("campaign incomplete")

// awaitDurable waits until every point of the campaign is durable.
func (s *service) awaitDurable(ctx context.Context) error {
	deadline := time.After(drainTimeout)
	for {
		left := 0
		for _, h := range s.hashes {
			if _, ok := s.shim.durableAt(h); !ok {
				left++
			}
		}
		if left == 0 {
			return nil
		}
		select {
		case <-s.shim.changed:
		case <-deadline:
			return fmt.Errorf("%w: %d points not durable after %s", errIncomplete, left, drainTimeout)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// fetchCSV fetches the merged CSV. The store-plane PUT that completes
// the last point also marks it done, so the first fetch normally
// succeeds; a 409 is retried briefly.
func (s *service) fetchCSV(ctx context.Context) ([]byte, error) {
	var err error
	for k := 0; k < 200; k++ {
		var body []byte
		if body, err = s.client.CampaignCSV(ctx, s.id); err == nil {
			return body, nil
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, err
}

// scrapeLoop scrapes GET /metrics every 500 ms in the traced run,
// timing each scrape into out. The returned func stops the loop and
// waits for it; calling it again is harmless.
func (s *service) scrapeLoop(e *env, out *[]float64) func() {
	if !e.traced() {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := &http.Client{Timeout: 5 * time.Second}
		for {
			select {
			case <-done:
				return
			case <-time.After(500 * time.Millisecond):
			}
			start := time.Now()
			resp, err := hc.Get(s.url + "/metrics")
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			*out = append(*out, ms(time.Since(start)))
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// singleProcessCSV is the CSV a single-process sweep of the same rows
// prints: a fresh Runner with no store simulates every point.
func (s *service) singleProcessCSV(ctx context.Context, e *env) ([]byte, error) {
	r, err := experiments.NewRunner(serviceOptions())
	if err != nil {
		return nil, err
	}
	results, err := r.RunAll(ctx, s.points...)
	if err != nil {
		return nil, err
	}
	return s.render(filepath.Join(e.scratch, "service-local.csv"), results)
}

func (s *service) render(path string, results []*core.Result) ([]byte, error) {
	b := batchSpec{opts: serviceOptions(), backendCol: true}
	return b.renderCSV(path, s.rows, results)
}
