// Package campaignd is the distributed campaign coordinator: it serves
// the on-disk run store over HTTP (the store plane) and dispatches
// campaign plans to remote workers under TTL leases (the dispatch
// plane), so a design-space sweep fans out across machines with no
// shared filesystem.
//
// # Store plane
//
//	GET /v1/run/{hash}   entry bytes, 404 on miss (Content-Encoding:
//	                     gzip for clients that accept it); a hit
//	                     completes the campaign points stored under it
//	PUT /v1/run/{hash}   publish an entry (validated, atomic), 204;
//	                     gzip or plain-JSON bodies both verify; an
//	                     X-Wall-Seconds header carries the point's
//	                     execution wall time
//	GET /v1/index        JSON index of trustworthy entries
//	GET /v1/statsz       store + dispatch counters (JSON, or a
//	                     human-readable page for Accept: text/html)
//	GET /metrics         the same counters in Prometheus text
//	                     exposition (internal/metrics) — statsz renders
//	                     from the identical registry snapshot, so the
//	                     two surfaces cannot drift
//
// Entries travel in the runstore wire encoding — gzip-compressed by
// default, sniffed on receipt — and are validated on both ends, so
// the store's corruption-as-miss semantics survive the network hop:
// the server never serves debris, and a client treats a garbled
// response as a miss, never an error. RemoteStore implements the
// experiments.ResultStore interface over this plane, so a Runner
// pointed at a coordinator gets the same memory -> store -> simulate
// tiering as one pointed at a local directory.
//
// # Dispatch plane
//
//	GET  /v1/campaign    campaign options + lease TTL + batch size
//	POST /v1/lease       claim a batch of plan points under a TTL lease,
//	                     only points on the backends the worker names
//	POST /v1/renew       heartbeat: extend a lease's deadline
//	POST /v1/complete    end a lease, returning its unfinished points
//	                     to the queue; the body also carries the
//	                     worker's spans
//	GET  /v1/trace       the campaign's merged span timeline as Chrome
//	                     trace-event JSON (404 unless tracing is on)
//	GET  /v1/simstatsz   campaign-wide simulation-telemetry aggregate
//	                     (simreport.Summary JSON; 404 unless reporting
//	                     is on)
//
// With tracing enabled (ServerConfig.Tracer) every lease grant carries
// an X-Trace-Context response header; workers parent their spans under
// it and send them back with completion, so GET /v1/trace exports
// one merged timeline of queue wait, leases, execution and writes.
//
// With reporting enabled (ServerConfig.Reports) the coordinator builds
// each campaign point's simulation report (internal/simreport) from the
// entry its PUT stores, with the wall time the PUT's X-Wall-Seconds
// header carries, so GET /v1/simstatsz serves the whole campaign's
// microarchitectural aggregate — CPI stall-stack shares,
// per-benchmark/per-config distributions, and
// simulated-cycles-per-second — while it runs. Workers ship no reports.
//
// Workers lease batches in plan order, heartbeat to keep them, publish
// each result through the store plane, then complete the lease. Each
// lease request lists the simulation backends the worker registers,
// and the coordinator grants only points on those backends, so a
// mixed-backend plan splits across heterogeneous workers without any
// point being handed back. A
// worker that dies simply stops heartbeating: its lease expires and
// the unfinished points return to the queue for the surviving workers
// to steal. A point is *done* exactly when its result is durably in
// the store — the store plane marks points complete when it accepts a
// PUT or answers a GET with a hit, and nothing else does — so a
// campaign enqueued over a warm store resumes where it left off, and
// Server.Stream can merge results in plan order while the campaign is
// still running.
//
// Every campaign enters through one path, Server.Enqueue (which
// POST /v1/campaign wraps), and leaves through one path,
// Server.WriteCSV (which GET /v1/campaign/{id}/csv wraps). Server.Seal
// closes the entry: workers are told the work is over only once the
// coordinator is sealed and every point is done, so a serving
// coordinator's workers outlive the campaigns submitted so far.
package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/metrics"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/tracing"
)

// Default dispatch tuning; ServerConfig overrides.
const (
	DefaultTTL   = 30 * time.Second
	DefaultBatch = 8
)

// maxEntryBytes bounds a store-plane PUT body.
const maxEntryBytes = 16 << 20

// wallHeader carries a PUT entry's backend execution wall time in
// seconds (see experiments.ContextWithWall).
const wallHeader = "X-Wall-Seconds"

// ServerConfig assembles a coordinator.
type ServerConfig struct {
	// Runner defines the campaign: its options are served to workers
	// (so every worker computes identical store keys) and its attached
	// store resolves merged results. The caller must have attached
	// Store to it.
	Runner *experiments.Runner
	// Store backs the store plane.
	Store *runstore.Store
	// TTL is the lease lifetime (default DefaultTTL); a worker must
	// heartbeat within it or its lease expires back onto the queue.
	TTL time.Duration
	// Batch is the most points one lease hands out. Zero (the
	// default) selects adaptive sizing: the dispatcher derives the
	// batch from the observed mean point latency so a lease keeps a
	// worker busy for about a third of the TTL (DefaultBatch until the
	// first lease completes). A positive value pins the size.
	Batch int
	// Metrics receives the coordinator's instruments and is served at
	// GET /metrics. Nil creates a private registry. Pass the registry
	// already attached to the Runner (and anything else the process
	// wants scraped, e.g. a co-resident worker's counters) to publish
	// everything through one endpoint.
	Metrics *metrics.Registry
	// Tracer, when non-nil, turns on dispatch-plane tracing: every
	// lease grant opens a span whose context rides the X-Trace-Context
	// response header (workers parent their batch spans under it and
	// send the finished spans back inside POST /v1/complete), each
	// granted point's queue wait is booked as an "enqueue" span, and the
	// merged timeline is served as Chrome trace-event JSON at
	// GET /v1/trace. Nil (the default) disables tracing and drops spans.
	Tracer *tracing.Tracer
	// Reports, when non-nil, turns on campaign-wide simulation
	// telemetry: each PUT /v1/run/{hash} of a campaign point adds the
	// report built from the stored entry (internal/simreport), and the
	// aggregate is served as JSON at GET /v1/simstatsz. Nil (the
	// default) disables it.
	Reports *simreport.Collector

	// now overrides the clock in tests.
	now func() time.Time
}

// Server coordinates any number of campaigns, each admitted by
// Enqueue (or POST /v1/campaign) and merged by Stream or WriteCSV.
// Create with New and expose with Handler; with no campaign enqueued
// it is a pure network store.
type Server struct {
	runner  *experiments.Runner
	store   *runstore.Store
	d       *dispatch
	mux     *http.ServeMux
	metrics *metrics.Registry
	tracer  *tracing.Tracer
	reports *simreport.Collector
	now     func() time.Time

	// campMu guards the campaign records; the dispatch queue
	// itself has its own lock.
	campMu     sync.Mutex
	campaigns  map[int]*campaign
	arrivalLag *metrics.Histogram
}

// CampaignInfo is the dispatch-plane handshake: everything a worker
// needs to build a Runner whose store keys match the coordinator's.
type CampaignInfo struct {
	Options   experiments.Options
	TTLMillis int64
	Batch     int
}

// LeasedPoint is one dispatched plan point.
type LeasedPoint struct {
	Index int
	Point experiments.Point
}

// leaseRequest/renewRequest/completeRequest are the dispatch-plane
// request bodies. Backends names the simulation backends the worker
// registers; only points resolving to one of them are granted.
type leaseRequest struct {
	Worker   string
	Max      int
	Backends []string
}

// LeaseGrant is the coordinator's answer to a lease request: a batch
// of plan points owned until TTLMillis elapses without a renewal.
type LeaseGrant struct {
	Lease     string
	TTLMillis int64
	Points    []LeasedPoint
	// Done reports the coordinator sealed against new campaigns with
	// every point complete; an empty Points with Done false means
	// "nothing runnable is pending, poll again".
	Done bool
	// TraceContext is the lease span's "traceID/spanID" context when
	// the coordinator traces, "" otherwise. It travels in the
	// X-Trace-Context response header, not the JSON body; Client.Lease
	// fills it in for the worker.
	TraceContext string `json:"-"`
}

type renewRequest struct{ Lease string }

// completeRequest also carries the worker's spans since its last
// delivered Complete.
type completeRequest struct {
	Lease string
	Spans []tracing.Span `json:",omitempty"`
}

// Statsz is the /v1/statsz body.
type Statsz struct {
	Store    runstore.Stats
	Dispatch DispatchStats
	// Memo aggregates the runner's synthesis/prewarm memo counters
	// across backends (zero-valued when no memoising backend has run).
	Memo experiments.MemoStats
}

// New builds a coordinator over its backing store, with no campaign
// enqueued yet.
func New(cfg ServerConfig) (*Server, error) {
	if cfg.Runner == nil || cfg.Store == nil {
		return nil, errors.New("campaignd: ServerConfig needs a Runner and a Store")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("campaignd: negative lease batch %d", cfg.Batch)
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		runner:    cfg.Runner,
		store:     cfg.Store,
		d:         newDispatch(cfg.TTL, cfg.Batch, cfg.now),
		tracer:    cfg.Tracer,
		reports:   cfg.Reports,
		now:       cfg.now,
		campaigns: map[int]*campaign{},
	}
	s.d.tracer = cfg.Tracer
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	s.metrics = cfg.Metrics
	cfg.Store.RegisterMetrics(s.metrics)
	s.d.registerMetrics(s.metrics)
	// Registered up front — not on first observation — so the family is
	// scrapeable (with zero counts) before any open-loop campaign runs.
	s.arrivalLag = s.metrics.Histogram("campaignd_arrival_lag_seconds",
		"seconds an open-loop submission lagged its trace-dictated arrival time", metrics.DurationBuckets)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/run/{hash}", s.handleGetRun)
	s.mux.HandleFunc("PUT /v1/run/{hash}", s.handlePutRun)
	s.mux.HandleFunc("GET /v1/index", s.handleIndex)
	s.mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /v1/campaign", s.handleCampaign)
	s.mux.HandleFunc("POST /v1/campaign", s.handleEnqueueCampaign)
	s.mux.HandleFunc("GET /v1/campaign/{id}", s.handleCampaignStatus)
	s.mux.HandleFunc("GET /v1/campaign/{id}/csv", s.handleCampaignCSV)
	s.mux.HandleFunc("POST /v1/campaign/{id}/arrive", s.handleArrive)
	s.mux.HandleFunc("POST /v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /v1/renew", s.handleRenew)
	s.mux.HandleFunc("POST /v1/complete", s.handleComplete)
	s.mux.HandleFunc("GET /v1/trace", s.handleGetTrace)
	s.mux.HandleFunc("GET /v1/simstatsz", s.handleSimStatsz)
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	return s, nil
}

// Tracer returns the coordinator's tracer (nil when tracing is off).
func (s *Server) Tracer() *tracing.Tracer { return s.tracer }

// Reports returns the coordinator's simulation-report collector (nil
// when reporting is off). The driver's -report flag writes it to a
// file at exit.
func (s *Server) Reports() *simreport.Collector { return s.reports }

// Handler returns the coordinator's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry GET /metrics serves.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Seal closes the coordinator to new campaigns: Enqueue and
// POST /v1/campaign refuse from then on (ErrSealed, 409), and once
// every enqueued point is done, lease answers tell workers the work is
// over. A one-shot coordinator seals right after enqueueing its
// campaign; a serving one never seals, so its workers keep polling.
func (s *Server) Seal() { s.d.seal() }

// Stats snapshots both planes from the metrics registry — /v1/statsz
// renders the same samples GET /metrics exposes, so the two surfaces
// cannot drift.
func (s *Server) Stats() Statsz {
	snap := s.metrics.Snapshot()
	intOf := func(name string) int64 {
		v, _ := snap.Value(name)
		return int64(v)
	}
	sumOf := func(name string) uint64 {
		v, _ := snap.Sum(name)
		return uint64(v)
	}
	return Statsz{
		Store: runstore.Stats{
			Hits:       intOf("runstore_hits_total"),
			Misses:     intOf("runstore_misses_total"),
			Writes:     intOf("runstore_writes_total"),
			BadEntries: intOf("runstore_bad_entries_total"),
		},
		Dispatch: s.d.stats(),
		Memo: experiments.MemoStats{
			SynthHits:     sumOf("runner_synth_memo_hits_total"),
			SynthMisses:   sumOf("runner_synth_memo_misses_total"),
			PrewarmHits:   sumOf("runner_prewarm_memo_hits_total"),
			PrewarmMisses: sumOf("runner_prewarm_memo_misses_total"),
		},
	}
}

// --- store plane ---

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !runstore.ValidHash(hash) {
		http.Error(w, "malformed content address", http.StatusBadRequest)
		return
	}
	raw, ok := s.store.GetRaw(hash)
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.d.completeHash(hash) // a durable result, PUT or not
	w.Header().Set("Content-Type", "application/json")
	// Entries sit on disk gzip-compressed; ship them as-is to clients
	// that accept the encoding and unwrap server-side for the rest.
	if runstore.Compressed(raw) {
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			plain, ok := runstore.Decompress(raw)
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Write(plain)
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.Write(raw)
}

func (s *Server) handlePutRun(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !runstore.ValidHash(hash) {
		http.Error(w, "malformed content address", http.StatusBadRequest)
		return
	}
	host, err := hostCost(r.Header.Get(wallHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// DecodeEntry sniffs the gzip magic, so Content-Encoding: gzip
	// bodies (the RemoteStore default) and plain JSON both verify.
	k, res, ok := runstore.DecodeEntry(raw)
	if !ok || k.Hex() != hash {
		http.Error(w, "entry does not verify against its content address", http.StatusBadRequest)
		return
	}
	// A pushing worker labels the PUT with its trace context, so the
	// coordinator-side durable write shows up in the merged timeline
	// under the worker's store.write span.
	ctx := r.Context()
	if sc, ok := tracing.ParseContext(r.Header.Get(tracing.Header)); ok {
		ctx = tracing.ContextWith(ctx, sc)
	}
	_, span := s.tracer.Start(ctx, "store.put", tracing.A("hash", hash[:12]))
	err = s.store.Put(k, res)
	span.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The durable write IS the point's completion; the dispatch plane's
	// Complete only releases the lease. A campaign point's report is a
	// pure function of the entry just verified, plus the wall time.
	if b, ok := s.d.completeHash(hash); ok && s.reports != nil {
		report := simreport.FromResult(hash, k.Bench, b, k.Prewarm, res)
		report.Host = host
		s.reports.Add(report)
	}
	w.WriteHeader(http.StatusNoContent)
}

// hostCost parses a PUT's wall header: absent means the result was not
// timed (a replayed report), anything but a finite number >= 0 is
// malformed.
func hostCost(v string) (simreport.HostCost, error) {
	if v == "" {
		return simreport.HostCost{Replayed: true}, nil
	}
	sec, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
		return simreport.HostCost{}, fmt.Errorf("malformed %s header %q", wallHeader, v)
	}
	return simreport.HostCost{WallSeconds: sec}, nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	entries, err := s.store.Index()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, entries)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	if wantsHTML(r) {
		s.serveStatszHTML(w, st)
		return
	}
	writeJSON(w, st)
}

// --- dispatch plane ---

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, CampaignInfo{
		Options:   s.runner.Options(),
		TTLMillis: s.d.ttl.Milliseconds(),
		Batch:     s.d.Batch(),
	})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, maxRequestBytes, &req) {
		return
	}
	id, indexes, _, allDone := s.d.Lease(req.Worker, req.Max, req.Backends)
	// Hand the worker the lease span's trace context so its batch and
	// point spans parent under this grant in the merged timeline.
	if sc := s.d.LeaseContext(id); sc.Valid() {
		w.Header().Set(tracing.Header, sc.String())
	}
	resp := LeaseGrant{Lease: id, TTLMillis: s.d.ttl.Milliseconds(), Done: allDone}
	for k, pt := range s.d.pointsAt(indexes) {
		resp.Points = append(resp.Points, LeasedPoint{Index: indexes[k], Point: pt})
	}
	writeJSON(w, resp)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !readJSON(w, r, maxRequestBytes, &req) {
		return
	}
	if !s.d.Renew(req.Lease) {
		http.Error(w, "lease expired or unknown", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleComplete ends a lease and ingests the spans riding with it
// whenever the body decodes — even for an expired lease, whose results
// are already durable — dropping them when this coordinator does not
// trace (the tracer is nil-safe).
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !readJSON(w, r, maxCompleteBytes, &req) {
		return
	}
	s.tracer.Ingest(req.Spans)
	s.d.Complete(req.Lease)
	w.WriteHeader(http.StatusNoContent)
}

// --- telemetry plane ---

// handleGetTrace exports the coordinator's merged timeline — its own
// dispatch spans plus every span workers have sent — as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing disabled (start the coordinator with -trace)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tracing.WriteChromeTrace(w, s.tracer.Spans())
}

// handleSimStatsz serves the campaign-wide simulation-telemetry
// aggregate: totals, stall shares, and deterministic per-backend and
// per-(bench, backend, org, cpc) groups with distributions.
func (s *Server) handleSimStatsz(w http.ResponseWriter, r *http.Request) {
	if s.reports == nil {
		http.Error(w, "simulation reporting disabled (start the coordinator with -report)", http.StatusNotFound)
		return
	}
	writeJSON(w, s.reports.Summary())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the client's decoder will fail.
		return
	}
}

// Request body bounds: a Complete carries a batch's spans (a few hundred
// bytes each); the rest are small.
const (
	maxRequestBytes  = 1 << 20
	maxCompleteBytes = 8 << 20
)

func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}
