package campaignd

// The campaign service plane: what turns a per-campaign coordinator
// into a persistent multi-campaign server.
//
//	POST /v1/campaign              enqueue a campaign (CampaignSpec ->
//	                               EnqueueReply); accepted while serving
//	GET  /v1/campaign/{id}         per-campaign progress (CampaignStatus)
//	GET  /v1/campaign/{id}/csv     the campaign's merged CSV — 409 until
//	                               every point is done
//	POST /v1/campaign/{id}/arrive  release held rows of an open-loop
//	                               campaign (arriveRequest)
//
// A spec names only design-space coordinates — benchmark plus the
// shared-I-cache axes of internal/sweep — never simulation options:
// instruction budget, seed and worker count are the server's, exactly
// as they are for workers, so every submitter computes the same store
// keys and overlapping campaigns deduplicate instead of diverging.
// The server expands each spec the way sweep.Space.Build would (one
// private baseline per benchmark, then the swept rows in submitted
// order), which is what makes GET /v1/campaign/{id}/csv byte-identical
// to the single-process `cmd/sweep` run over the same space.
//
// Open campaigns (Open: true) park their swept rows in the dispatch
// queue's held state; `sweep -replay` then releases them at
// trace-dictated times via /arrive, and the gap between the trace's
// due time and the submission's landing is booked into the
// campaignd_arrival_lag_seconds histogram — the saturation signal of
// the open-loop driver.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

// PointSpec is one submitted campaign row: a benchmark and the
// shared-I-cache axes, with an optional per-row backend override.
type PointSpec struct {
	Bench            string
	CPC, KB, LB, Bus int
	// Backend overrides the campaign backend for this row ("" keeps it).
	Backend string `json:",omitempty"`
}

// CampaignSpec is the POST /v1/campaign body.
type CampaignSpec struct {
	// Name labels the campaign in status surfaces (optional).
	Name string `json:",omitempty"`
	// Backend stamps every point (baselines included) with a
	// simulation-backend override, exactly like `sweep -backend`; its
	// presence also selects the CSV backend column, so the merged CSV
	// matches the equivalent single-process run.
	Backend string `json:",omitempty"`
	// Rows are the swept design points in CSV emission order.
	Rows []PointSpec
	// Open parks every swept row in the held state until a
	// /arrive call releases it (baselines are leasable immediately, so
	// normalisation denominators are ready before the first row lands).
	Open bool `json:",omitempty"`
}

// EnqueueReply is the POST /v1/campaign response.
type EnqueueReply struct {
	ID int
	// Points is the expanded plan size: len(Rows) plus one private
	// baseline per distinct benchmark.
	Points int
}

// CampaignStatus is the GET /v1/campaign/{id} body.
type CampaignStatus struct {
	ID   int
	Name string
	// Points counts plan points (rows + baselines); Done those durably
	// in the store; Held declared-but-unarrived open-loop points.
	Points, Done, Held int
	// Rows is the swept row count (the merged CSV's data rows).
	Rows     int
	Complete bool
}

// arriveRequest is the POST /v1/campaign/{id}/arrive body: Rows are
// campaign-local row indexes (position in CampaignSpec.Rows), and
// OffsetMillis is the trace offset the submission was due at, which
// the arrival-lag histogram measures the landing against.
type arriveRequest struct {
	Rows         []int
	OffsetMillis int64
}

// campaign is the server-side record of one enqueued campaign.
type campaign struct {
	id      int
	name    string
	backend string
	// points is the campaign-local plan; rows carries the CSV metadata
	// with campaign-local indexes (nil for the driver's initial
	// campaign, whose merge the driver renders itself via Stream).
	points   []experiments.Point
	rows     []sweep.Row
	base     int // global dispatch index of points[0]
	accepted time.Time
}

// buildCampaign expands a spec into its plan the way sweep.Space.Build
// would: per benchmark one private baseline at first appearance, then
// every swept row in submitted order. Rows a local sweep would skip
// (cpc < 2, worker count not divisible by cpc, configurations the
// simulator rejects) are errors here — a submitter naming them got the
// space wrong, and silently dropping rows would break the
// byte-identity of the merged CSV.
func (s *Server) buildCampaign(spec CampaignSpec) (points []experiments.Point, rows []sweep.Row, held []bool, err error) {
	opts := s.runner.Options()
	workers := opts.Workers
	baseIdx := map[string]int{}
	for k, r := range spec.Rows {
		if r.Bench == "" {
			return nil, nil, nil, fmt.Errorf("row %d: empty benchmark", k)
		}
		if _, ok := baseIdx[r.Bench]; !ok {
			baseIdx[r.Bench] = len(points)
			points = append(points, experiments.Point{
				Bench: r.Bench, Cfg: sweep.BaseConfig(workers), Backend: spec.Backend,
			})
			held = append(held, false)
		}
		if r.CPC < 2 || workers%r.CPC != 0 {
			return nil, nil, nil, fmt.Errorf("row %d: cpc %d invalid for %d workers", k, r.CPC, workers)
		}
		cfg := sweep.PointConfig(workers, r.CPC, r.KB, r.LB, r.Bus)
		if err := cfg.Validate(); err != nil {
			return nil, nil, nil, fmt.Errorf("row %d: %w", k, err)
		}
		backend := r.Backend
		if backend == "" {
			backend = spec.Backend
		}
		rows = append(rows, sweep.Row{
			Bench: r.Bench, CPC: r.CPC, KB: r.KB, LB: r.LB, Bus: r.Bus,
			BaseIdx: baseIdx[r.Bench], PointIdx: len(points),
			Backend: opts.PointBackend(experiments.Point{Backend: backend}),
		})
		points = append(points, experiments.Point{Bench: r.Bench, Cfg: cfg, Backend: backend})
		held = append(held, spec.Open)
	}
	return points, rows, held, nil
}

// handleEnqueueCampaign admits a campaign while serving: expand, check
// every named backend is registered in this process (the same
// key-divergence guard New applies to the initial plan), append to the
// dispatch queue, and sweep the warm store so already-published points
// complete without dispatch.
func (s *Server) handleEnqueueCampaign(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !readJSON(w, r, maxRequestBytes, &spec) {
		return
	}
	if len(spec.Rows) == 0 {
		http.Error(w, "campaign spec has no rows", http.StatusBadRequest)
		return
	}
	points, rows, held, err := s.buildCampaign(spec)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad campaign spec: %v", err), http.StatusBadRequest)
		return
	}
	opts := s.runner.Options()
	backendOf := make([]string, len(points))
	hashes := make([]string, len(points))
	for i, pt := range points {
		name := opts.PointBackend(pt)
		if !experiments.BackendRegistered(name) {
			http.Error(w, fmt.Sprintf(
				"campaign point %d (%s) names backend %q, which this coordinator does not register",
				i, pt.Bench, name), http.StatusBadRequest)
			return
		}
		backendOf[i] = name
		hashes[i] = s.runner.PointKey(pt).Hex()
	}
	id, base := s.d.addCampaign(points, hashes, backendOf, held)
	c := &campaign{
		id: id, name: spec.Name, backend: spec.Backend,
		points: points, rows: rows, base: base, accepted: s.now(),
	}
	s.campMu.Lock()
	s.campaigns[id] = c
	s.campMu.Unlock()
	if s.tracer != nil {
		s.tracer.Record("campaign.enqueue", tracing.SpanContext{}, c.accepted, s.now(),
			tracing.AInt("campaign", id),
			tracing.A("name", spec.Name),
			tracing.AInt("points", len(points)))
	}
	for _, h := range hashes {
		if s.store.ContainsHash(h) {
			s.d.completeHash(h)
		}
	}
	writeJSON(w, EnqueueReply{ID: id, Points: len(points)})
}

// campaignByID resolves the {id} path value to an enqueued campaign.
func (s *Server) campaignByID(w http.ResponseWriter, r *http.Request) (*campaign, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "malformed campaign id", http.StatusBadRequest)
		return nil, false
	}
	s.campMu.Lock()
	c, ok := s.campaigns[id]
	s.campMu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return nil, false
	}
	return c, true
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	p := s.d.campaignProgress(c.id)
	writeJSON(w, CampaignStatus{
		ID: c.id, Name: c.name,
		Points: p.Points, Done: p.Done, Held: p.Held,
		Rows:     len(c.rows),
		Complete: p.Points > 0 && p.Done == p.Points,
	})
}

// handleCampaignCSV renders a completed campaign's merged CSV from the
// store — the coordinator never simulates — with the backend column
// exactly when the spec named a backend, mirroring `sweep -backend`.
func (s *Server) handleCampaignCSV(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	if c.rows == nil {
		http.Error(w, "campaign carries no row metadata (initial driver campaign; merge via its driver)",
			http.StatusNotFound)
		return
	}
	if p := s.d.campaignProgress(c.id); p.Done != p.Points {
		http.Error(w, fmt.Sprintf("campaign incomplete: %d/%d points done", p.Done, p.Points),
			http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	out := sweep.NewCSV(w, s.runner.Options().Workers)
	if c.backend != "" {
		out.IncludeBackendColumn()
	}
	if err := out.Header(); err != nil {
		return
	}
	for _, m := range c.rows {
		base, ok := s.runner.Lookup(c.points[m.BaseIdx])
		if !ok {
			http.Error(w, fmt.Sprintf("store lost the baseline for %s", m.Bench), http.StatusInternalServerError)
			return
		}
		res, ok := s.runner.Lookup(c.points[m.PointIdx])
		if !ok {
			http.Error(w, fmt.Sprintf("store lost the result for %s cpc=%d", m.Bench, m.CPC), http.StatusInternalServerError)
			return
		}
		if err := out.Row(m, base, res); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	// Too late for a status change if the flush fails; the client's CSV
	// parser will reject the truncated body.
	_ = out.Flush()
}

// handleArrive releases held rows of an open-loop campaign and books
// each submission's lag behind its trace-dictated due time. The lag is
// measured on the server's clock against the campaign's accept time,
// so replay drivers need no clock agreement with the coordinator;
// sub-zero lags (a driver running ahead) clamp to zero.
func (s *Server) handleArrive(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	var req arriveRequest
	if !readJSON(w, r, maxRequestBytes, &req) {
		return
	}
	indexes := make([]int, len(req.Rows))
	for k, row := range req.Rows {
		if row < 0 || row >= len(c.rows) {
			http.Error(w, fmt.Sprintf("row index %d out of range", row), http.StatusBadRequest)
			return
		}
		indexes[k] = c.base + c.rows[row].PointIdx
	}
	if err := s.d.markArrived(indexes); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lag := s.now().Sub(c.accepted) - time.Duration(req.OffsetMillis)*time.Millisecond
	if lag < 0 {
		lag = 0
	}
	s.arrivalLag.Observe(lag.Seconds())
	w.WriteHeader(http.StatusNoContent)
}
