package campaignd

// The campaign service plane: every campaign's one admission path
// (Server.Enqueue) and one merge path (Server.WriteCSV), and the HTTP
// endpoints that wrap them.
//
//	POST /v1/campaign              enqueue a campaign (CampaignSpec ->
//	                               EnqueueReply); accepted until the
//	                               server is sealed, 409 after
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
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
	id   int
	name string
	csv  sweep.Shape
	// points is the campaign-local plan; rows carries the CSV metadata
	// with campaign-local indexes.
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

// Enqueue admits a campaign: its plan points in plan order, the CSV
// rows indexing them, and the shape those rows render in. It is the
// Go twin of POST /v1/campaign and returns the campaign ID.
//
// A campaign with no rows is refused, so is any campaign once the
// server is sealed (ErrSealed), and so is one naming a backend
// this process does not register: the coordinator's store keys embed
// the backend's versioned fingerprint, so a backend it cannot resolve
// would hash differently here than on the capable worker that
// executes it — the worker's results would land under keys the
// dispatch plane never matches, silently wedging the merge. Points
// already in the store complete at once, so a campaign enqueued over
// a warm store resumes instead of re-dispatching finished work.
func (s *Server) Enqueue(name string, points []experiments.Point, rows []sweep.Row, shape sweep.Shape) (int, error) {
	return s.enqueue(name, points, rows, shape, nil)
}

// enqueue is Enqueue plus the held states of an open campaign's
// points (nil: every point leasable at once).
func (s *Server) enqueue(name string, points []experiments.Point, rows []sweep.Row, shape sweep.Shape, held []bool) (int, error) {
	if len(rows) == 0 {
		return 0, errors.New("campaignd: campaign has no rows")
	}
	opts := s.runner.Options()
	backendOf := make([]string, len(points))
	hashes := make([]string, len(points))
	for i, pt := range points {
		b := opts.PointBackend(pt)
		if !experiments.BackendRegistered(b) {
			return 0, fmt.Errorf(
				"campaignd: campaign point %d (%s) names backend %q, which this coordinator does not register — build the coordinator with the backend linked in",
				i, pt.Bench, b)
		}
		backendOf[i] = b
		hashes[i] = s.runner.PointKey(pt).Hex()
	}
	id, base, err := s.d.addCampaign(points, hashes, backendOf, held)
	if err != nil {
		return 0, err
	}
	c := &campaign{
		id: id, name: name, csv: shape,
		points: points, rows: rows, base: base, accepted: s.now(),
	}
	s.campMu.Lock()
	s.campaigns[id] = c
	s.campMu.Unlock()
	if s.tracer != nil {
		s.tracer.Record("campaign.enqueue", tracing.SpanContext{}, c.accepted, s.now(),
			tracing.AInt("campaign", id),
			tracing.A("name", name),
			tracing.AInt("points", len(points)))
	}
	// The campaign's source of truth is the store, not the queue.
	for _, h := range hashes {
		if s.store.ContainsHash(h) {
			s.d.completeHash(h)
		}
	}
	return id, nil
}

// WriteCSV renders campaign id's merged CSV to w in its enqueued
// shape: the header, then each row as soon as its point and baseline
// are durably in the store, flushed per delivery so rows reach the
// consumer while later points still run. EmitStream is the same loop
// a single-process sweep runs, which keeps the two byte-identical. It
// returns the merge's terminal error, if any: an unknown id, a
// cancelled ctx, a result lost from the store, a failed write.
func (s *Server) WriteCSV(ctx context.Context, w io.Writer, id int) error {
	c, ok := s.campaign(id)
	if !ok {
		return fmt.Errorf("campaignd: unknown campaign %d", id)
	}
	out := c.csv.NewCSV(w, s.runner.Options().Workers)
	if err := out.Header(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	ch := s.Stream(ctx, id)
	err := out.EmitStream(ch, c.rows, len(c.points))
	// A failed write leaves the stream mid-flight: cancel and drain it.
	cancel()
	for range ch {
	}
	return err
}

// handleEnqueueCampaign admits a campaign while serving: expand the
// spec, then Enqueue it with its open rows held.
func (s *Server) handleEnqueueCampaign(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !readJSON(w, r, maxRequestBytes, &spec) {
		return
	}
	points, rows, held, err := s.buildCampaign(spec)
	var id int
	if err == nil {
		id, err = s.enqueue(spec.Name, points, rows, sweep.Shape{Backend: spec.Backend != ""}, held)
	}
	switch {
	case errors.Is(err, ErrSealed):
		http.Error(w, err.Error(), http.StatusConflict)
		return
	case err != nil:
		http.Error(w, fmt.Sprintf("bad campaign spec: %v", err), http.StatusBadRequest)
		return
	}
	writeJSON(w, EnqueueReply{ID: id, Points: len(points)})
}

// campaign looks up a campaign record.
func (s *Server) campaign(id int) (*campaign, bool) {
	s.campMu.Lock()
	defer s.campMu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// campaignByID resolves the {id} path value to an enqueued campaign.
func (s *Server) campaignByID(w http.ResponseWriter, r *http.Request) (*campaign, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "malformed campaign id", http.StatusBadRequest)
		return nil, false
	}
	c, ok := s.campaign(id)
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

// handleCampaignCSV serves a completed campaign's merged CSV, rendered
// by WriteCSV from the store — the coordinator never simulates. The
// body is buffered so a merge that fails (a result lost from the
// store) answers 500, never a truncated 200.
func (s *Server) handleCampaignCSV(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	if p := s.d.campaignProgress(c.id); p.Done != p.Points {
		http.Error(w, fmt.Sprintf("campaign incomplete: %d/%d points done", p.Done, p.Points),
			http.StatusConflict)
		return
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(r.Context(), &buf, c.id); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(buf.Bytes())
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
