package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/tracing"
)

// ErrLeaseGone reports that a heartbeat arrived after the lease had
// already expired: the batch's points may have been re-leased, and the
// worker should abandon the batch and lease fresh work.
var ErrLeaseGone = errors.New("campaignd: lease expired or unknown")

// httpTimeout bounds every store-plane and dispatch-plane request.
const httpTimeout = 30 * time.Second

// putAttempts is how often RemoteStore retries a failed publish before
// surfacing the error; transient coordinator hiccups should not kill a
// multi-hour simulation whose result is sitting in memory.
const putAttempts = 3

// putBackoff is the publish retry step: attempt n waits n steps.
const putBackoff = 250 * time.Millisecond

// RemoteStore resolves and publishes run-store entries over a
// coordinator's store plane. It implements experiments.ResultStore, so
// Runner.SetStore gives a remote campaign the same memory -> store ->
// simulate tiering as a local one, and it preserves the runstore
// contract: anything untrustworthy — a garbled body, a key mismatch, a
// dead coordinator — is a miss on Get, never an error, while a Put
// that cannot be made durable is an error after bounded retries.
type RemoteStore struct {
	base string
	hc   *http.Client
	ctx  context.Context

	hits, misses, writes, bad atomic.Int64
	// putBackoff overrides the package's publish retry step when
	// non-zero (a Worker passes its own; tests shorten it).
	putBackoff time.Duration
}

// NewRemoteStore builds a client for the coordinator at baseURL (e.g.
// "http://coordinator:8417"). The ResultStore interface carries no
// per-call context, so ctx bounds the lifetime of every request this
// store makes: cancelling it (Ctrl-C in the drivers) aborts in-flight
// transfers and retry backoffs instead of stalling on HTTP timeouts.
func NewRemoteStore(ctx context.Context, baseURL string) (*RemoteStore, error) {
	base, err := normalizeBase(baseURL)
	if err != nil {
		return nil, err
	}
	return &RemoteStore{base: base, hc: &http.Client{Timeout: httpTimeout}, ctx: ctx}, nil
}

// URL returns the coordinator base URL.
func (rs *RemoteStore) URL() string { return rs.base }

// Get resolves k from the coordinator; any failure is a miss.
func (rs *RemoteStore) Get(k runstore.Key) (*core.Result, bool) {
	return rs.GetCtx(rs.ctx, k)
}

// GetCtx is Get with a per-call context (the
// experiments.ContextResultStore extension): the request is bounded by
// both ctx and the store's lifetime context, and any trace context ctx
// carries rides the X-Trace-Context header so the coordinator can
// attribute the lookup in the merged timeline.
func (rs *RemoteStore) GetCtx(ctx context.Context, k runstore.Key) (*core.Result, bool) {
	req, err := http.NewRequestWithContext(rs.reqCtx(ctx), http.MethodGet, rs.base+"/v1/run/"+k.Hex(), nil)
	if err != nil {
		rs.misses.Add(1)
		return nil, false
	}
	setTraceHeader(req, ctx)
	resp, err := rs.hc.Do(req)
	if err != nil {
		rs.misses.Add(1)
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		rs.misses.Add(1)
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
	if err != nil {
		rs.misses.Add(1)
		return nil, false
	}
	res, ok := runstore.Decode(raw, k)
	if !ok {
		rs.bad.Add(1)
		rs.misses.Add(1)
		return nil, false
	}
	rs.hits.Add(1)
	return res, true
}

// Put publishes res under k, retrying transient failures; a response
// the coordinator rejects outright (4xx) is final. The body ships
// gzip-compressed (entries are ~4.6 KB of repetitive JSON) with
// Content-Encoding: gzip; the coordinator sniffs the magic, so old
// plain-JSON publishers keep working.
func (rs *RemoteStore) Put(k runstore.Key, res *core.Result) error {
	return rs.PutCtx(rs.ctx, k, res)
}

// PutCtx is Put with a per-call context, propagating any trace context
// it carries on the X-Trace-Context header (see GetCtx) and any
// execution wall time (experiments.ContextWithWall) on X-Wall-Seconds,
// from which the coordinator builds the point's simulation report.
func (rs *RemoteStore) PutCtx(ctx context.Context, k runstore.Key, res *core.Result) error {
	plain, err := runstore.Encode(k, res)
	if err != nil {
		return err
	}
	raw := runstore.Compress(plain)
	url := rs.base + "/v1/run/" + k.Hex()
	callCtx := rs.reqCtx(ctx)
	var last error
	for attempt := 0; attempt < putAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * orDefault(rs.putBackoff, putBackoff)):
			case <-callCtx.Done():
				return fmt.Errorf("campaignd: publish %s: %w", k.Bench, callCtx.Err())
			}
		}
		req, err := http.NewRequestWithContext(callCtx, http.MethodPut, url, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Content-Encoding", "gzip")
		setTraceHeader(req, ctx)
		if wall, ok := experiments.WallFromContext(ctx); ok {
			req.Header.Set(wallHeader, strconv.FormatFloat(wall.Seconds(), 'g', -1, 64))
		}
		resp, err := rs.hc.Do(req)
		if err != nil {
			last = err
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch {
		case resp.StatusCode < 300:
			rs.writes.Add(1)
			return nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return fmt.Errorf("campaignd: coordinator rejected entry: %s: %s",
				resp.Status, strings.TrimSpace(string(body)))
		default:
			last = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
	}
	return fmt.Errorf("campaignd: publish %s: %w", k.Bench, last)
}

// reqCtx picks the context bounding one request: the per-call context
// when the caller supplied a cancellable one, the store's lifetime
// context otherwise (the plain ResultStore methods, a background
// context carrying only values, and defensive nil calls).
func (rs *RemoteStore) reqCtx(ctx context.Context) context.Context {
	if ctx == nil || ctx.Done() == nil {
		return rs.ctx
	}
	return ctx
}

// setTraceHeader stamps a request with ctx's span context, if any, so
// the receiving coordinator can parent its server-side span correctly.
func setTraceHeader(req *http.Request, ctx context.Context) {
	if sc, ok := tracing.FromContext(ctx); ok {
		req.Header.Set(tracing.Header, sc.String())
	}
}

// Stats reports the remote tier's traffic as seen from this client.
func (rs *RemoteStore) Stats() runstore.Stats {
	return runstore.Stats{
		Hits:       rs.hits.Load(),
		Misses:     rs.misses.Load(),
		Writes:     rs.writes.Load(),
		BadEntries: rs.bad.Load(),
	}
}

// Client drives a coordinator's dispatch plane.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a dispatch-plane client for the coordinator at
// baseURL.
func NewClient(baseURL string) (*Client, error) {
	base, err := normalizeBase(baseURL)
	if err != nil {
		return nil, err
	}
	return &Client{base: base, hc: &http.Client{Timeout: httpTimeout}}, nil
}

// URL returns the coordinator base URL.
func (c *Client) URL() string { return c.base }

// Campaign fetches the coordinator's campaign handshake.
func (c *Client) Campaign(ctx context.Context) (CampaignInfo, error) {
	var info CampaignInfo
	err := c.call(ctx, http.MethodGet, "/v1/campaign", nil, &info)
	return info, err
}

// Enqueue submits a campaign spec to a serving coordinator and
// returns its campaign ID and expanded plan size.
func (c *Client) Enqueue(ctx context.Context, spec CampaignSpec) (EnqueueReply, error) {
	var reply EnqueueReply
	err := c.call(ctx, http.MethodPost, "/v1/campaign", spec, &reply)
	return reply, err
}

// CampaignStatus fetches one enqueued campaign's progress.
func (c *Client) CampaignStatus(ctx context.Context, id int) (CampaignStatus, error) {
	var st CampaignStatus
	err := c.call(ctx, http.MethodGet, fmt.Sprintf("/v1/campaign/%d", id), nil, &st)
	return st, err
}

// Arrive releases held rows of an open-loop campaign; rows are
// positions in the submitted CampaignSpec.Rows and offsetMillis the
// trace offset the submission was due at (feeding the coordinator's
// arrival-lag histogram).
func (c *Client) Arrive(ctx context.Context, id int, rows []int, offsetMillis int64) error {
	return c.call(ctx, http.MethodPost, fmt.Sprintf("/v1/campaign/%d/arrive", id),
		arriveRequest{Rows: rows, OffsetMillis: offsetMillis}, nil)
}

// CampaignCSV fetches a completed campaign's merged CSV bytes; the
// coordinator answers 409 (surfaced as an error) while any point is
// outstanding.
func (c *Client) CampaignCSV(ctx context.Context, id int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+fmt.Sprintf("/v1/campaign/%d/csv", id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("campaignd: GET /v1/campaign/%d/csv: %s: %s",
			id, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// Lease claims up to max plan points (0 = coordinator's default
// batch) on the named simulation backends; no names, no points. When
// the coordinator traces, the grant's TraceContext carries the lease
// span's X-Trace-Context value for the worker to parent its batch
// under.
func (c *Client) Lease(ctx context.Context, worker string, max int, backends []string) (LeaseGrant, error) {
	var resp LeaseGrant
	hdr, err := c.callHeader(ctx, http.MethodPost, "/v1/lease",
		leaseRequest{Worker: worker, Max: max, Backends: backends}, &resp)
	if err == nil && hdr != nil {
		resp.TraceContext = hdr.Get(tracing.Header)
	}
	return resp, err
}

// SimStatsz fetches the coordinator's campaign-wide telemetry
// aggregate (404s unless the coordinator reports).
func (c *Client) SimStatsz(ctx context.Context) (simreport.Summary, error) {
	var s simreport.Summary
	err := c.call(ctx, http.MethodGet, "/v1/simstatsz", nil, &s)
	return s, err
}

// Renew heartbeats a lease; ErrLeaseGone means it already expired.
func (c *Client) Renew(ctx context.Context, lease string) error {
	return c.call(ctx, http.MethodPost, "/v1/renew", renewRequest{Lease: lease}, nil)
}

// Complete ends a lease (its results already published through the
// store plane) and delivers the worker's finished spans, if any, with
// it.
func (c *Client) Complete(ctx context.Context, lease string, spans []tracing.Span) error {
	return c.call(ctx, http.MethodPost, "/v1/complete",
		completeRequest{Lease: lease, Spans: spans}, nil)
}

// Statsz fetches the coordinator's counters.
func (c *Client) Statsz(ctx context.Context) (Statsz, error) {
	var st Statsz
	err := c.call(ctx, http.MethodGet, "/v1/statsz", nil, &st)
	return st, err
}

// Index fetches the coordinator store's index.
func (c *Client) Index(ctx context.Context) ([]runstore.IndexEntry, error) {
	var entries []runstore.IndexEntry
	err := c.call(ctx, http.MethodGet, "/v1/index", nil, &entries)
	return entries, err
}

// call performs one JSON request/response round trip.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	_, err := c.callHeader(ctx, method, path, in, out)
	return err
}

// callHeader is call, additionally returning the response headers on
// success (Lease reads the X-Trace-Context grant from them).
func (c *Client) callHeader(ctx context.Context, method, path string, in, out any) (http.Header, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusGone {
		return nil, ErrLeaseGone
	}
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("campaignd: %s %s: %s: %s", method, path, resp.Status,
			strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, fmt.Errorf("campaignd: %s %s: decode response: %w", method, path, err)
		}
	}
	return resp.Header, nil
}

// normalizeBase validates and trims the coordinator base URL.
func normalizeBase(baseURL string) (string, error) {
	base := strings.TrimRight(baseURL, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return "", fmt.Errorf("campaignd: coordinator URL %q must start with http:// or https://", baseURL)
	}
	return base, nil
}
