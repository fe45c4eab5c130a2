package campaignd

// Tests for the one merge path, Server.WriteCSV: a refine campaign's
// CSV shape rides on its campaign record, and GET /v1/campaign/{id}/csv
// never turns a failed merge into a truncated 200.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sharedicache/internal/refine"
	"sharedicache/internal/sweep"
)

// TestDistributedRefineCSV enqueues refine.Prepare's mixed plan, rows
// and Adjust — what `campaignd -refine` does — drains it with one
// worker, and requires both the streamed merge and the served /csv to
// equal the single-process refine CSV byte for byte.
func TestDistributedRefineCSV(t *testing.T) {
	sp := sweep.Space{
		Benches: []string{"FT"}, CPCs: []int{2, 4, 8},
		SizesKB: []int{16}, LineBuffers: []int{4}, Buses: []int{1, 2},
	}
	prepare := func(cfg refine.Config) *refine.Result {
		t.Helper()
		cfg.Space, cfg.Selector, cfg.GoldenMax = sp, refine.TopK{K: 2}, 2
		res, err := refine.Prepare(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The single-process refine CSV, rendered as `sweep -refine` does.
	local := prepare(refine.Config{Runner: testRunner(t)})
	ch, err := local.Plan.RunAllStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	out := local.Shape().NewCSV(&want, testOptions().Workers)
	if err := out.Header(); err != nil {
		t.Fatal(err)
	}
	if err := out.EmitStream(ch, local.Rows, local.Plan.Len()); err != nil {
		t.Fatal(err)
	}

	srv, hs, _ := testServer(t, nil, nil)
	dist := prepare(refine.Config{Runner: srv.runner})
	id, err := srv.Enqueue("refine", dist.Plan.Points(), dist.Rows, dist.Shape())
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() {
		w := Worker{URL: hs.URL, ID: "w1", Parallelism: 2}
		_, err := w.Run(ctx)
		ran <- err
	}()
	var streamed bytes.Buffer
	if err := srv.WriteCSV(ctx, &streamed, id); err != nil {
		t.Fatal(err)
	}
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
		t.Fatalf("streamed refine CSV differs from the local run:\n--- streamed\n%s--- local\n%s", streamed.Bytes(), want.Bytes())
	}
	if !strings.Contains(want.String(), ",refine,detailed,") || !strings.Contains(want.String(), ",triage,analytical,") {
		t.Fatalf("refine CSV lacks its phase/backend columns:\n%s", want.Bytes())
	}
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	served, err := client.CampaignCSV(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("served refine CSV differs from the local run:\n--- served\n%s--- local\n%s", served, want.Bytes())
	}
}

// TestCampaignCSVLostResult completes a campaign, then rots one of its
// store entries: GET /v1/campaign/{id}/csv must answer 500, never a
// 200 with a truncated body.
func TestCampaignCSVLostResult(t *testing.T) {
	srv, hs, store := testServer(t, nil, nil)
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := CampaignSpec{Backend: "analytical", Rows: []PointSpec{
		{Bench: "FT", CPC: 2, KB: 16, LB: 4, Bus: 1},
		{Bench: "FT", CPC: 8, KB: 16, LB: 4, Bus: 1},
	}}
	rep, err := client.Enqueue(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	w := Worker{URL: hs.URL, ID: "w1", Parallelism: 1}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	awaitComplete(t, client, rep.ID)
	if _, err := client.CampaignCSV(ctx, rep.ID); err != nil {
		t.Fatalf("intact campaign CSV: %v", err)
	}

	c, _ := srv.campaign(rep.ID)
	last := c.points[len(c.points)-1]
	path := filepath.Join(store.Dir(), srv.runner.PointKey(last).Hex()+".json")
	if err := os.WriteFile(path, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/campaign/%d/csv", hs.URL, rep.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET csv over a lost result = %s, want 500; body:\n%s", resp.Status, body)
	}
	if strings.Contains(string(body), "benchmark,") || !strings.Contains(string(body), "store lost the result") {
		t.Fatalf("500 body = %q, want the lost-result error and no CSV", body)
	}
}
