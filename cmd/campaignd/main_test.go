package main

import (
	"bytes"
	"context"
	"flag"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/clitest"
	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
)

// TestUsageGolden pins the -h flag listing, as cmd/sweep's does.
func TestUsageGolden(t *testing.T) { clitest.Usage(t, registerFlags) }

// syncBuffer is a bytes.Buffer safe for the coordinator's concurrent
// stderr writers (the driver, its slog handler and HTTP handlers).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// localCSV renders the single-process sweep of the design-space flags
// in args: Space.Build, RunAllStream, EmitStream — cmd/sweep's path.
func localCSV(t *testing.T, args []string) []byte {
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
	space, err := sf.Space()
	if err != nil {
		t.Fatal(err)
	}
	plan, rows := space.Build(runner)
	ch, err := plan.RunAllStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	csvw := sweep.NewCSV(&buf, opts.Workers)
	if err := csvw.Header(); err != nil {
		t.Fatal(err)
	}
	if err := csvw.EmitStream(ch, rows, plan.Len()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOneShotCampaign drives plain campaignd end to end: the
// coordinator enqueues the flags' campaign, two in-process workers
// drain it over loopback HTTP, and the CSV streamed to stdout is
// byte-identical to the single-process sweep of the same flags, with
// zero duplicate simulations and zero expired leases.
func TestOneShotCampaign(t *testing.T) {
	space := []string{"-bench", "FT,UA", "-cpc", "4,8", "-size", "16", "-buses", "2", "-n", "20000"}
	want := localCSV(t, space)

	// Reserve a loopback port for the coordinator; the workers'
	// handshake retries until it listens.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	coordCtx, stopCoord := context.WithCancel(ctx)
	defer stopCoord()
	var stdout bytes.Buffer
	var stderr syncBuffer
	args := append(space, "-addr", addr, "-store", t.TempDir(), "-lease-batch", "2", "-grace", "1m")
	ran := make(chan error, 1)
	go func() { ran <- run(coordCtx, args, &stdout, &stderr) }()

	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := campaignd.Worker{URL: "http://" + addr, ID: id, Parallelism: 1}
			if _, err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}()
	}
	wg.Wait()

	// The workers saw the campaign done; once the coordinator has
	// booked its completion, end the grace window early.
	for !strings.Contains(stderr.String(), "campaign complete:") {
		select {
		case err := <-ran:
			t.Fatalf("coordinator exited before completing: %v\n%s", err, stderr.String())
		case <-ctx.Done():
			t.Fatalf("coordinator never completed:\n%s", stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	stopCoord()
	if err := <-ran; err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("merged CSV differs from the single-process sweep:\n--- campaignd\n%s--- sweep\n%s", stdout.Bytes(), want)
	}
	if !strings.Contains(stderr.String(), "duplicates=0 expired_leases=0") {
		t.Fatalf("stderr lacks clean accounting:\n%s", stderr.String())
	}
}
