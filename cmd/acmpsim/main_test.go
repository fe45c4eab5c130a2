package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharedicache/internal/clitest"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
)

func TestUsageGolden(t *testing.T) {
	clitest.Usage(t, registerFlags)
	clitest.BadFlag(t, "acmpsim", run)
}

// TestTraceReplayMatchesSynthesis: replaying per-thread trace files in
// cmd/tracegen's layout (the paper's Fig 6 flow) prints the same report,
// byte for byte, as simulating the synthesised workload, both prewarmed
// on a shared I-cache and cold on private ones.
func TestTraceReplayMatchesSynthesis(t *testing.T) {
	dir := t.TempDir()
	p, _ := synth.ProfileByName("FT")
	w, err := synth.New(p, synth.Config{Workers: 8, MasterInstructions: 20_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.NumThreads() {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("FT.t%02d.trace", i)))
		if err != nil {
			t.Fatal(err)
		}
		tw, src := trace.NewWriter(f), w.Source(i)
		for rec, ok := src.Next(); ok; rec, ok = src.Next() {
			if err := tw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, org := range [][]string{
		{"-org", "worker-shared", "-icache", "16", "-buses", "2"},
		{"-org", "private", "-cold"},
	} {
		var reports [2]string
		for i, extra := range [][]string{nil, {"-traces", dir}} {
			args := append([]string{"-bench", "FT", "-n", "20000"}, org...)
			var stdout, stderr bytes.Buffer
			if err := run(context.Background(), append(args, extra...), &stdout, &stderr); err != nil {
				t.Fatalf("acmpsim %v %v: %v\n%s", org, extra, err, stderr.Bytes())
			}
			reports[i] = stdout.String()
		}
		if reports[0] == "" || reports[0] != reports[1] {
			t.Errorf("acmpsim %v: replayed report differs from the synthesised one:\nsynthesised:\n%s\nreplayed:\n%s",
				org, reports[0], reports[1])
		}
	}
}

// TestReplayRejectsStore: trace replay bypasses the run store, so
// -traces with -store is a usage error raised before any trace file
// is opened (the trace directory here does not even exist).
func TestReplayRejectsStore(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "rs")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-traces", filepath.Join(dir, "missing"), "-store", store, "-n", "20000"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-store applies to synthesised runs only") {
		t.Fatalf("err = %v, want the -store rejection", err)
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Errorf("store directory was created: %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.Bytes())
	}
}

// TestStoreLogsBadEntry: a corrupted -store entry is a miss that the
// run logs on stderr, and the point simulates again to the same
// report.
func TestStoreLogsBadEntry(t *testing.T) {
	store := t.TempDir()
	args := []string{"-bench", "FT", "-n", "20000", "-store", store}
	var cold, warm, stderr bytes.Buffer
	if err := run(context.Background(), args, &cold, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	if n := clitest.CorruptStore(t, store); n != 1 {
		t.Fatalf("store holds %d entries, want 1", n)
	}
	stderr.Reset()
	if err := run(context.Background(), args, &warm, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), clitest.UntrustedEntryLogged) {
		t.Errorf("stderr lacks %q:\n%s", clitest.UntrustedEntryLogged, stderr.Bytes())
	}
	if warm.String() != cold.String() {
		t.Errorf("report over a corrupted store differs:\ncold:\n%s\nwarm:\n%s", cold.Bytes(), warm.Bytes())
	}
}
