package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharedicache/internal/clitest"
)

func TestUsageGolden(t *testing.T) {
	clitest.Usage(t, registerFlags)
	clitest.BadFlag(t, "acmpsim", run)
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
