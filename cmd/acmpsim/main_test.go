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

func TestUsageGolden(t *testing.T) { clitest.Usage(t, registerFlags) }

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
