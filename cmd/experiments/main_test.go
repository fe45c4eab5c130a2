package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharedicache/internal/clitest"
)

func TestUsageGolden(t *testing.T) { clitest.Usage(t, registerFlags) }

// TestCharacterisationGolden pins the §II characterisation tables
// (Figures 2-4) byte for byte.
func TestCharacterisationGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "fig2,fig3,fig4", "-bench", "FT,UA"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	clitest.Golden(t, filepath.Join("testdata", "fig2-4.golden"), stdout.Bytes())
}

// TestUnknownFormatFailsFirst: a bad -format is a usage error, reported
// before any figure simulates (the store stays untouched).
func TestUnknownFormatFailsFirst(t *testing.T) {
	store := filepath.Join(t.TempDir(), "rs")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-fig", "fig7", "-bench", "FT,UA", "-n", "400000",
		"-format", "xml", "-store", store}, &stdout, &stderr)
	if err == nil || err.Error() != `unknown format "xml" (text, csv, json)` {
		t.Fatalf("err = %v, want the unknown-format error", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.Bytes())
	}
	if entries, _ := os.ReadDir(store); len(entries) != 0 || strings.Contains(stderr.String(), "done in") {
		t.Errorf("a figure ran before the format check: store %v, stderr:\n%s", entries, stderr.Bytes())
	}
}

// TestInterruptedRunWritesOutputs: a cancelled run still writes every
// requested exit-time file, each complete.
func TestInterruptedRunWritesOutputs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	err := run(ctx, append([]string{"-fig", "fig7", "-bench", "FT", "-n", "20000"}, clitest.OutputArgs(dir)...),
		&bytes.Buffer{}, &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	clitest.CheckOutputs(t, dir)
}
