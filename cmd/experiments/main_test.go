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

func TestUsageGolden(t *testing.T) {
	clitest.Usage(t, registerFlags)
	clitest.BadFlag(t, "experiments", run)
}

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

// TestStoreLogsBadEntry: corrupted -store entries are misses that the
// run logs on stderr, one warning per entry, and the figure renders
// the same table.
func TestStoreLogsBadEntry(t *testing.T) {
	store := t.TempDir()
	args := []string{"-fig", "fig7", "-bench", "FT", "-n", "20000", "-backend", "analytical", "-store", store}
	var cold, warm, stderr bytes.Buffer
	if err := run(context.Background(), args, &cold, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	n := clitest.CorruptStore(t, store)
	if n == 0 {
		t.Fatal("the run stored nothing")
	}
	stderr.Reset()
	if err := run(context.Background(), args, &warm, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	if got := strings.Count(stderr.String(), clitest.UntrustedEntryLogged); got != n {
		t.Errorf("stderr logs %d untrusted entries, want %d:\n%s", got, n, stderr.Bytes())
	}
	if warm.String() != cold.String() {
		t.Errorf("figure over a corrupted store differs:\ncold:\n%s\nwarm:\n%s", cold.Bytes(), warm.Bytes())
	}
}

// TestFigureGolden pins the simulated figures byte for byte: text,
// where Figs 7-11 stream row by row, and csv, where every figure prints
// its whole table.
func TestFigureGolden(t *testing.T) {
	for _, format := range []string{"text", "csv"} {
		t.Run(format, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-fig", "fig7,fig8,fig9,fig10,fig11,fig12,fig13,ext-cold",
				"-bench", "FT,UA", "-n", "20000", "-format", format}
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			clitest.Golden(t, filepath.Join("testdata", "figs-"+format+".golden"), stdout.Bytes())
		})
	}
}
