package main

import (
	"bytes"
	"context"
	"encoding/json"
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

// TestWorkerCountCheckedUpFront: a worker count that a selected
// figure's cpc-8 points cannot use is refused before the first figure
// runs; figures that fix no sharing degree still run at it.
func TestWorkerCountCheckedUpFront(t *testing.T) {
	store := filepath.Join(t.TempDir(), "rs")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-fig", "fig1,table1,fig7", "-workers", "4", "-bench", "FT",
		"-n", "20000", "-store", store}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "table1") || !strings.Contains(err.Error(), "divisible by 8, not 4") {
		t.Errorf("err = %v, want table1's worker-count refusal", err)
	}
	if entries, _ := os.ReadDir(store); stdout.Len() != 0 || len(entries) != 0 || strings.Contains(stderr.String(), "done in") {
		t.Errorf("a figure ran before the worker-count check: store %v, stdout:\n%s\nstderr:\n%s",
			entries, stdout.Bytes(), stderr.Bytes())
	}

	stdout.Reset()
	stderr.Reset()
	if err := run(context.Background(), []string{"-fig", "fig1,fig2,fig3,fig4", "-workers", "4", "-bench", "FT"},
		&stdout, &stderr); err != nil {
		t.Fatalf("-fig fig1,fig2,fig3,fig4 -workers 4: %v\n%s", err, stderr.Bytes())
	}
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4"} {
		if !strings.Contains(stderr.String(), "["+id+" done in") {
			t.Errorf("%s did not run:\n%s", id, stderr.Bytes())
		}
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

// TestExtScaleStore: ext-scale runs on the driver's runner, so -store
// and -report see all of its points, 5 worker counts x 4 designs for
// one benchmark. The cold run writes each one; the warm run simulates
// none and prints the same table.
func TestExtScaleStore(t *testing.T) {
	dir := t.TempDir()
	store, report := filepath.Join(dir, "rs"), filepath.Join(dir, "report.json")
	args := []string{"-fig", "ext-scale", "-bench", "FT", "-n", "20000", "-store", store, "-report", report}
	var tables [2]string
	for i, want := range []string{
		"cache: 20 simulated, 0 store hits, 20 store misses, 20 store writes\n",
		"cache: 0 simulated, 20 store hits, 0 store misses, 0 store writes\n",
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, stderr.Bytes())
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("run %d: stderr lacks %q:\n%s", i, want, stderr.Bytes())
		}
		raw, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Reports []json.RawMessage }
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Reports) != 20 {
			t.Errorf("run %d: report holds %d reports (err %v), want 20", i, len(doc.Reports), err)
		}
		tables[i] = stdout.String()
	}
	if entries, _ := os.ReadDir(store); len(entries) != 20 {
		t.Errorf("store holds %d entries, want 20", len(entries))
	}
	if tables[0] != tables[1] {
		t.Errorf("warm table differs:\ncold:\n%s\nwarm:\n%s", tables[0], tables[1])
	}
}

// TestFigureGolden pins the simulated figures byte for byte: text,
// where Figs 7-11 stream row by row, and csv, where every figure prints
// its whole table. ext-scale has its own golden: its points span five
// worker counts on the one campaign runner.
func TestFigureGolden(t *testing.T) {
	for _, format := range []string{"text", "csv"} {
		t.Run(format, func(t *testing.T) {
			for _, c := range []struct{ golden, figs, bench string }{
				{"figs", "fig7,fig8,fig9,fig10,fig11,fig12,fig13,ext-cold", "FT,UA"},
				{"ext-scale", "ext-scale", "FT"},
			} {
				var stdout, stderr bytes.Buffer
				args := []string{"-fig", c.figs, "-bench", c.bench, "-n", "20000", "-format", format}
				if err := run(context.Background(), args, &stdout, &stderr); err != nil {
					t.Fatalf("%v\n%s", err, stderr.Bytes())
				}
				clitest.Golden(t, filepath.Join("testdata", c.golden+"-"+format+".golden"), stdout.Bytes())
			}
		})
	}
}
