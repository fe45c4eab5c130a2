package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"sharedicache/internal/clitest"
)

func TestUsageGolden(t *testing.T) { clitest.Usage(t, registerFlags) }

// TestInterruptedRunWritesOutputs: a cancelled sweep still writes every
// requested exit-time file, each complete.
func TestInterruptedRunWritesOutputs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	args := append([]string{"-bench", "FT", "-cpc", "8", "-size", "16", "-buses", "1", "-n", "20000"}, clitest.OutputArgs(dir)...)
	err := run(ctx, args, &bytes.Buffer{}, &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	clitest.CheckOutputs(t, dir)
}

// TestRefineColdWarm pins the auto-refine campaign end to end through
// run: the cold run stays within its exact simulation budget (golden
// + frontier detailed runs) and its detailed rows equal the matching
// rows of a plain detailed sweep of the same space; the warm run over
// the same store refits the calibration from store hits, simulates
// nothing and emits the same bytes.
func TestRefineColdWarm(t *testing.T) {
	space := []string{"-bench", "FT", "-cpc", "2,4,8", "-size", "16,32", "-lb", "4", "-buses", "1,2", "-n", "20000"}
	refineArgs := append(append([]string{}, space...),
		"-refine", "-refine-top", "4", "-refine-golden", "6", "-store", t.TempDir())
	sweepRun := func(args []string) (stdout, stderr string) {
		t.Helper()
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err != nil {
			t.Fatalf("sweep %v: %v\n%s", args, err, errb.String())
		}
		return out.String(), errb.String()
	}
	wantLines := func(stderr string, lines ...string) {
		t.Helper()
		for _, l := range lines {
			if !strings.Contains(stderr, l) {
				t.Errorf("stderr lacks %q:\n%s", l, stderr)
			}
		}
	}

	cold, coldErr := sweepRun(refineArgs)
	wantLines(coldErr,
		"refine: calibration fitted over 6 golden rows (7 detailed simulations)",
		"sweep: refine: 9 detailed simulations (calibration 7 + frontier 2)")
	if n := strings.Count(cold, ",refine,detailed,"); n != 4 {
		t.Fatalf("cold CSV has %d refine rows, want 4:\n%s", n, cold)
	}

	// Each refine row, minus its phase column, is a row of the plain
	// detailed sweep.
	detailed, _ := sweepRun(append(append([]string{}, space...), "-backend", "detailed"))
	detRows := map[string]bool{}
	for _, l := range strings.Split(detailed, "\n") {
		detRows[l] = true
	}
	for _, l := range strings.Split(cold, "\n") {
		if !strings.Contains(l, ",refine,") {
			continue
		}
		f := strings.Split(l, ",")
		if row := strings.Join(append(f[:1:1], f[2:]...), ","); !detRows[row] {
			t.Errorf("refine row %q is not in the detailed sweep:\n%s", row, detailed)
		}
	}

	warm, warmErr := sweepRun(refineArgs)
	wantLines(warmErr,
		"refine: calibration fitted over 6 golden rows (0 detailed simulations)",
		"sweep: refine: 0 detailed simulations (calibration 0 + frontier 0), 0 analytical")
	if warm != cold {
		t.Fatalf("warm CSV differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}
