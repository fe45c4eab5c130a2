package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A corrupted CSV must trip the gate that compares a run's CSV with
// the committed reference, and name the line.
func TestCorruptedCSVTripsGate(t *testing.T) {
	ref, err := os.ReadFile(filepath.Join("testdata", "fig7_n80000.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if d := csvDiff(ref, ref); d != "" {
		t.Fatalf("identical CSVs reported a difference: %s", d)
	}
	lines := strings.Split(string(ref), "\n")
	lines[7] = strings.Replace(lines[7], ",", ";", 1)
	bad := []byte(strings.Join(lines, "\n"))
	out := newOutcome()
	if d := csvDiff(bad, ref); d != "" {
		out.gate("fig7: CSV differs from reference: %s", d)
	}
	if len(out.gates) != 1 || !strings.Contains(out.gates[0], "line 8 ") {
		t.Fatalf("corrupted line 8 gave gates %q", out.gates)
	}
	if d := csvDiff(ref[:len(ref)-1], ref); d == "" {
		t.Fatal("a truncated CSV passed the gate")
	}
}

// A run with a failed gate must report correct: false.
func TestFailedGateMarksRunIncorrect(t *testing.T) {
	out := newOutcome()
	out.metrics["setup_s"] = 1
	out.gate("forced")
	var buf bytes.Buffer
	if err := emit(&buf, map[string]any{}, out, map[string]string{"setup_s": "s"}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "GATE FAILED: forced") || !strings.HasSuffix(got, "\n") ||
		!strings.Contains(got[strings.LastIndex(got[:len(got)-1], "\n")+1:], `"correct":false`) {
		t.Fatalf("emit printed %q", got)
	}
}
