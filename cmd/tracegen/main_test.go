package main

import (
	"bufio"
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
	clitest.BadFlag(t, "tracegen", run)
}

// TestErrorPrefixedOnce: a driver error prints behind the driver's name
// exactly once.
func TestErrorPrefixedOnce(t *testing.T) {
	clitest.ErrorLine(t, "tracegen", run, []string{"-bench", "XX", "-out", t.TempDir()},
		`tracegen: unknown benchmark "XX"`)
}

// TestThreadTraces writes one trace file per thread and checks each
// reads back record for record as the synthesised source it came from.
func TestThreadTraces(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-bench", "FT", "-n", "20000", "-out", dir, "-verify"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("tracegen %v: %v\n%s", args, err, stderr.String())
	}

	p, _ := synth.ProfileByName("FT")
	w, err := synth.New(p, synth.Config{Workers: 8, MasterInstructions: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != w.NumThreads() {
		t.Fatalf("stdout lists %d files, want one per thread (%d):\n%s", len(lines), w.NumThreads(), stdout.String())
	}
	for th := range w.NumThreads() {
		path := filepath.Join(dir, fmt.Sprintf("FT.t%02d.trace", th))
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r := trace.NewReader(bufio.NewReader(f))
		src := w.Source(th)
		var records, instr uint64
		for {
			want, wok := src.Next()
			got, gok := r.Next()
			if wok != gok {
				t.Fatalf("%s: record %d: file ended=%v, source ended=%v", path, records, !gok, !wok)
			}
			if !wok {
				break
			}
			if got != want {
				t.Fatalf("%s: record %d = %v, want %v", path, records, got, want)
			}
			records++
			if got.Kind == trace.KindFetchBlock {
				instr += uint64(got.NumInstr)
			}
		}
		f.Close()
		if r.Err() != nil {
			t.Fatalf("%s: %v", path, r.Err())
		}
		if want := fmt.Sprintf("%s: %d records, %d instructions", path, records, instr); lines[th] != want {
			t.Errorf("stdout line %d = %q, want %q", th, lines[th], want)
		}
	}
}
