package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
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

// TestArrivalTrace checks -arrivals writes a CSV ReadArrivals accepts,
// with one arrival per row the same flags' design space expands to, in
// sweep order.
func TestArrivalTrace(t *testing.T) {
	args := []string{"-arrivals", "burst", "-bench", "FT", "-cpc", "2,4,8", "-size", "16"}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("tracegen %v: %v\n%s", args, err, stderr.String())
	}
	arr, err := synth.ReadArrivals(&stdout)
	if err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	rows, err := f.sf.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(arr) != len(rows) {
		t.Fatalf("%d arrivals for %d rows, want one per row", len(arr), len(rows))
	}
	for i, r := range rows {
		want := synth.ArrivalPoint{Bench: r.Bench, CPC: r.CPC, KB: r.KB, LB: r.LB, Bus: r.Bus}
		if arr[i].Point != want {
			t.Errorf("arrival %d = %+v, want row %+v", i, arr[i].Point, want)
		}
		if i > 0 && arr[i].Offset < arr[i-1].Offset {
			t.Errorf("arrival %d at %v precedes arrival %d at %v", i, arr[i].Offset, i-1, arr[i-1].Offset)
		}
	}
}
