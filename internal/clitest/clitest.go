// Package clitest holds the checks the cmd/ drivers' tests share:
// golden files, usage listings and the exit-time output files. Import
// it from _test files only.
package clitest

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharedicache/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// Golden compares got with the golden file at path; with -update it
// rewrites the file first.
func Golden(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (regenerate with -update):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// Usage pins a driver's -h flag listing against testdata/usage.golden.
// The golden is the audited reference the README's flag tables are
// checked against: a flag added, renamed or re-documented without
// regenerating it (go test ./cmd/<driver> -run TestUsageGolden
// -update) — and without revisiting the README — fails here instead of
// drifting silently.
func Usage[T any](t testing.TB, register func(*flag.FlagSet) T) {
	t.Helper()
	fs := flag.NewFlagSet("usage", flag.ContinueOnError)
	register(fs)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()
	Golden(t, filepath.Join("testdata", "usage.golden"), buf.Bytes())
}

// BadFlag runs a driver with an unknown flag and requires what its
// main does with the error to exit 2 with the parse error on stderr
// exactly once.
func BadFlag(t testing.TB, driver string, run func(context.Context, []string, io.Writer, io.Writer) error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-nosuchflag"}, &stdout, &stderr)
	if code := sweep.ExitCode(driver, err, &stderr); code != 2 {
		t.Errorf("%s -nosuchflag exits %d, want 2 (err %v)", driver, code, err)
	}
	const msg = "flag provided but not defined: -nosuchflag"
	if n := strings.Count(stderr.String(), msg); n != 1 {
		t.Errorf("%s -nosuchflag prints %q %d times, want once:\n%s", driver, msg, n, stderr.String())
	}
}

// OutputArgs requests every exit-time file the lifecycle writes on
// interrupt — CPU profile, trace and report — inside dir.
func OutputArgs(dir string) []string {
	return []string{
		"-cpuprofile", filepath.Join(dir, "cpu.prof"),
		"-trace", filepath.Join(dir, "trace.json"),
		"-report", filepath.Join(dir, "report.json"),
	}
}

// CheckOutputs asserts the files OutputArgs requested are complete: a
// non-empty CPU profile that decompresses to its end as gzip, and a
// trace and report that parse as JSON.
func CheckOutputs(t testing.TB, dir string) {
	t.Helper()
	prof, err := os.ReadFile(filepath.Join(dir, "cpu.prof"))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		t.Fatalf("cpu profile (%d bytes): %v", len(prof), err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatalf("cpu profile: %v", err)
	}
	for _, name := range []string{"trace.json", "report.json"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(raw) {
			t.Errorf("%s is not valid JSON", name)
		}
	}
}
