package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"sharedicache/internal/tracing"
)

func TestSelfTimes(t *testing.T) {
	spans := []tracing.Span{
		{TraceID: "t", SpanID: "p", Name: "parent", Start: 0, Dur: 100},
		{TraceID: "t", SpanID: "a", ParentID: "p", Name: "child", Start: 10, Dur: 20},
		{TraceID: "t", SpanID: "b", ParentID: "p", Name: "child", Start: 20, Dur: 30}, // overlaps a
		{TraceID: "t", SpanID: "c", ParentID: "p", Name: "child", Start: 90, Dur: 30}, // runs past the parent
		{TraceID: "u", SpanID: "x", ParentID: "p", Name: "other", Start: 0, Dur: 100}, // another trace
	}
	got := map[string]layerTime{}
	for _, row := range selfTimes(spans) {
		got[row.Name] = row
	}
	// The children cover 10..50 and 90..100 of the parent: 50 of 100 us.
	if p := got["parent"]; p.Count != 1 || !near(p.SelfMS, 0.050) || !near(p.TotalMS, 0.100) {
		t.Fatalf("parent = %+v, want self 0.050 ms of 0.100", p)
	}
	if c := got["child"]; c.Count != 3 || !near(c.SelfMS, 0.080) {
		t.Fatalf("child = %+v, want self 0.080 ms", c)
	}
}

// profile hand-encodes a gzipped pprof profile with one sample per
// (function, cpu-ns) pair.
func profile(t *testing.T, samples map[string]int64) []byte {
	t.Helper()
	field := func(dst []byte, num int, payload []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(num)<<3|2)
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		return append(dst, payload...)
	}
	varint := func(dst []byte, num int, v uint64) []byte {
		dst = binary.AppendUvarint(dst, uint64(num)<<3)
		return binary.AppendUvarint(dst, v)
	}
	var msg []byte
	msg = field(msg, 6, nil) // string_table[0] = ""
	id := uint64(0)
	for name, ns := range samples {
		id++
		msg = field(msg, 6, []byte(name)) // string index id
		fn := varint(varint(nil, 1, id), 2, id)
		msg = field(msg, 5, fn)
		line := varint(nil, 1, id)
		msg = field(msg, 4, field(varint(nil, 1, id), 4, line))
		packed := binary.AppendUvarint(nil, 1)
		packed = binary.AppendUvarint(packed, uint64(ns))
		msg = field(msg, 2, field(field(nil, 1, binary.AppendUvarint(nil, id)), 2, packed))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(msg)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPackageShares(t *testing.T) {
	raw := profile(t, map[string]int64{
		"sharedicache/internal/frontend.(*FrontEnd).Tick": 500,
		"sharedicache/internal/core.(*Simulator).Run":     200,
		"runtime.scanobject":                              100,
		"syscall.Syscall6":                                50,
		"runtime.futex":                                   50,
		"main.main":                                       100,
	})
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	shares, err := packageShares(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"prof.frontend": 0.5, "prof.core": 0.2, "prof.runtime_gc": 0.1, "prof.syscall": 0.1,
		"prof.campaignd": 0,
	}
	for name, v := range want {
		if !near(shares[name], v) {
			t.Errorf("%s = %v, want %v", name, shares[name], v)
		}
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum > 1 {
		t.Fatalf("shares sum to %v > 1", sum)
	}
	if len(shares) != 12 {
		t.Fatalf("got %d prof.* metrics, want all 12", len(shares))
	}
	if _, err := packageShares(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("a missing profile was not an error")
	}
}
