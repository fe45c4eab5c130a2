package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func fb(addr uint64, length, n uint32, taken bool, target uint64) Record {
	return Record{
		Kind: KindFetchBlock, Addr: addr, Len: length, NumInstr: n,
		Taken: taken, Target: target,
		HasBranch: true, BranchAddr: addr + uint64(length) - 4,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindIPCSet, IPCMilli: 2100},
		{Kind: KindParallelStart},
		fb(0x400000, 128, 32, true, 0x400800),
		fb(0x400800, 24, 6, false, 0x400818),
		fb(0x400818, 64, 16, true, 0x400000),
		{Kind: KindCriticalWait, Sync: 3},
		{Kind: KindCriticalSignal, Sync: 3},
		{Kind: KindBarrier},
		{Kind: KindParallelEnd},
		// Block without a terminating branch (section split).
		{Kind: KindFetchBlock, Addr: 0x500000, Len: 16, NumInstr: 4, Target: 0x500010},
		{Kind: KindEnd},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write(%v): %v", r, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r := NewReader(&buf)
	got := Collect(r)
	if err := r.Err(); err != nil {
		t.Fatalf("Reader error: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, recs)
	}
}

func TestCodecEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, ok := r.Next(); ok {
		t.Fatal("Next on empty stream should report ok=false")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("empty stream should not be an error, got %v", err)
	}
}

func TestCodecBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("NOTATRACEFILE"))
	if _, ok := r.Next(); ok {
		t.Fatal("Next should fail on bad magic")
	}
	if r.Err() != ErrBadMagic {
		t.Fatalf("Err = %v, want ErrBadMagic", r.Err())
	}
}

func TestCodecTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(fb(0x1000, 32, 8, true, 0x2000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop mid-record (after magic + kind byte).
	r := NewReader(bytes.NewReader(full[:len(full)-2]))
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() == nil {
		t.Fatal("truncated stream should surface an error")
	}
}

// TestCodecRoundTripQuick property-tests the codec against randomly
// generated record streams.
func TestCodecRoundTripQuick(t *testing.T) {
	gen := func(seed int64, n uint8) []Record {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, 0, n)
		addr := uint64(rng.Int63n(1 << 40))
		for i := 0; i < int(n); i++ {
			switch rng.Intn(6) {
			case 0, 1, 2, 3:
				l := uint32(4 * (1 + rng.Intn(64)))
				rec := Record{
					Kind: KindFetchBlock, Addr: addr, Len: l,
					NumInstr: l / 4, Taken: rng.Intn(2) == 0,
					HasBranch: rng.Intn(8) != 0,
				}
				if rec.HasBranch {
					rec.BranchAddr = addr + uint64(l) - 4
				}
				if rec.Taken {
					rec.Target = uint64(rng.Int63n(1 << 40))
				} else {
					rec.Target = addr + uint64(l)
				}
				addr = rec.Target
				recs = append(recs, rec)
			case 4:
				recs = append(recs, Record{Kind: KindIPCSet, IPCMilli: uint32(rng.Intn(8000))})
			case 5:
				recs = append(recs, Record{Kind: KindBarrier})
			}
		}
		return recs
	}
	f := func(seed int64, n uint8) bool {
		recs := gen(seed, n)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		got := Collect(r)
		if r.Err() != nil {
			return false
		}
		if len(got) == 0 && len(recs) == 0 {
			return true
		}
		return reflect.DeepEqual(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindFetchBlock:     "FB",
		KindParallelStart:  "ParallelStart",
		KindParallelEnd:    "ParallelEnd",
		KindBarrier:        "Barrier",
		KindCriticalWait:   "CriticalWait",
		KindCriticalSignal: "CriticalSignal",
		KindIPCSet:         "IPCSet",
		KindEnd:            "End",
		Kind(42):           "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}
