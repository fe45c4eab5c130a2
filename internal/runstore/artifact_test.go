package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestArtifactRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"a":1.25,"b":-0.03}`)
	if err := st.PutArtifact("refine-fit", "fp-1", data); err != nil {
		t.Fatal(err)
	}
	got, ok := st.GetArtifact("refine-fit", "fp-1")
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("GetArtifact = %q, %v; want %q, true", got, ok, data)
	}
}

func TestArtifactStaleFingerprintIsMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutArtifact("refine-fit", "fp-old", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetArtifact("refine-fit", "fp-new"); ok {
		t.Fatal("a stale-fingerprint artifact must read as a miss")
	}
	// Replacing the slot under the new fingerprint makes it a hit again.
	if err := st.PutArtifact("refine-fit", "fp-new", []byte(`2`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.GetArtifact("refine-fit", "fp-new"); !ok || string(got) != "2" {
		t.Fatalf("after replace: got %q, %v", got, ok)
	}
	if _, ok := st.GetArtifact("refine-fit", "fp-old"); ok {
		t.Fatal("the replaced artifact must not be readable under the old fingerprint")
	}
}

func TestArtifactMissesAndBadKinds(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetArtifact("refine-fit", "fp"); ok {
		t.Fatal("empty store must miss")
	}
	for _, kind := range []string{"", "UPPER", "a/b", "../evil", "dot.dot"} {
		if err := st.PutArtifact(kind, "fp", []byte(`1`)); err == nil {
			t.Errorf("PutArtifact(%q) accepted a bad kind", kind)
		}
		if _, ok := st.GetArtifact(kind, "fp"); ok {
			t.Errorf("GetArtifact(%q) hit on a bad kind", kind)
		}
	}
	if err := st.PutArtifact("ok-kind", "", []byte(`1`)); err == nil {
		t.Error("PutArtifact accepted an empty fingerprint")
	}
}

func TestArtifactCorruptionIsMissAndGCd(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutArtifact("refine-fit", "fp", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "refine-fit"+artifactSuffix)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetArtifact("refine-fit", "fp"); ok {
		t.Fatal("corrupt artifact must read as a miss")
	}
	removed, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d files, want 1 (the corrupt artifact)", removed)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("GC left the corrupt artifact behind")
	}
}

func TestGCSparesValidArtifactsAndIndexSkipsThem(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutArtifact("refine-fit", "fp", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	removed, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("GC removed %d files; a valid artifact must be spared", removed)
	}
	entries, err := st.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Index listed %d entries; artifacts are not run entries", len(entries))
	}
	if _, ok := st.GetArtifact("refine-fit", "fp"); !ok {
		t.Fatal("artifact vanished")
	}
}
