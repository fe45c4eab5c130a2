package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Artifacts are the store's second entry kind: small, named blobs a
// campaign derives from run results and wants to survive the process.
// Nothing in the simulator writes them today. Unlike run entries they
// are not content-addressed: a kind has exactly one slot
// (`<kind>.artifact`), and each write replaces the previous value. What
// keeps a stale artifact from silently applying is the fingerprint the
// writer stores alongside the payload: GetArtifact only returns data
// whose recorded fingerprint equals the one the reader asks for, so an
// artifact derived under other inputs reads as a miss, never as a
// lie — the same corruption-as-miss stance run entries take.
//
// Artifacts share the store's write discipline (gzip, temp file +
// atomic rename) and GC: an artifact file that fails to decode is
// debris and is swept. They are deliberately excluded from Index and
// the hit/miss traffic counters, which describe run-entry traffic.

// artifactVersion is baked into every artifact file; bump it to
// invalidate all persisted artifacts wholesale on a schema change.
const artifactVersion = 1

// artifactSuffix names artifact files. It differs from entrySuffix so
// the run-entry paths (Get, Index, the GC corrupt-entry sweep) never
// mistake an artifact for a malformed run entry.
const artifactSuffix = ".artifact"

// artifactFile is the on-disk artifact schema.
type artifactFile struct {
	Version     int
	Kind        string
	Fingerprint string
	Data        json.RawMessage
}

// validArtifactKind constrains kinds to path-safe names.
func validArtifactKind(kind string) bool {
	if kind == "" {
		return false
	}
	for _, r := range kind {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return true
}

func (s *Store) artifactPath(kind string) string {
	return filepath.Join(s.dir, kind+artifactSuffix)
}

// PutArtifact durably stores data under the given kind, replacing any
// previous artifact of that kind, and records the fingerprint a reader
// must present to get it back. The write is atomic and gzip-compressed
// like a run entry's.
func (s *Store) PutArtifact(kind, fingerprint string, data []byte) error {
	if !validArtifactKind(kind) {
		return fmt.Errorf("runstore: bad artifact kind %q (want [a-z0-9-]+)", kind)
	}
	if fingerprint == "" {
		return fmt.Errorf("runstore: artifact %q needs a fingerprint", kind)
	}
	plain, err := json.Marshal(artifactFile{
		Version: artifactVersion, Kind: kind, Fingerprint: fingerprint, Data: data,
	})
	if err != nil {
		return fmt.Errorf("runstore: marshal artifact: %w", err)
	}
	raw := Compress(plain)
	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if _, err := tmp.Write(raw); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.artifactPath(kind))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: write artifact: %w", err)
	}
	return nil
}

// GetArtifact returns the stored artifact of the given kind if — and
// only if — its recorded fingerprint equals fingerprint. A missing
// file, a corrupt one, a kind mismatch and a fingerprint mismatch are
// all the same miss: the caller regenerates and re-puts.
func (s *Store) GetArtifact(kind, fingerprint string) ([]byte, bool) {
	a, ok := s.readArtifact(kind)
	if !ok || a.Fingerprint != fingerprint {
		return nil, false
	}
	return a.Data, true
}

// readArtifact loads and validates one artifact file.
func (s *Store) readArtifact(kind string) (artifactFile, bool) {
	if !validArtifactKind(kind) {
		return artifactFile{}, false
	}
	raw, err := os.ReadFile(s.artifactPath(kind))
	if err != nil {
		return artifactFile{}, false
	}
	return decodeArtifact(raw, kind)
}

// decodeArtifact parses artifact bytes (gzip or plain) and checks they
// really are an artifact of the claimed kind and current version.
func decodeArtifact(raw []byte, kind string) (artifactFile, bool) {
	plain, ok := maybeDecompress(raw)
	if !ok {
		return artifactFile{}, false
	}
	var a artifactFile
	if err := json.Unmarshal(plain, &a); err != nil ||
		a.Version != artifactVersion || a.Kind != kind || a.Fingerprint == "" {
		return artifactFile{}, false
	}
	return a, true
}
