// Package runstore persists simulation results on disk so that
// repeated campaigns, and campaigns sharded across processes or hosts,
// share work instead of re-simulating the design space.
//
// The store is content-addressed: each entry lives under a stable
// SHA-256 of its canonical Key — the design point (benchmark,
// configuration, prewarm) plus a fingerprint of the campaign options
// that change simulation outcomes, plus the store format version. Two
// processes started with the same options therefore compute identical
// paths for identical points, which is what makes a directory shared
// between sharded sweeps act as one common cache.
//
// Writes are atomic (temp file + rename into place), so concurrent
// writers on one directory — even racing on the same key — leave only
// complete entries behind. Entries are gzip-compressed on disk (and
// over the network store plane); reads sniff the gzip magic, so
// uncompressed entries remain transparently readable. Reads are
// corruption-tolerant: a truncated, garbled, stale-version or
// mislabelled entry is treated as a cache miss, never as an error; GC
// exists to sweep such debris.
//
// Besides run entries the store can hold artifacts (PutArtifact /
// GetArtifact): small named blobs guarded by a caller-supplied
// fingerprint instead of a content address, with the same atomic
// writes and corruption-as-miss reads. No simulator path writes them:
// the auto-refine calibration fit is recomputed from run entries.
package runstore

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"

	"sharedicache/internal/core"
	"sharedicache/internal/metrics"
)

// FormatVersion is baked into every entry and into the key hash, so a
// change to the on-disk schema invalidates old stores wholesale
// instead of half-reading them. Version 2 added the Backend field to
// Fingerprint and gzip entry compression; entries written by version 1
// are deliberately invalidated (re-simulate or keep the old store
// directory around for the old binary).
const FormatVersion = 2

// Fingerprint captures the campaign options that affect simulation
// results. Any change to these invalidates every entry (the
// fingerprint is part of the key hash); options that only affect
// scheduling — Parallelism, the benchmark subset — are deliberately
// excluded so they can vary freely across shards.
type Fingerprint struct {
	Workers          int
	Instructions     uint64
	Seed             uint64
	CharInstructions uint64
	// Backend is the versioned ID of the simulation backend that
	// produced the result (e.g. "detailed/v1", "analytical/v1"). It is
	// part of the key hash so results from different backends can never
	// cross-pollute: a warm detailed store is a clean miss for an
	// analytical campaign and vice versa.
	Backend string
}

// Key is the canonical identity of one stored result.
type Key struct {
	Bench    string
	Config   core.Config
	Prewarm  bool
	Campaign Fingerprint
}

// canonical serialises the key deterministically. JSON field order
// follows struct declaration order, so the byte stream — and hence the
// hash — is stable across processes and hosts; the golden-hash test
// pins it.
func (k Key) canonical() []byte {
	raw, err := json.Marshal(struct {
		Version int
		Key     Key
	}{FormatVersion, k})
	if err != nil {
		// Key is plain data (strings, integers, bools); Marshal cannot
		// fail on it.
		panic(fmt.Sprintf("runstore: marshal key: %v", err))
	}
	return raw
}

// Sum returns the SHA-256 of the canonical key.
func (k Key) Sum() [sha256.Size]byte { return sha256.Sum256(k.canonical()) }

// Hex returns the entry's content address (64 hex characters).
func (k Key) Hex() string {
	sum := k.Sum()
	return hex.EncodeToString(sum[:])
}

// Hash64 folds the content address to 64 bits; the sharding layer
// partitions plans with it.
func (k Key) Hash64() uint64 {
	sum := k.Sum()
	return binary.BigEndian.Uint64(sum[:8])
}

// Stats counts store traffic since Open.
type Stats struct {
	// Hits and Misses count Get outcomes; Writes counts successful
	// Puts. BadEntries counts reads that found a file but could not
	// trust it (corrupt, stale version, key mismatch) — each such read
	// also counts as a miss.
	Hits, Misses, Writes, BadEntries int64
}

// Store is an on-disk result cache rooted at one directory. It is safe
// for concurrent use by multiple goroutines and multiple processes.
type Store struct {
	dir string

	hits, misses, writes, bad atomic.Int64
	gcSweeps, gcRemoved       atomic.Int64

	// logger, when set, receives structured lines for events the
	// corruption-as-miss contract would otherwise swallow silently (bad
	// entries, GC removals). Nil logs nothing.
	logger atomic.Pointer[slog.Logger]
}

// SetLogger attaches a structured logger for the store's
// otherwise-silent events: a Get/GetRaw that finds a file it cannot
// trust (counted as a bad entry and a miss) logs a warning naming the
// entry, and each GC sweep that removes files logs a summary. A nil
// logger detaches.
func (s *Store) SetLogger(l *slog.Logger) { s.logger.Store(l) }

// logBadEntry reports one untrustworthy on-disk entry.
func (s *Store) logBadEntry(name string) {
	if l := s.logger.Load(); l != nil {
		l.Warn("runstore: untrusted entry treated as miss", "entry", name, "dir", s.dir)
	}
}

// Open creates the directory if needed and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entrySuffix names complete entries; temp files use tmpPattern until
// renamed into place.
const (
	entrySuffix = ".json"
	tmpPattern  = "put-*.tmp"
)

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.Hex()+entrySuffix)
}

// entry is the on-disk and wire schema. The full key is stored
// alongside the result so reads can verify the file really holds what
// its name claims (guarding against collisions, renames and format
// drift).
type entry struct {
	Version int
	Key     Key
	Result  *core.Result
}

// Encode renders the canonical entry bytes for one result — the exact
// representation Put writes to disk and the network store plane ships
// over HTTP.
func Encode(k Key, res *core.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("runstore: nil result for %s", k.Bench)
	}
	raw, err := json.Marshal(entry{Version: FormatVersion, Key: k, Result: res})
	if err != nil {
		return nil, fmt.Errorf("runstore: marshal entry: %w", err)
	}
	return raw, nil
}

// Compress gzip-wraps canonical entry bytes — the form Put writes to
// disk and RemoteStore ships over the wire (entries are ~4.6 KB of
// highly repetitive JSON; gzip shrinks them several-fold). The gzip
// header carries no timestamp, so compression is deterministic.
func Compress(raw []byte) []byte {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	zw.Write(raw)
	zw.Close()
	return buf.Bytes()
}

// maxPlainEntryBytes bounds the decompressed size of one entry. Legit
// entries are a few KB of JSON; the bound exists so a crafted gzip
// bomb handed to the (unauthenticated) store plane cannot expand a
// small request body into gigabytes of memory.
const maxPlainEntryBytes = 16 << 20

// maybeDecompress transparently unwraps gzip-compressed entry bytes,
// sniffing the gzip magic so uncompressed (legacy-format or
// plain-JSON wire) entries pass through untouched. A payload that
// claims to be gzip but does not decompress — or expands past
// maxPlainEntryBytes (a gzip bomb) — is untrustworthy.
func maybeDecompress(raw []byte) ([]byte, bool) {
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		return raw, true
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, false
	}
	plain, err := io.ReadAll(io.LimitReader(zr, maxPlainEntryBytes+1))
	if err != nil || zr.Close() != nil || len(plain) > maxPlainEntryBytes {
		return nil, false
	}
	return plain, true
}

// Decompress returns the canonical JSON form of entry bytes,
// unwrapping the gzip layer when present and passing plain payloads
// through; ok is false when a payload claims to be gzip but does not
// decompress. The store plane uses it to serve clients that do not
// accept gzip.
func Decompress(raw []byte) ([]byte, bool) { return maybeDecompress(raw) }

// Compressed reports whether raw is a gzip-wrapped payload (by magic
// number). The store plane uses it to decide whether stored bytes can
// ship with Content-Encoding: gzip as-is.
func Compressed(raw []byte) bool {
	return len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b
}

// DecodeEntry parses entry bytes — gzip-compressed or plain — and
// reports whether they are trustworthy: parseable, of the current
// format version, and carrying a result. Callers that know which key
// (or content address) they asked for must additionally compare it
// against the returned key — Decode and GetRaw do.
func DecodeEntry(raw []byte) (Key, *core.Result, bool) {
	raw, ok := maybeDecompress(raw)
	if !ok {
		return Key{}, nil, false
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil ||
		e.Version != FormatVersion || e.Result == nil {
		return Key{}, nil, false
	}
	return e.Key, e.Result, true
}

// Decode parses entry bytes and validates them against the key the
// caller asked for, preserving corruption-as-miss semantics across a
// network hop: a garbled, stale or mislabelled payload is a miss,
// never an error.
func Decode(raw []byte, want Key) (*core.Result, bool) {
	k, res, ok := DecodeEntry(raw)
	if !ok || k != want {
		return nil, false
	}
	return res, true
}

// ValidHash reports whether h is a plausible content address (64 hex
// characters) — the store plane rejects anything else before touching
// the filesystem.
func ValidHash(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(h)
	return err == nil
}

// Get returns the stored result for k, or (nil, false) on a miss. A
// present-but-untrustworthy entry is a miss, not an error: campaigns
// re-simulate and overwrite it.
func (s *Store) Get(k Key) (*core.Result, bool) {
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	if res, ok := Decode(raw, k); ok {
		s.hits.Add(1)
		return res, true
	}
	s.bad.Add(1)
	s.misses.Add(1)
	s.logBadEntry(k.Hex() + entrySuffix)
	return nil, false
}

// GetRaw returns the entry bytes stored under the given content
// address exactly as they sit on disk (normally gzip-compressed;
// possibly plain for entries written by other tooling), validating
// them first: a file that Get would refuse to trust is a miss here
// too, so the network store plane can never serve debris. Callers
// shipping the bytes onward should check Compressed to label the
// encoding; DecodeEntry on the receiving end accepts either form.
func (s *Store) GetRaw(hash string) ([]byte, bool) {
	if !ValidHash(hash) {
		s.misses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, hash+entrySuffix))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	if k, _, ok := DecodeEntry(raw); !ok || k.Hex() != hash {
		s.bad.Add(1)
		s.misses.Add(1)
		s.logBadEntry(hash + entrySuffix)
		return nil, false
	}
	s.hits.Add(1)
	return raw, true
}

// ContainsHash reports whether a trustworthy entry with the given
// content address is on disk. It is a maintenance probe — the campaign
// coordinator uses it to resume a half-finished campaign from a warm
// store — and deliberately does not touch the traffic counters. Taking
// the precomputed address (rather than a Key) spares callers that
// already hold one from re-hashing the key.
func (s *Store) ContainsHash(hash string) bool {
	if !ValidHash(hash) {
		return false
	}
	_, _, ok := s.readEntry(filepath.Join(s.dir, hash+entrySuffix), hash)
	return ok
}

// Put persists res under k atomically: the entry is gzip-compressed,
// written to a temp file in the store directory and renamed into
// place, so a reader (or a concurrent writer of the same key) never
// observes a partial entry. Reads accept uncompressed entries too, so
// a directory mixing entries from both forms stays fully readable.
func (s *Store) Put(k Key, res *core.Result) error {
	plain, err := Encode(k, res)
	if err != nil {
		return err
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
		err = os.Rename(tmp.Name(), s.path(k))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: write entry: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Writes:     s.writes.Load(),
		BadEntries: s.bad.Load(),
	}
}

// RegisterMetrics exposes the store's traffic counters on reg as
// func-backed instruments sampled at scrape time, so the atomics above
// stay the single source of truth. Re-registering (e.g. a store
// reopened over the same registry) rebinds the callbacks to the newest
// store.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	for _, c := range []struct {
		name, help string
		src        *atomic.Int64
	}{
		{"runstore_hits_total", "store Gets that returned a trustworthy entry", &s.hits},
		{"runstore_misses_total", "store Gets that found nothing usable", &s.misses},
		{"runstore_writes_total", "entries durably written", &s.writes},
		{"runstore_bad_entries_total", "reads that found a file but could not trust it", &s.bad},
		{"runstore_gc_sweeps_total", "GC passes over the store directory", &s.gcSweeps},
		{"runstore_gc_removed_total", "files GC removed (debris entries and orphaned temp files)", &s.gcRemoved},
	} {
		src := c.src
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(src.Load()) })
	}
}
