package runstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// IndexEntry describes one trustworthy store entry.
type IndexEntry struct {
	// Hash is the content address (the filename stem).
	Hash string
	// Key is the full design-point identity read back from the entry.
	Key Key
	// Bytes is the entry's size on disk.
	Bytes int64
}

// String renders the one-line human-readable index form shared by the
// -storeop index listing of cmd/sweep.
func (e IndexEntry) String() string {
	prewarm := "cold"
	if e.Key.Prewarm {
		prewarm = "warm"
	}
	return fmt.Sprintf("%s  %-10s %-13s cpc=%d %2dKB lb=%d bus=%d %s %s n=%d seed=%d  %dB",
		e.Hash[:16], e.Key.Bench, e.Key.Config.Organization, e.Key.Config.CPC,
		e.Key.Config.ICache.SizeBytes>>10, e.Key.Config.LineBuffers,
		e.Key.Config.Buses, prewarm, e.Key.Campaign.Backend,
		e.Key.Campaign.Instructions, e.Key.Campaign.Seed, e.Bytes)
}

// Index lists every valid entry in the store, sorted by hash. Corrupt
// or stale files are skipped (and counted in Stats.BadEntries); GC
// removes them.
func (s *Store) Index() ([]IndexEntry, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []IndexEntry
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		path := filepath.Join(s.dir, name)
		e, size, ok := s.readEntry(path, strings.TrimSuffix(name, entrySuffix))
		if !ok {
			s.bad.Add(1)
			continue
		}
		out = append(out, IndexEntry{Hash: e.Key.Hex(), Key: e.Key, Bytes: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out, nil
}

// tmpGrace is how old a temp file must be before GC treats it as
// orphaned. A temp file younger than this may belong to a live writer
// that is about to rename it into place; deleting it would make that
// Put fail. One left by a crashed writer only gets older.
const tmpGrace = time.Hour

// GC removes everything a read would refuse to trust — unparsable
// entries, entries of another format version, entries whose content
// does not match their filename, artifact files that no longer decode
// — plus orphaned temp files left behind by crashed writers. Temp
// files younger than tmpGrace are spared: they may be in-flight
// writes, and removing one would fail a live Put's rename. Valid
// artifacts are never swept, even when their fingerprint no longer
// matches any live campaign: staleness is the reader's call (it has
// the fingerprint; GC does not). It returns how many files were
// removed.
func (s *Store) GC() (removed int, err error) {
	s.gcSweeps.Add(1)
	defer func() {
		s.gcRemoved.Add(int64(removed))
		if l := s.logger.Load(); l != nil && removed > 0 {
			l.Info("runstore: gc removed untrusted files", "removed", removed, "dir", s.dir)
		}
	}()
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	for _, de := range names {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			info, err := de.Info()
			if err != nil || time.Since(info.ModTime()) < tmpGrace {
				continue
			}
			if os.Remove(path) == nil {
				removed++
			}
		case strings.HasSuffix(name, entrySuffix):
			if _, _, ok := s.readEntry(path, strings.TrimSuffix(name, entrySuffix)); !ok {
				if os.Remove(path) == nil {
					removed++
				}
			}
		case strings.HasSuffix(name, artifactSuffix):
			kind := strings.TrimSuffix(name, artifactSuffix)
			if _, ok := s.readArtifact(kind); !ok {
				if os.Remove(path) == nil {
					removed++
				}
			}
		}
	}
	return removed, nil
}

// readEntry loads and verifies one entry file against the hash its
// filename claims.
func (s *Store) readEntry(path, hash string) (entry, int64, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return entry{}, 0, false
	}
	k, res, ok := DecodeEntry(raw)
	if !ok || k.Hex() != hash {
		return entry{}, 0, false
	}
	return entry{Version: FormatVersion, Key: k, Result: res}, int64(len(raw)), true
}
