package cachesim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// refCache is the straightforward cache the compact one must match: an
// explicit valid flag per way, a set of every line ever referenced for
// the cold-miss classification, and a victim rule that takes the first
// invalid way, else the least recently used one.
type refCache struct {
	sets      [][]refWay
	setMask   uint64
	lineShift uint
	clock     uint64
	seen      map[uint64]bool
	stats     Stats
}

type refWay struct {
	tag   uint64
	valid bool
	lru   uint64
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{
		sets:    make([][]refWay, cfg.Sets()),
		setMask: uint64(cfg.Sets() - 1),
		seen:    make(map[uint64]bool),
	}
	for i := range r.sets {
		r.sets[i] = make([]refWay, cfg.Assoc)
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		r.lineShift++
	}
	return r
}

// fill touches line: a hit refreshes its way, a miss replaces the
// victim. It reports whether the line hit and the victim it replaced.
func (r *refCache) fill(line uint64) (hit bool, victim refWay) {
	r.clock++
	set := r.sets[line&r.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].lru = r.clock
			return true, refWay{}
		}
	}
	v := -1
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
	}
	if v < 0 {
		v = 0
		for i := range set {
			if set[i].lru < set[v].lru {
				v = i
			}
		}
	}
	victim = set[v]
	set[v] = refWay{tag: line, valid: true, lru: r.clock}
	return false, victim
}

func (r *refCache) access(addr uint64) Result {
	r.stats.Accesses++
	line := addr >> r.lineShift
	hit, victim := r.fill(line)
	if hit {
		return Result{Hit: true}
	}
	r.stats.Misses++
	res := Result{Evicted: victim.valid}
	if victim.valid {
		res.Victim = victim.tag << r.lineShift
	}
	if !r.seen[line] {
		r.seen[line] = true
		r.stats.Compulsory++
		res.Compulsory = true
	}
	return res
}

func (r *refCache) install(addr uint64) {
	line := addr >> r.lineShift
	r.seen[line] = true
	r.fill(line)
}

func (r *refCache) probe(addr uint64) bool {
	line := addr >> r.lineShift
	for _, w := range r.sets[line&r.setMask] {
		if w.valid && w.tag == line {
			return true
		}
	}
	return false
}

func (r *refCache) residentLines() int {
	n := 0
	for _, set := range r.sets {
		for _, w := range set {
			if w.valid {
				n++
			}
		}
	}
	return n
}

// fuzzGeometries are the caches FuzzCacheMatchesReference drives:
// direct-mapped, 2-, 8- and 32-way, each small enough that a random
// walk over three times its capacity evicts and re-references often.
var fuzzGeometries = []Config{
	{SizeBytes: 256, LineBytes: 64, Assoc: 1},
	{SizeBytes: 512, LineBytes: 64, Assoc: 2},
	{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 8},
	{SizeBytes: 4 << 10, LineBytes: 64, Assoc: 32},
}

// FuzzCacheMatchesReference checks Cache against refCache on any
// sequence of operations. The first byte picks a geometry; every later
// pair of bytes is one step: the first byte's low three bits pick the
// operation (0-4 Access, 5-6 Install, 7 ResetStats) and its high bits
// an offset within the line, the second byte the line, modulo three
// times the capacity. After every step each Result field, Stats,
// ResidentLines and Probe of every line in range must match.
func FuzzCacheMatchesReference(f *testing.F) {
	for g := range fuzzGeometries {
		rng := rand.New(rand.NewSource(int64(g + 1)))
		for _, n := range []int{64, 1024} {
			data := make([]byte, 1+n)
			rng.Read(data)
			data[0] = byte(g)
			f.Add(data)
		}
	}
	// Line 0 installed, evicted by its set mate, stats reset, then
	// re-accessed: the miss is not compulsory.
	f.Add([]byte{0, 5, 0, 5, 4, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		lines := 3 * cfg.SizeBytes / cfg.LineBytes
		c, ref := New(cfg), newRefCache(cfg)
		for i := 1; i+1 < len(data); i += 2 {
			op := data[i] & 7
			addr := uint64(int(data[i+1])%lines*cfg.LineBytes) + uint64(data[i]>>3)%uint64(cfg.LineBytes)
			switch {
			case op <= 4:
				if got, want := c.Access(addr), ref.access(addr); got != want {
					t.Fatalf("step %d: Access(%#x) = %+v, reference %+v", i/2, addr, got, want)
				}
			case op <= 6:
				c.Install(addr)
				ref.install(addr)
			default:
				c.ResetStats()
				ref.stats = Stats{}
			}
			if got, want := c.Stats(), ref.stats; got != want {
				t.Fatalf("step %d: Stats = %+v, reference %+v", i/2, got, want)
			}
			if got, want := c.ResidentLines(), ref.residentLines(); got != want {
				t.Fatalf("step %d: ResidentLines = %d, reference %d", i/2, got, want)
			}
			for l := 0; l < lines; l++ {
				a := uint64(l * cfg.LineBytes)
				if got, want := c.Probe(a), ref.probe(a); got != want {
					t.Fatalf("step %d: Probe(%#x) = %v, reference %v", i/2, a, got, want)
				}
			}
		}
	})
}

// TestWaySize pins the way layout: a tag and an LRU stamp, no padding.
// The Table I L2s of a 9-core point hold 147k ways between them.
func TestWaySize(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 16 {
		t.Fatalf("way is %d bytes, want 16", got)
	}
}
