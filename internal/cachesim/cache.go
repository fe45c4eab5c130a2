// Package cachesim models set-associative caches with LRU replacement,
// optional line-interleaved banking, and the miss classification
// (compulsory vs non-compulsory) used by the paper's §VI-C analysis.
//
// The model is functional (hit/miss state) — timing lives in the
// simulator that drives it. That split lets the same cache type serve
// the standalone characterisation of Fig 3, the private I-caches of the
// baseline, the shared banked I-cache, and the private L2s.
package cachesim

import "fmt"

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size (Table I: 64).
	LineBytes int
	// Assoc is the number of ways per set.
	Assoc int
	// Banks interleaves sets across this many banks by line address.
	// 0 and 1 both mean a single bank.
	Banks int
}

// Validate reports whether the geometry is well formed: power-of-two
// line size, capacity divisible into sets, at least one way.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d is not a positive power of two", c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cachesim: associativity %d must be positive", c.Assoc)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cachesim: size %d not divisible into %d-way sets of %d-byte lines",
			c.SizeBytes, c.Assoc, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cachesim: set count %d is not a power of two", sets)
	}
	b := c.Banks
	if b < 0 {
		return fmt.Errorf("cachesim: negative bank count %d", b)
	}
	if b > 1 && b&(b-1) != 0 {
		return fmt.Errorf("cachesim: bank count %d is not a power of two", b)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Stats accumulates access outcomes.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Compulsory uint64 // first-ever reference to the line (cold miss)
}

// MissRatio returns Misses/Accesses in [0,1].
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MPKI returns misses per kilo-instruction for the given committed
// instruction count.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instructions) * 1000
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Misses += o.Misses
	s.Compulsory += o.Compulsory
}

// way is one cache way. lru is the cache clock at the way's last fill
// or hit; the clock is bumped before either, so 0 marks an invalid way
// and every valid way's lru is distinct.
type way struct {
	tag uint64 // full line number; the set index is re-derived on eviction
	lru uint64
}

// Cache is a set-associative cache with true-LRU replacement. It is not
// safe for concurrent use; the simulator is single-goroutine per run.
type Cache struct {
	cfg       Config
	ways      []way // set s is ways[s*Assoc : (s+1)*Assoc]
	setMask   uint64
	lineShift uint
	clock     uint64
	// evicted holds every line ever evicted, the cold-miss history. A
	// miss finds its line not resident, and the only way a line leaves
	// the cache is eviction by Access or Install. So at a miss, "the
	// line was referenced before" holds exactly when "the line was
	// evicted before" does, and installs that evict nothing write no
	// history at all.
	evicted map[uint64]struct{}
	stats   Stats
}

// New builds a cache. It panics on invalid geometry: configurations are
// programmer input, not runtime data.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		ways:    make([]way, nsets*cfg.Assoc),
		setMask: uint64(nsets - 1),
		evicted: make(map[uint64]struct{}),
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	return c
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Bank returns the bank index serving addr (line-interleaved).
func (c *Cache) Bank(addr uint64) int {
	if c.cfg.Banks <= 1 {
		return 0
	}
	return int((addr >> c.lineShift) & uint64(c.cfg.Banks-1))
}

// Result reports the outcome of one access.
type Result struct {
	Hit        bool
	Compulsory bool // the miss (if any) was the first-ever touch of the line
	Victim     uint64
	Evicted    bool
}

// Access looks up addr, filling the line on a miss (allocate-on-miss)
// and updating LRU state and statistics.
func (c *Cache) Access(addr uint64) Result {
	c.stats.Accesses++
	line := addr >> c.lineShift
	hit, old := c.touch(line)
	if hit {
		return Result{Hit: true}
	}
	c.stats.Misses++
	res := Result{}
	if old.lru != 0 {
		res.Evicted = true
		res.Victim = old.tag << c.lineShift
	}
	// The fill never evicts the line being filled, so looking the line
	// up after recording the victim is safe.
	if _, ok := c.evicted[line]; !ok {
		c.stats.Compulsory++
		res.Compulsory = true
	}
	return res
}

// Install fills the line containing addr without counting an access or
// a miss. It models cache warm-up: the paper measures steady state over
// 20+ G instructions, where every hot line has long been resident;
// Install lets a scaled-down run start from that state. An installed
// line counts as referenced in the modelled past: if it is evicted
// later, its next miss is not compulsory. LRU recency advances as for a
// normal access, so install order determines survival when the working
// set exceeds the capacity (install hottest last).
func (c *Cache) Install(addr uint64) {
	c.touch(addr >> c.lineShift)
}

// touch makes line the most recently used way of its set. On a miss it
// fills the first way with the smallest lru, which is the first invalid
// way if there is one and the least recently used way otherwise, and
// returns the way it replaced; a replaced valid line enters the
// eviction history.
func (c *Cache) touch(line uint64) (hit bool, old way) {
	c.clock++
	set := c.set(line)
	for i := range set {
		if set[i].tag == line && set[i].lru != 0 {
			set[i].lru = c.clock
			return true, way{}
		}
	}
	victim := 0
	for i := range set {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	old = set[victim]
	if old.lru != 0 {
		c.evicted[old.tag] = struct{}{}
	}
	set[victim] = way{tag: line, lru: c.clock}
	return false, old
}

// set returns the ways of the set line maps to.
func (c *Cache) set(line uint64) []way {
	a := uint64(c.cfg.Assoc)
	s := (line & c.setMask) * a
	return c.ways[s : s+a]
}

// Probe reports whether addr currently hits, without updating LRU or
// statistics. Useful for invariant checks and tests.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	for _, w := range c.set(line) {
		if w.tag == line && w.lru != 0 {
			return true
		}
	}
	return false
}

// Stats returns a copy of accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears counters but keeps cache contents and the cold-miss
// history, so per-section accounting stays consistent.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// ResidentLines returns the number of valid lines, for occupancy tests.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, w := range c.ways {
		if w.lru != 0 {
			n++
		}
	}
	return n
}
