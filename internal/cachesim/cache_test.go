package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg32K() Config {
	return Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		cfg32K(),
		{SizeBytes: 16 << 10, LineBytes: 64, Assoc: 8},
		{SizeBytes: 1 << 20, LineBytes: 64, Assoc: 32, Banks: 2},
		{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 32 << 10, LineBytes: 0, Assoc: 8},
		{SizeBytes: 32 << 10, LineBytes: 48, Assoc: 8},
		{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 0},
		{SizeBytes: 1000, LineBytes: 64, Assoc: 8},
		{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Banks: 3},
		{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Banks: -1},
		{SizeBytes: 24 << 10, LineBytes: 64, Assoc: 8}, // 48 sets, not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestSets(t *testing.T) {
	if got := cfg32K().Sets(); got != 64 {
		t.Fatalf("32KB/8-way/64B Sets() = %d, want 64", got)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(cfg32K())
	if r := c.Access(0x1000); r.Hit {
		t.Fatal("first access should miss")
	} else if !r.Compulsory {
		t.Fatal("first access should be compulsory")
	}
	if r := c.Access(0x1000); !r.Hit {
		t.Fatal("second access should hit")
	}
	if r := c.Access(0x1004); !r.Hit {
		t.Fatal("same-line access should hit")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 || st.Compulsory != 1 {
		t.Fatalf("stats = %+v, want 3/1/1", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny cache: 2 sets, 2 ways, 64B lines = 256B.
	c := New(Config{SizeBytes: 256, LineBytes: 64, Assoc: 2})
	// Addresses mapping to set 0: line numbers 0, 2, 4 (even).
	a, b, d := uint64(0*64), uint64(2*64), uint64(4*64)
	c.Access(a)
	c.Access(b)
	c.Access(a)      // a most recent; LRU is b
	r := c.Access(d) // evicts b
	if !r.Evicted || r.Victim != b {
		t.Fatalf("expected eviction of %#x, got %+v", b, r)
	}
	if !c.Probe(a) || !c.Probe(d) || c.Probe(b) {
		t.Fatalf("post-eviction contents wrong: a=%v b=%v d=%v",
			c.Probe(a), c.Probe(b), c.Probe(d))
	}
}

func TestColdMissClassification(t *testing.T) {
	c := New(Config{SizeBytes: 256, LineBytes: 64, Assoc: 2})
	// Thrash set 0 with 3 lines so the second round misses are capacity.
	lines := []uint64{0, 128, 256}
	for _, a := range lines {
		c.Access(a)
	}
	for _, a := range lines {
		c.Access(a)
	}
	st := c.Stats()
	if st.Compulsory != 3 {
		t.Fatalf("compulsory = %d, want 3", st.Compulsory)
	}
	if st.Misses <= st.Compulsory {
		t.Fatalf("expected non-compulsory misses on re-walk, got %+v", st)
	}
}

func TestFootprintFitsNoCapacityMisses(t *testing.T) {
	c := New(cfg32K())
	// 16KB footprint walked repeatedly in a 32KB cache: only cold misses.
	var addrs []uint64
	for a := uint64(0); a < 16<<10; a += 64 {
		addrs = append(addrs, 0x400000+a)
	}
	for pass := 0; pass < 10; pass++ {
		for _, a := range addrs {
			c.Access(a)
		}
	}
	st := c.Stats()
	if st.Misses != uint64(len(addrs)) {
		t.Fatalf("misses = %d, want %d (cold only)", st.Misses, len(addrs))
	}
	if st.Misses != st.Compulsory {
		t.Fatalf("all misses should be compulsory: %+v", st)
	}
}

func TestStreamingMissRate(t *testing.T) {
	// Footprint 4x capacity walked cyclically => every access to a new
	// line misses (LRU worst case).
	c := New(Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2})
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 4<<10; a += 64 {
			c.Access(a)
		}
	}
	st := c.Stats()
	if st.MissRatio() != 1.0 {
		t.Fatalf("cyclic over-capacity walk should miss always, ratio=%v", st.MissRatio())
	}
}

func TestBankMapping(t *testing.T) {
	c := New(Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Banks: 2})
	if c.Bank(0) != 0 || c.Bank(64) != 1 || c.Bank(128) != 0 || c.Bank(65) != 1 {
		t.Fatalf("even/odd line interleave broken: %d %d %d %d",
			c.Bank(0), c.Bank(64), c.Bank(128), c.Bank(65))
	}
	single := New(cfg32K())
	if single.Bank(64) != 0 {
		t.Fatal("single-bank cache must map everything to bank 0")
	}
}

func TestLineAddr(t *testing.T) {
	c := New(cfg32K())
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Fatalf("LineAddr(0x12345) = %#x, want 0x12340", got)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Accesses: 1000, Misses: 50, Compulsory: 10}
	if s.MissRatio() != 0.05 {
		t.Fatalf("MissRatio = %v", s.MissRatio())
	}
	if s.MPKI(10000) != 5 {
		t.Fatalf("MPKI = %v", s.MPKI(10000))
	}
	if (Stats{}).MissRatio() != 0 || (Stats{}).MPKI(0) != 0 {
		t.Fatal("zero stats should produce zero ratios")
	}
	var a Stats
	a.Add(s)
	a.Add(s)
	if a.Accesses != 2000 || a.Misses != 100 || a.Compulsory != 20 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New(cfg32K())
	c.Access(0x1000)
	c.ResetStats()
	if r := c.Access(0x1000); !r.Hit {
		t.Fatal("ResetStats must not flush contents")
	}
	if c.Stats().Accesses != 1 {
		t.Fatal("stats should restart from zero")
	}
	// Cold-miss history is preserved: re-touching an evicted seen line
	// after a reset is not compulsory. The nine lines 0x1000 + k*4 KB
	// share a set of the 8-way cache, so the last evicts the first.
	for k := uint64(1); k <= 8; k++ {
		c.Access(0x1000 + k*(4<<10))
	}
	if c.Probe(0x1000) {
		t.Fatal("0x1000 should have been evicted")
	}
	c.ResetStats()
	if r := c.Access(0x1000); r.Hit || r.Compulsory {
		t.Fatalf("re-access of an evicted line after ResetStats = %+v, want a non-compulsory miss", r)
	}
	if st := c.Stats(); st.Compulsory != 0 {
		t.Fatalf("stats after re-access = %+v, want no compulsory miss", st)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config should panic")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 64, Assoc: 8})
}

// Property: resident lines never exceed capacity; hits never change the
// resident count; stats are internally consistent.
func TestCacheInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		c := New(Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2})
		capacity := (1 << 10) / 64
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			addr := uint64(rng.Intn(8192))
			before := c.ResidentLines()
			r := c.Access(addr)
			after := c.ResidentLines()
			if after > capacity {
				return false
			}
			if r.Hit && after != before {
				return false
			}
			if !r.Hit && !c.Probe(addr) {
				return false // miss must allocate
			}
		}
		st := c.Stats()
		return st.Misses <= st.Accesses && st.Compulsory <= st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: an 8-way 32KB cache and the paper's Fig 3 setup never miss
// on a working set that fits in one set's ways.
func TestAssociativityProtects(t *testing.T) {
	c := New(cfg32K())
	sets := uint64(c.Config().Sets())
	lineB := uint64(c.Config().LineBytes)
	// 8 lines all mapping to set 0 (stride sets*lineB) fit exactly.
	var addrs []uint64
	for i := uint64(0); i < 8; i++ {
		addrs = append(addrs, i*sets*lineB)
	}
	for pass := 0; pass < 5; pass++ {
		for _, a := range addrs {
			c.Access(a)
		}
	}
	st := c.Stats()
	if st.Misses != 8 {
		t.Fatalf("fully associative-resident set should only cold-miss: %+v", st)
	}
}
