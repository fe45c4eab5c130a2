package frontend

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"sharedicache/internal/backend"
	"sharedicache/internal/branch"
	"sharedicache/internal/trace"
)

// These tests pin when the front-end issues line requests while its
// buffers are exhausted: a failed allocation is retried every cycle, so
// an issue that wrongly believes nothing changed since its last failure
// shows up as a request issued late (or not at all).

// issued is one logged Request: the cycle it was made at and its line.
type issued struct {
	cycle, line uint64
}

// scriptPort logs every request. A line listed in latency resolves that
// many cycles after its request; any other line after one cycle. When
// grantDelay is set, every request instead stays unresolved (as on a
// shared bus) until tick reaches its grant cycle, a seeded draw from
// grantDelay, and then resolves one bus cycle plus a latency drawn from
// latencies later.
type scriptPort struct {
	latency map[uint64]uint64
	log     []issued

	rng        *rand.Rand
	grantDelay []uint64
	latencies  []uint64
	waiting    []*LineRequest
}

func (p *scriptPort) Request(now uint64, lineAddr uint64) *LineRequest {
	p.log = append(p.log, issued{now, lineAddr})
	r := &LineRequest{LineAddr: lineAddr, SubmitAt: now}
	if p.rng != nil {
		// GrantAt holds the scheduled grant cycle until tick grants it.
		r.GrantAt = now + p.grantDelay[p.rng.Intn(len(p.grantDelay))]
		r.CacheLatency = int(p.latencies[p.rng.Intn(len(p.latencies))])
		p.waiting = append(p.waiting, r)
		return r
	}
	lat, ok := p.latency[lineAddr]
	if !ok {
		lat = 1
	}
	r.Granted, r.GrantAt = true, now
	r.Resolved, r.ReadyAt = true, now+lat
	r.Hit, r.CacheLatency = true, int(lat)
	return r
}

// tick grants and resolves the requests whose grant cycle is now,
// before the front-end ticks, as a shared fabric does.
func (p *scriptPort) tick(now uint64) {
	kept := p.waiting[:0]
	for _, r := range p.waiting {
		if r.GrantAt > now {
			kept = append(kept, r)
			continue
		}
		r.Granted, r.Resolved, r.Shared = true, true, true
		r.BusLatency = 1
		r.ReadyAt = now + 1 + uint64(r.CacheLatency)
		r.Hit = r.CacheLatency <= 3
	}
	p.waiting = kept
}

// block is a fetch block with no branch, so the predictor never
// redirects.
func block(addr uint64, length uint32) trace.Record {
	return trace.Record{Kind: trace.KindFetchBlock, Addr: addr, Len: length, NumInstr: length / 4}
}

// runUntil ticks fe and be over cycles [from, to).
func runUntil(fe *FrontEnd, be *backend.Backend, from, to uint64) {
	for now := from; now < to; now++ {
		fe.Tick(now, be)
		be.Tick(fe.BlockReason(now))
	}
}

// TestPopStaleInUseMark: the delivery that pops the head marks the old
// head's buffer in use, and that mark stays for exactly the next issue.
// That issue fails to allocate; the following delivery clears the mark
// without marking anything (the new head's line is still in flight), so
// the issue after it must take the freed buffer at once.
func TestPopStaleInUseMark(t *testing.T) {
	port := &scriptPort{latency: map[uint64]uint64{0x2000: 10}}
	fe := New(Config{LineBuffers: 2, FTQDepth: 4, LineBytes: 64}, port, branch.NewDefault())
	be := backend.New(64, 1000)
	fe.PushBlock(0, block(0x1000, 32))
	fe.PushBlock(0, block(0x2000, 32))
	fe.PushBlock(0, block(0x3000, 32))
	// Cycle 0 requests 0x1000 into buffer 0; cycle 1 latches it, requests
	// 0x2000 into buffer 1 (ready at 11) and delivers and pops the first
	// block; cycle 2's issue finds buffer 0 still marked and buffer 1
	// pending.
	runUntil(fe, be, 0, 3)
	want := []issued{{0, 0x1000}, {1, 0x2000}}
	if !slices.Equal(port.log, want) {
		t.Fatalf("requests by cycle 2 = %v, want %v", port.log, want)
	}
	runUntil(fe, be, 3, 20)
	if len(port.log) < 3 || port.log[2] != (issued{3, 0x3000}) {
		t.Fatalf("requests = %v, want the third to be 0x3000 at cycle 3", port.log)
	}
}

// TestDeliveryClearsOneOfTwoMarks: after a pop, the next issue sees two
// in-use marks, the stale one on the old head's buffer and the new
// head's own, and fails to allocate. The following delivery clears the
// stale mark and keeps the head's (its line is valid and being
// consumed, without crossing a line), so the issue after it must take
// the freed buffer.
func TestDeliveryClearsOneOfTwoMarks(t *testing.T) {
	port := &scriptPort{}
	fe := New(Config{LineBuffers: 2, FTQDepth: 4, LineBytes: 64}, port, branch.NewDefault())
	// A 4-instruction queue committing one a cycle: the second block
	// trickles out over many cycles and never pops or crosses its line
	// in the cycles that matter.
	be := backend.New(4, 1000)
	fe.PushBlock(0, block(0x1000, 16))
	fe.PushBlock(0, block(0x2000, 64))
	fe.PushBlock(0, block(0x3000, 32))
	// Cycle 0 requests 0x1000; cycle 1 latches it, requests 0x2000 (ready
	// at 2) and delivers and pops the first block; cycle 2 latches
	// 0x2000 and its issue finds both buffers marked.
	runUntil(fe, be, 0, 3)
	want := []issued{{0, 0x1000}, {1, 0x2000}}
	if !slices.Equal(port.log, want) {
		t.Fatalf("requests by cycle 2 = %v, want %v", port.log, want)
	}
	runUntil(fe, be, 3, 20)
	if len(port.log) < 3 || port.log[2] != (issued{3, 0x3000}) {
		t.Fatalf("requests = %v, want the third to be 0x3000 at cycle 3", port.log)
	}
}

// program is a seeded control-flow graph of fetch blocks laid out
// back to back over a few KB, so lines are shared between neighbouring
// blocks and revisited by loops. Each block ends in a branch that is
// taken with its own bias, which gives the predictor both easy and
// hard branches.
type program struct {
	addr   []uint64
	length []uint32
	target []int
	bias   []float64
}

func newProgram(rng *rand.Rand, n int) *program {
	p := &program{}
	addr := uint64(0x10000)
	for i := 0; i < n; i++ {
		length := uint32(4 * (1 + rng.Intn(40)))
		p.addr = append(p.addr, addr)
		p.length = append(p.length, length)
		p.target = append(p.target, rng.Intn(n))
		p.bias = append(p.bias, []float64{0.02, 0.5, 0.98}[rng.Intn(3)])
		addr += uint64(length)
		if rng.Intn(4) == 0 {
			addr += uint64(64 * rng.Intn(8)) // a gap between functions
		}
	}
	return p
}

// walk returns block i as a trace record plus the index of the block
// control flow reaches next.
func (p *program) walk(rng *rand.Rand, i int) (trace.Record, int) {
	taken := rng.Float64() < p.bias[i]
	next := (i + 1) % len(p.addr)
	if taken {
		next = p.target[i]
	}
	rec := trace.Record{
		Kind: trace.KindFetchBlock, Addr: p.addr[i], Len: p.length[i], NumInstr: p.length[i] / 4,
		HasBranch: true, BranchAddr: p.addr[i] + uint64(p.length[i]) - 4,
		Taken: taken, Target: p.addr[next],
	}
	return rec, next
}

// streamSpec configures one randomStream run: the front-end's geometry,
// the seeds of the block stream and of the port, the port's grant
// delays and latencies (each request draws one of each; a latency must
// be at least 1) and the number of cycles.
type streamSpec struct {
	lb, ftq               int
	seed, portSeed        int64
	grantDelay, latencies []uint64
	cycles                uint64
}

// pinnedSpec is the stream testdata/random_stream.golden pins for lb
// line buffers and FTQ depth ftq.
func pinnedSpec(lb, ftq int) streamSpec {
	return streamSpec{
		lb: lb, ftq: ftq,
		seed: int64(1000*lb + ftq), portSeed: int64(7*lb + ftq),
		grantDelay: []uint64{0, 0, 0, 1, 2, 6},
		latencies:  []uint64{1, 1, 2, 3, 12, 40},
		cycles:     30_000,
	}
}

// randomStream drives one front-end over a seeded block stream for a
// fixed number of cycles, with requests granted after seeded delays and
// resolved with mixed latencies, and summarises what it did: every
// request's cycle and line, the front-end Stats and the back-end's CPI
// stack. With stream set, every Tick is followed by Stream, bounded at
// the next cycle a block could be pushed, and the cycles it plays out
// are not ticked; the port still advances every cycle. Both drivers
// must print the same summary. folded counts the cycles not ticked.
// check, when set, sees the front-end before every Tick.
func randomStream(spec streamSpec, stream bool, check func(now uint64, fe *FrontEnd)) (summary string, folded uint64) {
	// scriptPort resolves a grant at cycle g no earlier than g+2.
	const grantLat = 2
	rng := rand.New(rand.NewSource(spec.seed))
	port := &scriptPort{
		rng:        rand.New(rand.NewSource(spec.portSeed)),
		grantDelay: spec.grantDelay,
		latencies:  spec.latencies,
	}
	fe := New(Config{LineBuffers: spec.lb, FTQDepth: spec.ftq, LineBytes: 64, MispredictPenalty: 6},
		port, branch.NewDefault())
	be := backend.New(24, 1500)
	prog := newProgram(rng, 96)

	rec, next := prog.walk(rng, 0)
	resume := uint64(0)
	for now := uint64(0); now < spec.cycles; now++ {
		port.tick(now)
		if now < resume {
			folded++
			continue
		}
		if fe.CanAccept(now) && rng.Intn(4) != 0 {
			fe.PushBlock(now, rec)
			rec, next = prog.walk(rng, next)
		}
		if check != nil {
			check(now, fe)
		}
		fe.Tick(now, be)
		be.Tick(fe.BlockReason(now))
		if stream {
			resume, _ = fe.Stream(now, min(fe.AcceptFrom(), spec.cycles), grantLat, be)
		}
	}
	h := sha256.New()
	var word [8]byte
	for _, r := range port.log {
		for _, v := range []uint64{r.cycle, r.line} {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
	}
	summary = fmt.Sprintf("lb=%d ftq=%d requests=%d stats=%+v stack=%+v sha256=%s",
		spec.lb, spec.ftq, len(port.log), fe.Stats(), be.Stack(), hex.EncodeToString(h.Sum(nil))[:32])
	return summary, folded
}

// TestRandomStreamPinned replays seeded random block streams over every
// line-buffer count and two FTQ depths, ticked every cycle and folded
// through Stream, and requires each summary to match
// testdata/random_stream.golden line for line.
func TestRandomStreamPinned(t *testing.T) {
	want, err := readLines("testdata/random_stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		var got []string
		var folded uint64
		for _, lb := range []int{1, 2, 4, 8} {
			for _, ftq := range []int{2, 8} {
				line, n := randomStream(pinnedSpec(lb, ftq), stream, nil)
				got = append(got, line)
				folded += n
			}
		}
		t.Logf("stream=%v: %d of %d cycles folded", stream, folded, 8*30_000)
		if stream && folded == 0 {
			t.Error("Stream folded no cycles: the differential compares two per-cycle runs")
		}
		for i, line := range got {
			if i >= len(want) || line != want[i] {
				t.Errorf("stream=%v: stream %d diverges from testdata/random_stream.golden\ngot:  %s", stream, i, line)
				if i < len(want) {
					t.Errorf("want: %s", want[i])
				}
			}
		}
		if len(want) != len(got) {
			t.Errorf("golden has %d streams, test ran %d", len(want), len(got))
		}
	}
}

// failPort fails the test on any request: a blocked walk must not
// issue one.
type failPort struct{ t testing.TB }

func (p failPort) Request(now uint64, lineAddr uint64) *LineRequest {
	p.t.Fatalf("cycle %d: a skipped walk would have requested line %#x", now, lineAddr)
	return nil
}

// clone copies f deeply, pending requests included, with its requests
// going to port. The predictor is shared: nothing a walk does reads it.
func (f *FrontEnd) clone(port ICachePort) *FrontEnd {
	c := *f
	c.port = port
	c.ftq = slices.Clone(f.ftq)
	c.bufs = slices.Clone(f.bufs)
	for i := range c.bufs {
		if r := c.bufs[i].pending; r != nil {
			cp := *r
			c.bufs[i].pending = &cp
		}
	}
	return &c
}

// skipChecker returns a randomStream check that proves every skipped
// walk sound. Before each Tick it replays, on a deep copy of the
// front-end, what Tick does up to issue's blocked check (latch the
// ready fills, protect the head). If issue is going to skip its walk,
// it forces the walk on the copy, whose port fails the test on any
// request: the walk must fail at the recorded entry, counting nothing
// and moving no cursor. skips counts the skipped walks checked.
func skipChecker(t testing.TB, skips *int) func(now uint64, fe *FrontEnd) {
	return func(now uint64, fe *FrontEnd) {
		sh := fe.clone(failPort{t})
		sh.latch(now)
		sh.protectHead()
		if !sh.blocked() {
			return
		}
		*skips++
		at, stats, gen := sh.blockedAt, sh.stats, sh.gen
		if got := sh.walk(now); got != at {
			t.Fatalf("cycle %d: skipped walk would fail at entry %d, not the recorded %d", now, got, at)
		}
		if sh.stats != stats || sh.gen != gen {
			t.Fatalf("cycle %d: skipped walk would change the front-end (stats %+v -> %+v, gen %d -> %d)",
				now, stats, sh.stats, gen, sh.gen)
		}
	}
}

// TestBlockedIssueSound checks every skipped walk of the pinned random
// streams, ticked every cycle and folded through Stream. Run and
// RunReference share FrontEnd.Tick, so their differential cannot see
// an unsound skip; this shadow walk can.
func TestBlockedIssueSound(t *testing.T) {
	for _, stream := range []bool{false, true} {
		total := 0
		for _, lb := range []int{1, 2, 4, 8} {
			for _, ftq := range []int{2, 8} {
				skips := 0
				randomStream(pinnedSpec(lb, ftq), stream, skipChecker(t, &skips))
				if lb < 8 && skips == 0 {
					t.Errorf("stream=%v lb=%d ftq=%d: no walk was skipped, nothing was checked", stream, lb, ftq)
				}
				total += skips
			}
		}
		t.Logf("stream=%v: %d skipped walks checked", stream, total)
	}
}

// FuzzBlockedIssueSound runs the shadow-walk check of
// TestBlockedIssueSound over fuzzed line-buffer counts, FTQ depths,
// port grant delays and latencies and seeds, and requires the ticked
// and the folded driver to print the same summary.
func FuzzBlockedIssueSound(f *testing.F) {
	f.Add(uint8(4), uint8(8), []byte{0, 0, 0, 1, 2, 6}, []byte{1, 1, 2, 3, 12, 40}, int64(1))
	f.Add(uint8(1), uint8(2), []byte{0}, []byte{1}, int64(2))
	f.Add(uint8(2), uint8(12), []byte{9, 0}, []byte{60, 1, 5}, int64(3))
	f.Fuzz(func(t *testing.T, lb, ftq uint8, delays, lats []byte, seed int64) {
		spec := streamSpec{
			lb: 1 + int(lb%8), ftq: 1 + int(ftq%12),
			seed: seed, portSeed: seed ^ 0x5eed,
			cycles: 4_000,
		}
		for _, d := range delays[:min(len(delays), 8)] {
			spec.grantDelay = append(spec.grantDelay, uint64(d%16))
		}
		for _, l := range lats[:min(len(lats), 8)] {
			spec.latencies = append(spec.latencies, 1+uint64(l%64))
		}
		if len(spec.grantDelay) == 0 || len(spec.latencies) == 0 {
			t.Skip("the port needs a grant delay and a latency to draw")
		}
		skips := 0
		ticked, _ := randomStream(spec, false, skipChecker(t, &skips))
		folded, _ := randomStream(spec, true, skipChecker(t, &skips))
		if ticked != folded {
			t.Fatalf("the folded driver diverges from the ticked one\nticked: %s\nfolded: %s", ticked, folded)
		}
	})
}

func readLines(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			lines = append(lines, line)
		}
	}
	return lines, nil
}
