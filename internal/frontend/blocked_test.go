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

// randomStream drives one front-end over a seeded block stream for a
// fixed number of cycles, with requests granted after seeded delays and
// resolved with mixed latencies, and summarises what it did: every
// request's cycle and line, NextEvent's answer at rest before each
// cycle, the front-end Stats and the back-end's CPI stack.
func randomStream(lb, ftq int) string {
	const cycles = 30_000
	rng := rand.New(rand.NewSource(int64(1000*lb + ftq)))
	port := &scriptPort{
		rng:        rand.New(rand.NewSource(int64(7*lb + ftq))),
		grantDelay: []uint64{0, 0, 0, 1, 2, 6},
		latencies:  []uint64{1, 1, 2, 3, 12, 40},
	}
	fe := New(Config{LineBuffers: lb, FTQDepth: ftq, LineBytes: 64, MispredictPenalty: 6},
		port, branch.NewDefault())
	be := backend.New(24, 1500)
	prog := newProgram(rng, 96)

	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	rec, next := prog.walk(rng, 0)
	for now := uint64(0); now < cycles; now++ {
		event, idle := fe.NextEvent(now)
		put(event)
		if idle {
			put(1)
		} else {
			put(0)
		}
		port.tick(now)
		if fe.CanAccept(now) && rng.Intn(4) != 0 {
			fe.PushBlock(now, rec)
			rec, next = prog.walk(rng, next)
		}
		fe.Tick(now, be)
		be.Tick(fe.BlockReason(now))
	}
	for _, r := range port.log {
		put(r.cycle)
		put(r.line)
	}
	return fmt.Sprintf("lb=%d ftq=%d requests=%d stats=%+v stack=%+v sha256=%s",
		lb, ftq, len(port.log), fe.Stats(), be.Stack(), hex.EncodeToString(h.Sum(nil))[:32])
}

// TestRandomStreamPinned replays seeded random block streams over every
// line-buffer count and two FTQ depths and requires each summary to
// match testdata/random_stream.golden line for line.
func TestRandomStreamPinned(t *testing.T) {
	want, err := readLines("testdata/random_stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, lb := range []int{1, 2, 4, 8} {
		for _, ftq := range []int{2, 8} {
			got = append(got, randomStream(lb, ftq))
		}
	}
	for i, line := range got {
		if i >= len(want) || line != want[i] {
			t.Errorf("stream %d diverges from testdata/random_stream.golden\ngot:  %s", i, line)
			if i < len(want) {
				t.Errorf("want: %s", want[i])
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d streams, test ran %d", len(want), len(got))
	}
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
