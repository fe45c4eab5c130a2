// Package trace defines the per-thread instruction trace format consumed
// by the ACMP simulator.
//
// A trace is a stream of records. Most records describe fetch blocks
// (sequences of instructions that end at a branch); interleaved control
// records carry the five OpenMP synchronisation events the paper replays
// (parallel start/end, barrier, critical wait/signal) plus IPC-change
// events that drive the commit-rate back-end.
//
// Traces can be produced lazily by a generator (see internal/synth) or
// serialised to a compact binary file and read back (Writer/Reader).
package trace

import "fmt"

// Kind enumerates trace record types.
type Kind uint8

// Record kinds. FetchBlock carries the instruction payload; the rest are
// control records.
const (
	// KindFetchBlock is a run of consecutive instructions ending in a
	// (possibly not-taken) branch.
	KindFetchBlock Kind = iota
	// KindParallelStart marks the master thread opening a parallel
	// region. Worker traces begin each parallel section with it.
	KindParallelStart
	// KindParallelEnd marks the implicit barrier closing a parallel
	// region.
	KindParallelEnd
	// KindBarrier is an explicit mid-region barrier.
	KindBarrier
	// KindCriticalWait acquires the critical section / semaphore named
	// by Sync.
	KindCriticalWait
	// KindCriticalSignal releases the critical section / semaphore
	// named by Sync.
	KindCriticalSignal
	// KindIPCSet changes the back-end commit rate (instructions per
	// cycle) for the issuing thread. IPC is fixed-point milli-IPC.
	KindIPCSet
	// KindEnd marks end of thread trace.
	KindEnd
)

// String returns the record kind mnemonic.
func (k Kind) String() string {
	switch k {
	case KindFetchBlock:
		return "FB"
	case KindParallelStart:
		return "ParallelStart"
	case KindParallelEnd:
		return "ParallelEnd"
	case KindBarrier:
		return "Barrier"
	case KindCriticalWait:
		return "CriticalWait"
	case KindCriticalSignal:
		return "CriticalSignal"
	case KindIPCSet:
		return "IPCSet"
	case KindEnd:
		return "End"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one trace event.
//
// For KindFetchBlock:
//   - Addr is the virtual address of the first instruction.
//   - Len is the block length in bytes (all instructions consecutive).
//   - NumInstr is the instruction count in the block.
//   - Taken reports whether the terminating branch was taken.
//   - Target is the address of the next fetch block (branch target if
//     taken, fall-through otherwise).
//   - BranchAddr is the address of the terminating branch instruction.
//     If the block does not end in a branch (e.g. it was split because
//     of a section boundary), HasBranch is false.
//
// For KindIPCSet, IPCMilli holds the new commit rate in thousandths of
// an instruction per cycle.
//
// For KindCriticalWait/KindCriticalSignal, Sync identifies the
// synchronisation object.
type Record struct {
	Kind       Kind
	Addr       uint64
	Target     uint64
	BranchAddr uint64
	Len        uint32
	NumInstr   uint32
	IPCMilli   uint32
	Sync       uint32
	Taken      bool
	HasBranch  bool
}

// String renders a record compactly, for debugging and golden tests.
func (r Record) String() string {
	switch r.Kind {
	case KindFetchBlock:
		t := "nt"
		if r.Taken {
			t = "t"
		}
		return fmt.Sprintf("FB@%#x len=%d n=%d %s->%#x", r.Addr, r.Len, r.NumInstr, t, r.Target)
	case KindIPCSet:
		return fmt.Sprintf("IPCSet %d.%03d", r.IPCMilli/1000, r.IPCMilli%1000)
	case KindCriticalWait, KindCriticalSignal:
		return fmt.Sprintf("%s sync=%d", r.Kind, r.Sync)
	default:
		return r.Kind.String()
	}
}

// Source is a stream of trace records for one thread. Implementations
// must return io.EOF-like behaviour via ok=false after the final record
// (which is conventionally KindEnd).
type Source interface {
	// Next returns the next record. ok is false when the stream is
	// exhausted.
	Next() (rec Record, ok bool)
}

// Collect drains src into a slice. It is intended for tests and tools;
// large traces should be consumed streaming.
func Collect(src Source) []Record {
	var out []Record
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}
