package core

import (
	"testing"

	"sharedicache/internal/frontend"
)

// TestSlotTableTracksFabric pins the shared cache's request slot table
// on a Fig 7 point whose workers mispredict (FT, 8 workers per 16 KB
// cache, one bus, prewarmed). It steps the per-cycle loop by hand and
// checks after every fabric tick and every core tick that the slots in
// use are exactly the requests the fabric still queues. A redirect
// flush drops the buffers of its core's queued requests but not the
// requests: every such orphan must still be granted, resolved and have
// its slot freed.
func TestSlotTableTracksFabric(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ICache.SizeBytes = 16 << 10
	cfg.Organization = OrgWorkerShared
	cfg.CPC = 8
	cfg.Buses = 1
	sim := buildSim(t, cfg, "FT", 20_000, 1, true)
	maxCycles, err := sim.start()
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.shared[0]
	peak := 0 // the most requests the fabric ever queued at once
	check := func(now uint64, after string) {
		t.Helper()
		peak = max(peak, sc.fabric.Pending())
		used := 0
		for _, r := range sc.slots {
			if r != nil {
				used++
			}
		}
		if used != sc.fabric.Pending() || used+len(sc.free) != len(sc.slots) {
			t.Fatalf("cycle %d, after %s: %d slots in use and %d free of %d, fabric queues %d",
				now, after, used, len(sc.free), len(sc.slots), sc.fabric.Pending())
		}
	}

	orphans := map[*frontend.LineRequest]bool{}
	granted := 0
	var queued, mine []*frontend.LineRequest
	for now := uint64(0); !sim.allFinished(); now++ {
		if now >= maxCycles {
			t.Fatal(errMaxCycles(maxCycles))
		}
		queued = append(queued[:0], sc.slots...)
		sc.Tick(now)
		for tok, r := range queued {
			if r == nil || sc.slots[tok] != nil {
				continue
			}
			if !r.Granted || !r.Resolved || r.GrantAt != now {
				t.Fatalf("cycle %d: slot %d freed for a request not resolved by this grant: %+v", now, tok, *r)
			}
			if orphans[r] {
				delete(orphans, r)
				granted++
			}
		}
		check(now, "the fabric tick")
		for _, c := range sim.cores {
			mine = mine[:0]
			for _, r := range sc.slots {
				if r != nil && r.Core == c.id {
					mine = append(mine, r)
				}
			}
			mispredicts := c.fe.Stats().Mispredicts
			sim.tickCore(now, c)
			if c.fe.Stats().Mispredicts != mispredicts {
				// The flush dropped the buffer of every request c had
				// queued; requests made after it in this tick are not
				// orphans.
				for _, r := range mine {
					orphans[r] = true
				}
			}
			check(now, "a core tick")
		}
	}
	t.Logf("%d orphaned requests granted, %d still queued at the end; table of %d slots",
		granted, len(orphans), len(sc.slots))
	if granted == 0 {
		t.Error("no flush orphaned a queued request: the orphan path went untested")
	}
	if sc.fabric.Pending() != len(orphans) {
		t.Errorf("fabric queues %d requests at the end, want only the %d ungranted orphans",
			sc.fabric.Pending(), len(orphans))
	}
	if len(sc.slots) != peak {
		t.Errorf("slot table grew to %d slots, want the %d requests most ever queued at once", len(sc.slots), peak)
	}
}
