package core

import (
	"reflect"
	"testing"

	"sharedicache/internal/interconnect"
	"sharedicache/internal/synth"
)

// fuzzPoint maps fuzz bytes to a valid simulation point: a
// configuration (organization, workers and cores per cache, I-cache
// size and latency, line buffers, FTQ depth, buses, bus latency,
// arbitration, mispredict penalties, queue capacity, shared predictor),
// a profile, a seed, 1-4k master instructions and a prewarm flag. Each
// byte picks one choice (the instruction count takes two); missing
// bytes read as zero.
func fuzzPoint(data []byte) (cfg Config, bench string, instr, seed uint64, warm bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cfg = DefaultConfig()
	cfg.Organization = Organization(next() % 3)
	cfg.Workers = 1 + next()%8
	cpc := next()
	if cfg.Organization == OrgWorkerShared {
		cfg.Workers = max(cfg.Workers, 2)
		var divisors []int
		for d := 2; d <= cfg.Workers; d++ {
			if cfg.Workers%d == 0 {
				divisors = append(divisors, d)
			}
		}
		cfg.CPC = divisors[cpc%len(divisors)]
	}
	cfg.ICache.SizeBytes = []int{8, 16, 32, 64}[next()%4] << 10
	cfg.ICacheLatency = 1 + next()%3
	cfg.LineBuffers = []int{1, 2, 4, 8}[next()%4]
	cfg.FTQDepth = 1 + next()%8
	cfg.Buses = []int{1, 2, 4}[next()%3] // shared-cache banks mirror buses: a power of two
	cfg.BusLatency = next() % 5
	cfg.Arbitration = interconnect.Policy(next() % 3)
	cfg.MispredictPenaltyWorker = next() % 16
	cfg.MispredictPenaltyMaster = next() % 24
	cfg.InstrQueueCap = 1 + next()%48
	cfg.SharedWorkerPredictor = next()%2 == 1
	profiles := synth.Profiles()
	bench = profiles[next()%len(profiles)].Name
	seed = uint64(1 + next())
	instr = 1_000 + uint64(next()<<8|next())%3_001
	warm = next()%2 == 1
	return cfg, bench, instr, seed, warm
}

// fig7Seed encodes one Fig 7 point (8 workers, Table I timing) for
// fuzzPoint: org, workers, cpc index, size index, then the Table I
// defaults, profile index, seed, 8k instructions and the warm flag.
func fig7Seed(cfg Config, profile int, warm bool) []byte {
	cpcIdx := map[int]byte{2: 0, 4: 1, 8: 2}[cfg.CPC]
	sizeIdx := map[int]byte{8: 0, 16: 1, 32: 2, 64: 3}[cfg.ICache.SizeBytes>>10]
	busIdx := map[int]byte{1: 0, 2: 1, 4: 2}[cfg.Buses]
	w := byte(0)
	if warm {
		w = 1
	}
	return []byte{
		byte(cfg.Organization), 7, cpcIdx, sizeIdx,
		0, 2, 7, busIdx, 2, 0, 8, 14, 23, 0,
		byte(profile), 10, 0x0b, 0xb8, w, // 0x0bb8 = 3000: 4k instructions
	}
}

// FuzzRunMatchesReference is the open-ended form of the equivalence
// tests: on any valid point the fuzzer reaches, Run's Result must
// deep-equal RunReference's. The corpus starts from the Fig 7 space.
func FuzzRunMatchesReference(f *testing.F) {
	profiles := synth.Profiles()
	for i, cfg := range fig7Configs() {
		seed := fig7Seed(cfg, i%len(profiles), i%2 == 0)
		got, _, instr, _, _ := fuzzPoint(seed)
		if !reflect.DeepEqual(got, cfg) || instr != 4_000 {
			f.Fatalf("seed %d decodes to %+v, %d instructions; want the Fig 7 point %+v", i, got, instr, cfg)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, bench, instr, seed, warm := fuzzPoint(data)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzPoint built an invalid config: %v", err)
		}
		fast, fastErr := buildSim(t, cfg, bench, instr, seed, warm).Run()
		ref, refErr := buildSim(t, cfg, bench, instr, seed, warm).RunReference()
		if (fastErr != nil) != (refErr != nil) {
			t.Fatalf("Run error %v, RunReference error %v", fastErr, refErr)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("%s %+v instr=%d seed=%d warm=%v: fast and reference results diverge\nfast: %+v\nref:  %+v",
				bench, cfg, instr, seed, warm, fast, ref)
		}
	})
}
