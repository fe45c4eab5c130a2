// Package synth generates synthetic per-thread instruction traces that
// statistically reproduce the 24 HPC workloads the paper characterises
// (NPB, SPEC OMP 2012, ExMatEx). It substitutes for Pin instrumentation
// of the real binaries, which are unavailable offline: the paper's
// conclusions rest on the trace-visible code properties of §II — basic
// block length (Fig 2), I-cache MPKI against a 32 KB cache (Fig 3),
// ~99% dynamic instruction sharing between threads (Fig 4), and the
// serial code fraction (Fig 13) — and each Profile pins those knobs to
// the published per-benchmark values.
package synth

// Suite names for the three benchmark collections.
const (
	SuiteNPB     = "NPB"
	SuiteSPECOMP = "SPECOMP"
	SuiteExMatEx = "EXMATEX"
)

// Profile parameterises one synthetic benchmark. Byte quantities refer
// to instruction bytes (instructions are fixed 4-byte, RISC-style).
type Profile struct {
	Name  string
	Suite string

	// Code shape.
	//
	// SerialBB/ParallelBB are the mean dynamic basic-block lengths in
	// bytes for the two section types (Fig 2). SerialHotBody and
	// ParallelHotBody are the sizes of the innermost hot-loop bodies;
	// small bodies are captured by the line buffers (low Fig 9 access
	// ratio), large bodies stream from the I-cache every iteration.
	SerialBB        int
	ParallelBB      int
	SerialHotBody   int
	ParallelHotBody int

	// Footprints in bytes. SerialFootprint/ParallelFootprint are the
	// hot (looped) code regions; PrivateFootprint is per-thread code
	// executed by only one worker (bounds Fig 4 static sharing);
	// ColdFootprint is a streamed region larger than the I-cache whose
	// traversal manufactures misses (Fig 3 MPKI).
	SerialFootprint   int
	ParallelFootprint int
	PrivateFootprint  int
	ColdFootprint     int

	// Dynamic instruction mix.
	//
	// SerialColdFrac is the fraction of serial instructions spent
	// streaming the cold region: with 4-byte instructions and 64-byte
	// lines a pure stream misses every 16 instructions (62.5 MPKI), so
	// target serial MPKI ≈ 62.5 × SerialColdFrac. ParallelColdFrac is
	// the same for parallel sections (only CoEVP is nonzero, Fig 11's
	// 1.27 MPKI outlier). PrivateFrac is the fraction of parallel
	// instructions in per-thread private code (1 − dynamic sharing).
	SerialColdFrac   float64
	ParallelColdFrac float64
	PrivateFrac      float64

	// SerialFrac is serial instructions ÷ (serial + per-thread
	// parallel) on the master thread — the x-axis of Fig 13.
	SerialFrac float64

	// Branch behaviour: probability that a mid-body conditional is a
	// data-dependent (effectively random) skip. Serial code is ~3.8×
	// noisier than parallel code in the paper's measurements.
	SerialBranchNoise   float64
	ParallelBranchNoise float64
	// Trips is the nominal hot-loop trip count (jittered ±25%).
	Trips int

	// Back-end commit rates in milli-IPC, measured per the paper with
	// performance counters: master on an i7-class core (serial and
	// parallel sections), workers on a Cortex-A9-class core.
	MasterSerialIPC   int
	MasterParallelIPC int
	WorkerIPC         int

	// Structure.
	Phases           int  // serial→parallel alternations
	Skew             bool // task-based: rotate each worker's start kernel
	CriticalSections int  // critical-section pairs per worker per phase
	// BarriersPerRegion emits explicit mid-region barriers splitting
	// each parallel section (multi-kernel iterative codes synchronise
	// between worksharing loops inside one parallel region).
	BarriersPerRegion int
}

// Profiles returns the 24 benchmark profiles in the paper's plotting
// order (NPB, SPEC OMP 2012, ExMatEx). Values are tuned to the
// published Figures 2, 3, 4, 11 and 13. The target-vs-measured record
// is in ROADMAP.md until its planned EXPERIMENTS.md ledger lands.
func Profiles() []Profile {
	return []Profile{
		// suite NPB -------------------------------------------------
		{Name: "BT", BarriersPerRegion: 1, Suite: SuiteNPB, SerialBB: 76, ParallelBB: 224,
			SerialHotBody: 2048, ParallelHotBody: 4096,
			SerialFootprint: 12288, ParallelFootprint: 10240, PrivateFootprint: 512, ColdFootprint: 393216,
			SerialColdFrac: 0.13, PrivateFrac: 0.005, SerialFrac: 0.005,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.004, Trips: 24,
			MasterSerialIPC: 1900, MasterParallelIPC: 2400, WorkerIPC: 660, Phases: 4},
		{Name: "CG", Suite: SuiteNPB, SerialBB: 44, ParallelBB: 88,
			SerialHotBody: 256, ParallelHotBody: 192,
			SerialFootprint: 8192, ParallelFootprint: 6144, PrivateFootprint: 512, ColdFootprint: 262144,
			SerialColdFrac: 0.064, PrivateFrac: 0.006, SerialFrac: 0.01,
			SerialBranchNoise: 0.03, ParallelBranchNoise: 0.006, Trips: 48,
			MasterSerialIPC: 1700, MasterParallelIPC: 2200, WorkerIPC: 540, Phases: 4},
		{Name: "DC", Suite: SuiteNPB, SerialBB: 40, ParallelBB: 56,
			SerialHotBody: 512, ParallelHotBody: 384,
			SerialFootprint: 16384, ParallelFootprint: 8192, PrivateFootprint: 1024, ColdFootprint: 524288,
			SerialColdFrac: 0.72, PrivateFrac: 0.01, SerialFrac: 0.03,
			SerialBranchNoise: 0.05, ParallelBranchNoise: 0.01, Trips: 16,
			MasterSerialIPC: 1300, MasterParallelIPC: 1900, WorkerIPC: 480, Phases: 4, Skew: true},
		{Name: "EP", Suite: SuiteNPB, SerialBB: 52, ParallelBB: 112,
			SerialHotBody: 512, ParallelHotBody: 768,
			SerialFootprint: 6144, ParallelFootprint: 4096, PrivateFootprint: 256, ColdFootprint: 262144,
			SerialColdFrac: 0.048, PrivateFrac: 0.003, SerialFrac: 0.015,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.003, Trips: 64,
			MasterSerialIPC: 2100, MasterParallelIPC: 2600, WorkerIPC: 840, Phases: 3},
		{Name: "FT", Suite: SuiteNPB, SerialBB: 56, ParallelBB: 144,
			SerialHotBody: 1024, ParallelHotBody: 1536,
			SerialFootprint: 10240, ParallelFootprint: 8192, PrivateFootprint: 512, ColdFootprint: 262144,
			SerialColdFrac: 0.19, PrivateFrac: 0.005, SerialFrac: 0.025,
			SerialBranchNoise: 0.03, ParallelBranchNoise: 0.005, Trips: 32,
			MasterSerialIPC: 1800, MasterParallelIPC: 2300, WorkerIPC: 720, Phases: 4},
		{Name: "IS", Suite: SuiteNPB, SerialBB: 44, ParallelBB: 76,
			SerialHotBody: 256, ParallelHotBody: 256,
			SerialFootprint: 6144, ParallelFootprint: 4096, PrivateFootprint: 512, ColdFootprint: 262144,
			SerialColdFrac: 0.096, PrivateFrac: 0.008, SerialFrac: 0.04,
			SerialBranchNoise: 0.04, ParallelBranchNoise: 0.008, Trips: 40,
			MasterSerialIPC: 1600, MasterParallelIPC: 2100, WorkerIPC: 600, Phases: 4},
		{Name: "LU", Suite: SuiteNPB, SerialBB: 80, ParallelBB: 332,
			SerialHotBody: 3072, ParallelHotBody: 6144,
			SerialFootprint: 14336, ParallelFootprint: 12288, PrivateFootprint: 512, ColdFootprint: 393216,
			SerialColdFrac: 0.16, PrivateFrac: 0.004, SerialFrac: 0.005,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.003, Trips: 20,
			MasterSerialIPC: 1900, MasterParallelIPC: 2400, WorkerIPC: 690, Phases: 4},
		{Name: "MG", BarriersPerRegion: 1, Suite: SuiteNPB, SerialBB: 60, ParallelBB: 188,
			SerialHotBody: 1536, ParallelHotBody: 2048,
			SerialFootprint: 12288, ParallelFootprint: 9216, PrivateFootprint: 512, ColdFootprint: 327680,
			SerialColdFrac: 0.22, PrivateFrac: 0.005, SerialFrac: 0.01,
			SerialBranchNoise: 0.03, ParallelBranchNoise: 0.004, Trips: 24,
			MasterSerialIPC: 1800, MasterParallelIPC: 2300, WorkerIPC: 660, Phases: 4},
		{Name: "SP", BarriersPerRegion: 1, Suite: SuiteNPB, SerialBB: 72, ParallelBB: 256,
			SerialHotBody: 2560, ParallelHotBody: 5120,
			SerialFootprint: 13312, ParallelFootprint: 11264, PrivateFootprint: 512, ColdFootprint: 393216,
			SerialColdFrac: 0.18, PrivateFrac: 0.004, SerialFrac: 0.005,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.003, Trips: 22,
			MasterSerialIPC: 1850, MasterParallelIPC: 2350, WorkerIPC: 670, Phases: 4},
		{Name: "UA", BarriersPerRegion: 1, Suite: SuiteNPB, SerialBB: 48, ParallelBB: 120,
			SerialHotBody: 512, ParallelHotBody: 448,
			SerialFootprint: 10240, ParallelFootprint: 8192, PrivateFootprint: 768, ColdFootprint: 327680,
			SerialColdFrac: 0.35, PrivateFrac: 0.01, SerialFrac: 0.02,
			SerialBranchNoise: 0.04, ParallelBranchNoise: 0.01, Trips: 12,
			MasterSerialIPC: 1500, MasterParallelIPC: 2000, WorkerIPC: 810, Phases: 5},
		// suite SPEC OMP 2012 ---------------------------------------
		{Name: "md", Suite: SuiteSPECOMP, SerialBB: 56, ParallelBB: 200,
			SerialHotBody: 2048, ParallelHotBody: 3072,
			SerialFootprint: 10240, ParallelFootprint: 9216, PrivateFootprint: 512, ColdFootprint: 262144,
			SerialColdFrac: 0.096, PrivateFrac: 0.004, SerialFrac: 0.01,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.004, Trips: 28,
			MasterSerialIPC: 1900, MasterParallelIPC: 2400, WorkerIPC: 630, Phases: 4},
		{Name: "bwaves", Suite: SuiteSPECOMP, SerialBB: 64, ParallelBB: 240,
			SerialHotBody: 2560, ParallelHotBody: 4608,
			SerialFootprint: 12288, ParallelFootprint: 10240, PrivateFootprint: 512, ColdFootprint: 327680,
			SerialColdFrac: 0.16, PrivateFrac: 0.004, SerialFrac: 0.02,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.003, Trips: 24,
			MasterSerialIPC: 1850, MasterParallelIPC: 2350, WorkerIPC: 660, Phases: 4},
		{Name: "nab", Suite: SuiteSPECOMP, SerialBB: 128, ParallelBB: 84,
			SerialHotBody: 4096, ParallelHotBody: 512,
			SerialFootprint: 14336, ParallelFootprint: 6144, PrivateFootprint: 512, ColdFootprint: 262144,
			SerialColdFrac: 0.08, PrivateFrac: 0.006, SerialFrac: 0.22,
			SerialBranchNoise: 0.015, ParallelBranchNoise: 0.006, Trips: 24,
			MasterSerialIPC: 2200, MasterParallelIPC: 2300, WorkerIPC: 570, Phases: 5},
		{Name: "botsspar", Suite: SuiteSPECOMP, SerialBB: 44, ParallelBB: 64,
			SerialHotBody: 256, ParallelHotBody: 192,
			SerialFootprint: 8192, ParallelFootprint: 10240, PrivateFootprint: 3072, ColdFootprint: 262144,
			SerialColdFrac: 0.45, PrivateFrac: 0.04, SerialFrac: 0.02,
			SerialBranchNoise: 0.04, ParallelBranchNoise: 0.012, Trips: 36,
			MasterSerialIPC: 1500, MasterParallelIPC: 2000, WorkerIPC: 540, Phases: 4, Skew: true, CriticalSections: 1},
		{Name: "botsalgn", Suite: SuiteSPECOMP, SerialBB: 40, ParallelBB: 60,
			SerialHotBody: 256, ParallelHotBody: 192,
			SerialFootprint: 8192, ParallelFootprint: 12288, PrivateFootprint: 4096, ColdFootprint: 262144,
			SerialColdFrac: 0.38, PrivateFrac: 0.05, SerialFrac: 0.02,
			SerialBranchNoise: 0.04, ParallelBranchNoise: 0.012, Trips: 36,
			MasterSerialIPC: 1500, MasterParallelIPC: 2000, WorkerIPC: 540, Phases: 4, Skew: true, CriticalSections: 1},
		{Name: "ilbdc", Suite: SuiteSPECOMP, SerialBB: 68, ParallelBB: 324,
			SerialHotBody: 3072, ParallelHotBody: 6144,
			SerialFootprint: 12288, ParallelFootprint: 12288, PrivateFootprint: 256, ColdFootprint: 262144,
			SerialColdFrac: 0.13, PrivateFrac: 0.002, SerialFrac: 0.005,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.002, Trips: 20,
			MasterSerialIPC: 1900, MasterParallelIPC: 2400, WorkerIPC: 690, Phases: 4},
		{Name: "fma3d", Suite: SuiteSPECOMP, SerialBB: 56, ParallelBB: 148,
			SerialHotBody: 1024, ParallelHotBody: 1536,
			SerialFootprint: 16384, ParallelFootprint: 10240, PrivateFootprint: 768, ColdFootprint: 524288,
			SerialColdFrac: 0.77, PrivateFrac: 0.006, SerialFrac: 0.06,
			SerialBranchNoise: 0.04, ParallelBranchNoise: 0.005, Trips: 28,
			MasterSerialIPC: 1400, MasterParallelIPC: 2200, WorkerIPC: 630, Phases: 5},
		{Name: "imagick", Suite: SuiteSPECOMP, SerialBB: 44, ParallelBB: 128,
			SerialHotBody: 768, ParallelHotBody: 1024,
			SerialFootprint: 12288, ParallelFootprint: 8192, PrivateFootprint: 512, ColdFootprint: 393216,
			SerialColdFrac: 0.61, PrivateFrac: 0.005, SerialFrac: 0.03,
			SerialBranchNoise: 0.04, ParallelBranchNoise: 0.005, Trips: 32,
			MasterSerialIPC: 1450, MasterParallelIPC: 2150, WorkerIPC: 600, Phases: 4},
		{Name: "smithwa", Suite: SuiteSPECOMP, SerialBB: 44, ParallelBB: 92,
			SerialHotBody: 512, ParallelHotBody: 384,
			SerialFootprint: 10240, ParallelFootprint: 11264, PrivateFootprint: 3584, ColdFootprint: 327680,
			SerialColdFrac: 0.29, PrivateFrac: 0.045, SerialFrac: 0.02,
			SerialBranchNoise: 0.035, ParallelBranchNoise: 0.01, Trips: 32,
			MasterSerialIPC: 1600, MasterParallelIPC: 2100, WorkerIPC: 570, Phases: 4, Skew: true, CriticalSections: 1},
		{Name: "kdtree", Suite: SuiteSPECOMP, SerialBB: 40, ParallelBB: 80,
			SerialHotBody: 256, ParallelHotBody: 256,
			SerialFootprint: 8192, ParallelFootprint: 6144, PrivateFootprint: 1024, ColdFootprint: 262144,
			SerialColdFrac: 0.19, PrivateFrac: 0.015, SerialFrac: 0.03,
			SerialBranchNoise: 0.035, ParallelBranchNoise: 0.01, Trips: 40,
			MasterSerialIPC: 1600, MasterParallelIPC: 2100, WorkerIPC: 570, Phases: 4, Skew: true},
		// suite ExMatEx ---------------------------------------------
		{Name: "CoEVP", Suite: SuiteExMatEx, SerialBB: 136, ParallelBB: 96,
			SerialHotBody: 4096, ParallelHotBody: 640,
			SerialFootprint: 16384, ParallelFootprint: 10240, PrivateFootprint: 1024, ColdFootprint: 786432,
			SerialColdFrac: 0.9, ParallelColdFrac: 0.02, PrivateFrac: 0.008, SerialFrac: 0.13,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.006, Trips: 24,
			MasterSerialIPC: 2100, MasterParallelIPC: 2200, WorkerIPC: 540, Phases: 6},
		{Name: "CoMD", Suite: SuiteExMatEx, SerialBB: 56, ParallelBB: 160,
			SerialHotBody: 192, ParallelHotBody: 2048,
			SerialFootprint: 6144, ParallelFootprint: 9216, PrivateFootprint: 512, ColdFootprint: 262144,
			SerialColdFrac: 0.064, PrivateFrac: 0.004, SerialFrac: 0.20,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.004, Trips: 48,
			MasterSerialIPC: 2000, MasterParallelIPC: 2400, WorkerIPC: 630, Phases: 6},
		{Name: "CoSP", Suite: SuiteExMatEx, SerialBB: 40, ParallelBB: 72,
			SerialHotBody: 256, ParallelHotBody: 224,
			SerialFootprint: 10240, ParallelFootprint: 6144, PrivateFootprint: 768, ColdFootprint: 327680,
			SerialColdFrac: 0.51, PrivateFrac: 0.01, SerialFrac: 0.03,
			SerialBranchNoise: 0.04, ParallelBranchNoise: 0.01, Trips: 36,
			MasterSerialIPC: 1450, MasterParallelIPC: 2050, WorkerIPC: 540, Phases: 4, Skew: true},
		{Name: "LULESH", BarriersPerRegion: 1, Suite: SuiteExMatEx, SerialBB: 64, ParallelBB: 268,
			SerialHotBody: 2560, ParallelHotBody: 5632,
			SerialFootprint: 12288, ParallelFootprint: 12288, PrivateFootprint: 512, ColdFootprint: 327680,
			SerialColdFrac: 0.14, PrivateFrac: 0.004, SerialFrac: 0.09,
			SerialBranchNoise: 0.02, ParallelBranchNoise: 0.003, Trips: 22,
			MasterSerialIPC: 1850, MasterParallelIPC: 2350, WorkerIPC: 660, Phases: 5},
	}
}

// ProfileByName returns the profile named name and whether it exists.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileNames returns all benchmark names in plotting order.
func ProfileNames() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
