// Package sharedicache reproduces "Sharing the Instruction Cache Among
// Lean Cores on an Asymmetric CMP for HPC Applications" (Milic, Rico,
// Carpenter, Ramirez; ISPASS 2017): a trace-driven, cycle-level
// simulator of an asymmetric chip multiprocessor in which the lean
// worker cores share an L1 instruction cache behind an arbitrated bus,
// plus the workload synthesis, power/area models and experiment
// harness that regenerate every figure of the paper's evaluation.
//
// # Quick start
//
//	p, _ := sharedicache.ProfileByName("FT")
//	w, _ := sharedicache.NewWorkload(p, sharedicache.WorkloadConfig{
//		Workers: 8, MasterInstructions: 200_000, Seed: 1,
//	})
//	sim, _ := sharedicache.NewSimulator(sharedicache.SharedConfig(), w.Sources())
//	res, _ := sim.Run()
//	fmt.Println(res.Cycles, res.WorkerMPKI())
//
// # Layout
//
//   - Simulator / Config / Result wrap the cycle-level ACMP model
//     (internal/core) with its decoupled front-ends, shared I-cache,
//     arbitrated buses (ArbitrationPolicy), L2s and DRAM; it replays
//     per-thread TraceSources, master thread first.
//   - Workload / Profile wrap the synthetic HPC trace generator
//     (internal/synth) covering the paper's 24 benchmarks.
//   - Tech / Cluster wrap the McPAT/CACTI-style area and energy model
//     (internal/power), and CMPDesign the Hill-Marty speedup model
//     (internal/amdahl).
//   - Runner / Experiments wrap the per-figure harness
//     (internal/experiments) that regenerates each figure and table of
//     the evaluation, simulating every distinct design point once.
//
// The campaign system around the harness (run store, sweep, distributed
// coordinator, triage-then-refine, metrics, tracing and simulation
// reports) is reached through the drivers under cmd/; see
// docs/ARCHITECTURE.md.
package sharedicache

import (
	"sharedicache/internal/amdahl"
	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/interconnect"
	"sharedicache/internal/power"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
)

// Simulator runs one workload on one ACMP configuration (single use).
type Simulator = core.Simulator

// Config is the simulated ACMP configuration (the paper's Table I).
type Config = core.Config

// Result aggregates one simulation run.
type Result = core.Result

// Organization selects private, worker-shared or all-shared I-caches.
type Organization = core.Organization

// I-cache organisations.
const (
	// OrgPrivate is the baseline: per-core private I-caches (Fig 5a).
	OrgPrivate = core.OrgPrivate
	// OrgWorkerShared shares I-caches among groups of workers (Fig 5b).
	OrgWorkerShared = core.OrgWorkerShared
	// OrgAllShared attaches the master to the shared I-cache (§VI-E).
	OrgAllShared = core.OrgAllShared
)

// DefaultConfig returns the Table I private-I-cache baseline.
func DefaultConfig() Config { return core.DefaultConfig() }

// SharedConfig returns the paper's preferred design point: one 16 KB
// I-cache shared by all 8 workers behind a double bus.
func SharedConfig() Config { return core.SharedConfig() }

// NewSimulator builds a simulator over per-thread trace sources
// (sources[0] is the master thread).
func NewSimulator(cfg Config, sources []TraceSource) (*Simulator, error) {
	return core.New(cfg, sources)
}

// TraceSource streams one thread's trace records.
type TraceSource = trace.Source

// TraceRecord is one trace event (fetch block, sync event or IPC set).
type TraceRecord = trace.Record

// Profile parameterises one synthetic HPC benchmark.
type Profile = synth.Profile

// Workload holds one benchmark's generated code regions and hands out
// per-thread trace sources.
type Workload = synth.Workload

// WorkloadConfig controls trace synthesis.
type WorkloadConfig = synth.Config

// Profiles returns the 24 benchmark profiles in the paper's order.
func Profiles() []Profile { return synth.Profiles() }

// ProfileByName returns the named profile and whether it exists.
func ProfileByName(name string) (Profile, bool) { return synth.ProfileByName(name) }

// ProfileNames returns the benchmark names in plotting order.
func ProfileNames() []string { return synth.ProfileNames() }

// NewWorkload synthesises a workload from a profile.
func NewWorkload(p Profile, cfg WorkloadConfig) (*Workload, error) { return synth.New(p, cfg) }

// Runner executes and caches simulations across experiments: its
// singleflight run cache simulates each distinct design point exactly
// once even under concurrent use.
type Runner = experiments.Runner

// ExperimentOptions scales an experiment campaign, including its
// Parallelism (0 = all cores).
type ExperimentOptions = experiments.Options

// Experiment couples a figure id with its runner; Run takes a
// context.Context so campaigns can be aborted cleanly, and a row
// callback that figures rendering row by row feed (nil: batch only).
type Experiment = experiments.Experiment

// DefaultExperimentOptions returns the defaults used by
// cmd/experiments.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// NewRunner builds an experiment runner.
func NewRunner(opts ExperimentOptions) (*Runner, error) { return experiments.NewRunner(opts) }

// Experiments returns every paper experiment in order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns one experiment: "fig1".."fig13", "table1",
// or the extensions "ext-scale" and "ext-cold".
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// Tech bundles technology coefficients for the area/energy model.
type Tech = power.Tech

// Cluster describes a worker cluster for the area/energy model.
type Cluster = power.Cluster

// Default45nm returns the coefficients calibrated to the paper.
func Default45nm() Tech { return power.Default45nm() }

// CMPDesign is a Hill-Marty CMP design for the Fig 1 model.
type CMPDesign = amdahl.Design

// PaperCMPDesigns returns the three Fig 1 designs (16 BCE).
func PaperCMPDesigns() []CMPDesign { return amdahl.PaperDesigns() }

// Activity carries the simulation counts the energy model integrates.
type Activity = power.Activity

// PowerReport couples the Fig 12 metrics (cycles, area, energy) for
// one design point.
type PowerReport = power.Report

// AreaBreakdown itemises worker-cluster area in mm^2.
type AreaBreakdown = power.AreaBreakdown

// EnergyBreakdown itemises worker-cluster energy in joules.
type EnergyBreakdown = power.EnergyBreakdown

// ArbitrationPolicy selects the shared I-bus arbitration discipline.
type ArbitrationPolicy = interconnect.Policy

// Arbitration policies (the paper uses round-robin; the others support
// the §VII fetch-policy ablation).
const (
	// RoundRobin rotates priority past the last grantee.
	RoundRobin = interconnect.RoundRobin
	// FixedPriority always serves the lowest-index core first.
	FixedPriority = interconnect.FixedPriority
	// OldestFirst is global FCFS by submit cycle.
	OldestFirst = interconnect.OldestFirst
)
