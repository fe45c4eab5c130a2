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
//     buses, L2s and DRAM.
//   - Workload / Profile wrap the synthetic HPC trace generator
//     (internal/synth) covering the paper's 24 benchmarks.
//   - Runner / Plan / Experiments wrap the per-figure harness and its
//     parallel campaign engine (internal/experiments): design points
//     are declared up front, deduplicated by a singleflight run cache,
//     and fanned out across ExperimentOptions.Parallelism goroutines
//     with context cancellation. Each point dispatches to a pluggable
//     SimulationBackend — the cycle-level "detailed" simulator or the
//     "analytical" triage estimator — selected per campaign or per
//     point.
//   - RunStore (internal/runstore) persists results on disk as a
//     second cache tier keyed by content hash; Shard partitions a
//     CampaignPlan deterministically so sharded processes sharing one
//     store directory split a campaign, and
//     CampaignPlan.RunAllStream returns a channel of results in plan
//     order as they complete; a truncated stream ends with one
//     PointResult whose Err is set.
//   - CampaignServer / CampaignWorker / RemoteRunStore
//     (internal/campaignd) distribute campaigns over HTTP: the server
//     owns the store and every enqueued campaign's plan, workers lease
//     design points under TTL leases (crashed workers' points are
//     stolen by survivors), and merged results stream back in plan
//     order.
//   - DesignSpace / SweepCSV (internal/sweep) expand the swept axes
//     into a plan and render the campaign CSV, and PrepareRefine
//     (internal/refine) runs the automated triage-then-refine
//     pipeline: calibrate the analytical backend against detailed
//     ground truth on a golden slice, triage the full space
//     analytically, and re-plan the frontier a FrontierSelector picks
//     onto the detailed backend (see docs/REFINE.md).
//   - MetricsRegistry (internal/metrics), Tracer (internal/tracing)
//     and SimReportCollector (internal/simreport) are the
//     observability layer: runner cache tiers, store traffic and lease
//     health all register on one registry, served in Prometheus text
//     form at the coordinator's GET /metrics; a Tracer records
//     per-point span timelines — propagated across the campaign's HTTP
//     planes so worker spans parent under coordinator lease spans —
//     exported as Chrome trace-event JSON for Perfetto; and a
//     SimReportCollector captures per-point microarchitectural
//     telemetry (CPI stall stacks, cache/bus stats, host cost), held
//     in memory, written by the drivers' -report flag and aggregated
//     campaign-wide at GET /v1/simstatsz from the reports workers ship
//     with each completed batch (see docs/OBSERVABILITY.md).
//   - Tech / Cluster wrap the McPAT/CACTI-style area & energy model
//     (internal/power).
//   - CMPDesign wraps the Hill-Marty speedup model (internal/amdahl).
package sharedicache

import (
	"context"
	"io"

	"sharedicache/internal/amdahl"
	"sharedicache/internal/campaignd"
	"sharedicache/internal/core"
	"sharedicache/internal/experiments"
	"sharedicache/internal/interconnect"
	"sharedicache/internal/metrics"
	"sharedicache/internal/power"
	"sharedicache/internal/refine"
	"sharedicache/internal/runstore"
	"sharedicache/internal/simreport"
	"sharedicache/internal/sweep"
	"sharedicache/internal/synth"
	"sharedicache/internal/trace"
	"sharedicache/internal/tracing"
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

// DesignPoint is one (benchmark, configuration) simulation request in
// a campaign plan; its Backend field may override the campaign's
// simulation backend for that point alone.
type DesignPoint = experiments.Point

// SimulationBackend resolves design points to results: the cycle-level
// "detailed" simulator (the default) or the Hill & Marty + cache-model
// "analytical" estimator, selected per campaign via
// ExperimentOptions.Backend or per point via DesignPoint.Backend.
// Entries cached in a RunStore are keyed by backend, so the two can
// never cross-pollute.
type SimulationBackend = experiments.Backend

// RegisterSimulationBackend adds a backend to the registry under its
// selection name (it panics on duplicates).
func RegisterSimulationBackend(name string, f experiments.BackendFactory) {
	experiments.RegisterBackend(name, f)
}

// SimulationBackends lists the registered backend names, sorted.
func SimulationBackends() []string { return experiments.BackendNames() }

// CampaignPlan is an ordered batch of design points; RunAll fans it
// out across ExperimentOptions.Parallelism goroutines and returns
// results in plan order.
type CampaignPlan = experiments.Plan

// ExperimentOptions scales an experiment campaign, including its
// Parallelism (0 = all cores).
type ExperimentOptions = experiments.Options

// Experiment couples a figure id with its runner; Run takes a
// context.Context so campaigns can be aborted cleanly, and a row
// callback that figures rendering row by row feed (nil: batch only).
type Experiment = experiments.Experiment

// PointResult is one streamed design-point outcome from
// CampaignPlan.RunAllStream, delivered in plan order.
type PointResult = experiments.PointResult

// Shard names partition i of N of a campaign; CampaignPlan.Shard
// selects the sub-plan it owns, deterministically across processes.
type Shard = experiments.Shard

// ParseShard parses the "i/N" command-line shard form.
func ParseShard(s string) (Shard, error) { return experiments.ParseShard(s) }

// RunStore is a persistent, content-addressed on-disk result cache;
// attach one to a Runner with SetStore to make campaigns resumable and
// shardable across processes.
type RunStore = runstore.Store

// ResultStore is the persistent-tier interface Runner.SetStore
// consumes: the on-disk RunStore and the network-backed
// RemoteRunStore both implement it.
type ResultStore = experiments.ResultStore

// RunStoreStats counts store hits, misses, writes and bad entries.
type RunStoreStats = runstore.Stats

// OpenRunStore opens (creating if needed) a run store directory.
func OpenRunStore(dir string) (*RunStore, error) { return runstore.Open(dir) }

// CampaignServer coordinates distributed campaigns: it serves the run
// store over HTTP and leases plan points to remote workers with
// TTL-based work stealing, streaming merged results in plan order.
// Every campaign enters through Enqueue (or POST /v1/campaign) and is
// merged by Stream or WriteCSV; Seal ends admission, after which
// workers exit once every point is done.
type CampaignServer = campaignd.Server

// CampaignServerConfig assembles a CampaignServer.
type CampaignServerConfig = campaignd.ServerConfig

// CampaignCSVShape is the merged-CSV layout a campaign is enqueued
// with: the optional backend and phase columns and refine's metric
// adjustment.
type CampaignCSVShape = sweep.Shape

// NewCampaignServer builds a coordinator over its store, with no
// campaign enqueued yet: add campaigns with CampaignServer.Enqueue.
func NewCampaignServer(cfg CampaignServerConfig) (*CampaignServer, error) {
	return campaignd.New(cfg)
}

// RemoteRunStore is a ResultStore backed by a CampaignServer's store
// plane, for campaigns spanning machines without a shared filesystem.
type RemoteRunStore = campaignd.RemoteStore

// OpenRemoteRunStore builds a client for the coordinator at baseURL;
// ctx bounds the lifetime of every request the store makes.
func OpenRemoteRunStore(ctx context.Context, baseURL string) (*RemoteRunStore, error) {
	return campaignd.NewRemoteStore(ctx, baseURL)
}

// CampaignWorker leases design points from a CampaignServer, simulates
// them, and publishes the results back through the store plane.
type CampaignWorker = campaignd.Worker

// MetricsRegistry collects the process's counters, gauges and
// histograms and renders them in Prometheus text exposition form;
// attach one to a Runner with SetMetrics, a CampaignWorker via its
// Metrics field, or a CampaignServer via its config to publish the
// whole campaign's health on one GET /metrics endpoint.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Tracer records bounded in-memory span timelines; attach one to a
// Runner with SetTracer, a CampaignServer via its config, or a
// CampaignWorker via its Tracer field. All methods are no-ops on a nil
// Tracer, so instrumented code needs no branches and tracing stays off
// by default. See docs/OBSERVABILITY.md.
type Tracer = tracing.Tracer

// TracerConfig assembles a Tracer: its process name, buffer capacity
// and optional slog sink for finished spans.
type TracerConfig = tracing.Config

// TraceSpan is one finished span: trace/span/parent IDs, process,
// microsecond start and duration, and free-form attributes.
type TraceSpan = tracing.Span

// NewTracer builds a span recorder with a fresh trace ID.
func NewTracer(cfg TracerConfig) *Tracer { return tracing.New(cfg) }

// WriteChromeTrace renders spans as Chrome trace-event JSON, loadable
// in Perfetto (processes become pids, engine worker slots become tids).
func WriteChromeTrace(w io.Writer, spans []TraceSpan) error {
	return tracing.WriteChromeTrace(w, spans)
}

// SimReport is one design point's microarchitectural telemetry:
// per-core CPI stall stacks, per-level I-cache traffic, bus occupancy,
// DRAM and runtime counters, plus the host-side cost of simulating it.
type SimReport = simreport.Report

// SimReportCollector accumulates SimReports across a campaign; attach
// one to a Runner with SetReporter, a CampaignWorker via its Reports
// field, or a CampaignServer via its config (which then serves the
// aggregate at GET /v1/simstatsz). Nil-safe and off by default, like
// Tracer. See docs/OBSERVABILITY.md.
type SimReportCollector = simreport.Collector

// SimReportSummary is the campaign-wide aggregate: totals, stall
// shares, and per-backend / per-configuration distributions.
type SimReportSummary = simreport.Summary

// NewSimReportCollector builds an empty report collector.
func NewSimReportCollector() *SimReportCollector { return simreport.NewCollector() }

// WriteSimReports writes a collector's reports and their summary as
// indented JSON to path, returning the report count.
func WriteSimReports(path string, c *SimReportCollector) (int, error) {
	return simreport.WriteFile(path, c)
}

// DesignSpace enumerates the swept design-space axes shared by
// cmd/sweep and cmd/campaignd; Build declares it on a Runner as a
// CampaignPlan plus the CSV row metadata.
type DesignSpace = sweep.Space

// SweepRow ties one sweep CSV row to its plan indexes, and — for
// auto-refine campaigns — carries its backend and phase labels.
type SweepRow = sweep.Row

// SweepMetrics are one sweep row's derived values: normalised
// execution time, worker MPKI, access ratio, bus wait, and the power
// model's area/energy ratios.
type SweepMetrics = sweep.Metrics

// SweepCSV renders sweep rows to CSV, batch or streaming, with
// optional backend/phase columns and a metric-adjust hook.
type SweepCSV = sweep.CSV

// NewSweepCSV builds a sweep CSV emitter for the given worker count.
func NewSweepCSV(out io.Writer, workers int) *SweepCSV { return sweep.NewCSV(out, workers) }

// RefineConfig assembles an automated triage-then-refine campaign:
// the full design space, the runner (with the run store, if any, that
// makes a repeat campaign's calibration free), and the frontier
// selector.
type RefineConfig = refine.Config

// RefineResult is a prepared auto-refine campaign: the mixed plan
// (analytical triage + detailed frontier), phase-labelled CSV rows,
// and the calibration fit to apply to triage rows.
type RefineResult = refine.Result

// PrepareRefine runs the calibration and analytical-triage phases and
// returns the mixed campaign, ready to execute locally or to serve
// through a CampaignServer. See docs/REFINE.md for the workflow.
func PrepareRefine(ctx context.Context, cfg RefineConfig) (*RefineResult, error) {
	return refine.Prepare(ctx, cfg)
}

// FrontierSelector picks the triage rows worth re-running on the
// detailed backend; TopKSelector, ParetoSelector and BandSelector are
// the built-in rules.
type FrontierSelector = refine.Selector

// FrontierCandidate is one triage row with its calibrated metrics, as
// handed to a FrontierSelector.
type FrontierCandidate = refine.Candidate

// TopKSelector selects the K best rows by one metric.
type TopKSelector = refine.TopK

// ParetoSelector selects the Pareto frontier over time and energy.
type ParetoSelector = refine.Pareto

// BandSelector selects rows whose metric falls inside [Lo, Hi].
type BandSelector = refine.Band

// CalibrationFit is the per-metric correction mapping analytical
// estimates onto detailed ground truth, refitted every campaign from
// the golden points' results.
type CalibrationFit = refine.Calibration

// MetricFit is one metric's least-squares correction (y = A·x + B)
// with its residual error.
type MetricFit = refine.Fit

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
