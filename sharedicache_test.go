package sharedicache

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 24 {
		t.Fatalf("paper evaluates 24 workloads, facade lists %d", len(ps))
	}
	names := ProfileNames()
	if len(names) != 24 || names[0] != "BT" || names[23] != "LULESH" {
		t.Fatalf("profile order wrong: %v", names)
	}
	p, ok := ProfileByName("FT")
	if !ok || p.Suite != "NPB" {
		t.Fatal("FT profile missing or mis-suited")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("unknown profile should not resolve")
	}
}

func TestFacadeConfigs(t *testing.T) {
	base := DefaultConfig()
	if base.Organization != OrgPrivate || base.ICache.SizeBytes != 32<<10 {
		t.Fatalf("baseline config wrong: %+v", base)
	}
	shared := SharedConfig()
	if shared.Organization != OrgWorkerShared || shared.CPC != 8 ||
		shared.ICache.SizeBytes != 16<<10 || shared.Buses != 2 {
		t.Fatalf("shared config wrong: %+v", shared)
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := shared.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Arbitration = ArbitrationPolicy(9)
	if bad.Validate() == nil {
		t.Fatal("unknown arbitration policy should fail validation")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	p, _ := ProfileByName("EP")
	w, err := NewWorkload(p, WorkloadConfig{Workers: 8, MasterInstructions: 30_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(SharedConfig(), w.Sources())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.TotalInstructions() == 0 {
		t.Fatal("empty result")
	}
	if res.Bus.Granted == 0 {
		t.Fatal("shared design should use the bus")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if got := len(Experiments()); got != 14 {
		t.Fatalf("14 experiments expected, got %d", got)
	}
	e, err := ExperimentByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultExperimentOptions()
	opts.Benchmarks = []string{"EP"}
	opts.Instructions = 30_000
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table().String(), "ACMP") {
		t.Fatal("fig1 table should mention the ACMP")
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Fatal("unknown experiment id should error")
	}
}

func TestFacadePowerAndAmdahl(t *testing.T) {
	tech := Default45nm()
	if err := tech.Validate(); err != nil {
		t.Fatal(err)
	}
	cl := Cluster{Workers: 8, Caches: 8, Cache: DefaultConfig().ICache, LineBuffersPerCore: 4}
	rep, err := tech.Evaluate(cl, Activity{Cycles: 1000, Instructions: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Area.TotalMM2() <= 0 || rep.Energy.TotalJ() <= 0 {
		t.Fatal("degenerate power report")
	}
	designs := PaperCMPDesigns()
	if len(designs) != 3 {
		t.Fatalf("Fig 1 has three designs, got %d", len(designs))
	}
	if designs[2].Speedup(0) != 14 {
		t.Fatal("ACMP speedup at f=0 should be 14")
	}
}

func TestFacadeArbitrationNames(t *testing.T) {
	if RoundRobin.String() != "round-robin" ||
		FixedPriority.String() != "fixed-priority" ||
		OldestFirst.String() != "oldest-first" {
		t.Fatal("policy names wrong")
	}
}
