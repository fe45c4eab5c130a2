package sharedicache_test

import (
	"fmt"

	"sharedicache"
)

// Build a workload from a paper benchmark profile.
func ExampleNewWorkload() {
	p, _ := sharedicache.ProfileByName("FT")
	w, err := sharedicache.NewWorkload(p, sharedicache.WorkloadConfig{
		Workers: 8, MasterInstructions: 50_000, Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("threads:", w.NumThreads())
	fmt.Println("suite:", w.Profile().Suite)
	// Output:
	// threads: 9
	// suite: NPB
}

// Compare the private baseline against the paper's shared design.
func ExampleNewSimulator() {
	p, _ := sharedicache.ProfileByName("FT")
	w, _ := sharedicache.NewWorkload(p, sharedicache.WorkloadConfig{
		Workers: 8, MasterInstructions: 50_000, Seed: 1,
	})

	base, _ := sharedicache.NewSimulator(sharedicache.DefaultConfig(), w.Sources())
	b, _ := base.Run()

	shared, _ := sharedicache.NewSimulator(sharedicache.SharedConfig(), w.Sources())
	s, _ := shared.Run()

	fmt.Printf("time ratio ~%.1f\n", float64(s.Cycles)/float64(b.Cycles))
	fmt.Println("sharing reduced worker misses:",
		s.WorkerICache.Misses < b.WorkerICache.Misses)
	// Output:
	// time ratio ~1.0
	// sharing reduced worker misses: true
}

// The Hill-Marty model behind Figure 1.
func ExamplePaperCMPDesigns() {
	designs := sharedicache.PaperCMPDesigns()
	acmp := designs[2]
	fmt.Printf("fully parallel: %.0fx\n", acmp.Speedup(0))
	fmt.Printf("30%% serial:     %.0fx\n", acmp.Speedup(0.30))
	// Output:
	// fully parallel: 14x
	// 30% serial:     5x
}

// Worker-cluster area with the paper's §VI-D methodology: the area
// that sharing saves buys a ninth lean core, which the Hill-Marty
// model of Figure 1 turns into parallel throughput.
func ExampleTech_ClusterArea() {
	tech := sharedicache.Default45nm()
	private := sharedicache.Cluster{
		Workers: 8, Caches: 8,
		Cache:              sharedicache.DefaultConfig().ICache,
		LineBuffersPerCore: 4,
	}
	shared := sharedicache.Cluster{
		Workers: 8, Caches: 1,
		Cache:               sharedicache.SharedConfig().ICache,
		BusesPerCache:       2,
		BusWidthBytes:       32,
		LineBuffersPerCore:  4,
		SharedCacheOverhead: 0.25,
	}
	shared.Cache.Banks = shared.BusesPerCache // one bank per bus, as the simulator ports it
	shared9 := shared
	shared9.Workers = 9
	pa, _ := tech.ClusterArea(private)
	sa, _ := tech.ClusterArea(shared)
	sa9, _ := tech.ClusterArea(shared9)
	fmt.Printf("area saving: %.0f%%\n", 100*(1-sa.TotalMM2()/pa.TotalMM2()))
	fmt.Printf("9 shared workers: %.3f mm^2 of 8 private's %.3f, %.3f to spare\n",
		sa9.TotalMM2(), pa.TotalMM2(), pa.TotalMM2()-sa9.TotalMM2())

	// One 4-BCE master plus 8 or 9 one-BCE workers.
	acmp8 := sharedicache.CMPDesign{Name: "8w", BudgetBCE: 12, BigBCE: 4, BigCores: 1}
	acmp9 := sharedicache.CMPDesign{Name: "9w", BudgetBCE: 13, BigBCE: 4, BigCores: 1}
	for _, serial := range []float64{0, 0.10} {
		fmt.Printf("9th core at %2.0f%% serial: %+.2f%%\n",
			100*serial, 100*(acmp9.Speedup(serial)/acmp8.Speedup(serial)-1))
	}
	// Output:
	// area saving: 13%
	// 9 shared workers: 14.478 mm^2 of 8 private's 14.875, 0.398 to spare
	// 9th core at  0% serial: +10.00%
	// 9th core at 10% serial: +6.21%
}

// Run one registered paper experiment.
func ExampleExperimentByID() {
	e, err := sharedicache.ExperimentByID("fig1")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(e.Title)
	// Output:
	// ACMP vs symmetric CMP speedup (Hill-Marty model)
}
