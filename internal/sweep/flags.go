package sweep

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"sharedicache/internal/experiments"
	"sharedicache/internal/synth"
)

// Flags holds the design-space and campaign flags shared by cmd/sweep
// and cmd/campaignd. Registering them in one place keeps the two
// drivers' flag names and defaults identical — which the
// byte-identical-CSV guarantee between a single-process sweep and a
// distributed campaign quietly depends on.
type Flags struct {
	Bench, CPCs, Sizes, LineBuffers, Buses string
	N                                      uint64
	Workers                                int
	Seed                                   uint64
	Cold                                   bool
	// Backend selects the simulation backend for every swept point.
	// Empty (the default) runs the detailed cycle-level simulator and
	// leaves the CSV schema untouched; any explicit value — including
	// "detailed" — also adds a backend column to the CSV, so triage
	// and frontier outputs are self-describing when mixed.
	Backend string
}

// RegisterFlags declares the shared flags on fs and returns the
// destination struct, populated after fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Bench, "bench", "UA,FT,LULESH", "comma-separated benchmarks")
	fs.StringVar(&f.CPCs, "cpc", "2,4,8", "sharing degrees to sweep")
	fs.StringVar(&f.Sizes, "size", "16,32", "shared I-cache sizes in KB")
	fs.StringVar(&f.LineBuffers, "lb", "4", "line-buffer counts")
	fs.StringVar(&f.Buses, "buses", "1,2", "bus counts")
	fs.Uint64Var(&f.N, "n", 80_000, "master instructions per run")
	fs.IntVar(&f.Workers, "workers", 8, "worker core count")
	fs.Uint64Var(&f.Seed, "seed", 1, "synthesis seed")
	fs.BoolVar(&f.Cold, "cold", false, "cold caches instead of steady state")
	fs.StringVar(&f.Backend, "backend", "", "simulation backend: detailed (default) or analytical; setting it adds a backend column to the CSV")
	return f
}

// Benches returns the benchmark list, rejecting unknown names.
func (f *Flags) Benches() ([]string, error) {
	benches := strings.Split(f.Bench, ",")
	for _, b := range benches {
		if _, ok := synth.ProfileByName(b); !ok {
			return nil, fmt.Errorf("unknown benchmark %q", b)
		}
	}
	return benches, nil
}

// Options resolves the campaign options the flags describe.
func (f *Flags) Options() (experiments.Options, error) {
	benches, err := f.Benches()
	if err != nil {
		return experiments.Options{}, err
	}
	opts := experiments.DefaultOptions()
	opts.Workers = f.Workers
	opts.Instructions = f.N
	opts.Seed = f.Seed
	opts.Prewarm = !f.Cold
	opts.Benchmarks = benches
	opts.Backend = f.Backend
	return opts, nil
}

// Space resolves the swept design-space axes.
func (f *Flags) Space() (Space, error) {
	benches, err := f.Benches()
	if err != nil {
		return Space{}, err
	}
	sp := Space{Benches: benches, Backend: f.Backend}
	for _, axis := range []struct {
		dst *[]int
		csv string
	}{
		{&sp.CPCs, f.CPCs}, {&sp.SizesKB, f.Sizes},
		{&sp.LineBuffers, f.LineBuffers}, {&sp.Buses, f.Buses},
	} {
		if *axis.dst, err = parseInts(axis.csv); err != nil {
			return Space{}, err
		}
	}
	return sp, nil
}

// Rows expands the flags' design space into its valid CSV rows
// without running anything — or building a Runner: the form a
// campaign is submitted to a remote coordinator in.
func (f *Flags) Rows() ([]Row, error) {
	opts, err := f.Options()
	if err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	space, err := f.Space()
	if err != nil {
		return nil, err
	}
	_, rows, _ := Expand(nil, opts, space.Backend, space.coords())
	return rows, nil
}

// parseInts parses a comma-separated integer list.
func parseInts(csv string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
