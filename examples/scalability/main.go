// Scalability: how many lean cores can share one I-cache? The paper
// stops at eight workers and notes (§VI-E, "Group 3") that a ninth
// sharer already exposes the single bus. This example sweeps the
// sharing degree from 2 to 16 workers with 1, 2 and 4 buses and prints
// the slowdown frontier plus the largest worker count each
// interconnect sustains within 2%.
//
// Run with:
//
//	go run ./examples/scalability [-n 60000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"sharedicache"
)

func main() {
	n := flag.Uint64("n", 60_000, "master instruction budget per design point")
	flag.Parse()

	opts := sharedicache.DefaultExperimentOptions()
	opts.Instructions = *n
	opts.Benchmarks = []string{"UA", "FT", "LULESH"}
	runner, err := sharedicache.NewRunner(opts)
	if err != nil {
		log.Fatal(err)
	}

	e, err := sharedicache.ExperimentByID("ext-scale")
	if err != nil {
		log.Fatal(err)
	}
	res, err := e.Run(context.Background(), runner, nil)
	if err != nil {
		log.Fatal(err)
	}
	tbl := res.Table()
	fmt.Println(tbl.String())
	fmt.Println(tbl.Bars(0, 48, 1.0)) // single-bus column as a bar chart

	fmt.Println("Reading the frontier: the paper's octa-core cluster with a")
	fmt.Println("double bus is the knee — beyond it, either quadruple the")
	fmt.Println("interconnect or split the cluster into two sharing groups")
	fmt.Println("(cpc=8), which is exactly the Xeon-Phi-style organisation the")
	fmt.Println("paper suggests in §VI-D.")
}
