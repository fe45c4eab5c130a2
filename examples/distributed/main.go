// Distributed: run one design-space campaign across a coordinator and
// two workers, all in this process but talking real HTTP over a
// loopback listener — exactly the topology a cluster would run with
// the coordinator on one node and `sweep -remote URL -worker` on the
// others, no shared filesystem required.
//
// The coordinator owns the run store and the campaign it enqueues;
// the workers fetch the campaign options, lease batches of design
// points under TTL leases, simulate them, and publish results back
// through the store plane. The main goroutine plays the role of
// `campaignd`'s merge loop: it streams results in plan order while
// the workers are still simulating.
//
// Run with:
//
//	go run ./examples/distributed [-n 40000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"

	"sharedicache"
)

func main() {
	n := flag.Uint64("n", 40_000, "master instruction budget per design point")
	flag.Parse()

	dir, err := os.MkdirTemp("", "campaignd-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := sharedicache.DefaultExperimentOptions()
	opts.Instructions = *n
	opts.Benchmarks = []string{"UA", "FT", "LULESH"}

	// The coordinator's runner defines the campaign; workers will fetch
	// these options over HTTP so every store key agrees.
	runner, err := sharedicache.NewRunner(opts)
	if err != nil {
		log.Fatal(err)
	}
	store, err := sharedicache.OpenRunStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	runner.SetStore(store)

	// The plan: per benchmark the private baseline plus the shared
	// organisation (16 KB, 4 line buffers, 2 buses) at each sharing
	// degree.
	space := sharedicache.DesignSpace{
		Benches: opts.Benchmarks, CPCs: []int{2, 4, 8},
		SizesKB: []int{16}, LineBuffers: []int{4}, Buses: []int{2},
	}
	plan, rows := space.Build(runner)

	srv, err := sharedicache.NewCampaignServer(sharedicache.CampaignServerConfig{
		Runner: runner, Store: store, Batch: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Enqueue before listening, so a worker never finds the server idle,
	// and seal: no campaign follows, so the workers exit once it is done.
	id, err := srv.Enqueue("distributed-example", plan.Points(), rows, sharedicache.CampaignCSVShape{})
	if err != nil {
		log.Fatal(err)
	}
	srv.Seal()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String()
	fmt.Printf("coordinator: %d points on %s\n\n", plan.Len(), url)

	// Two workers race for leases, the way two `sweep -remote -worker`
	// processes on two machines would.
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := sharedicache.CampaignWorker{URL: url, ID: fmt.Sprintf("worker-%d", i), Parallelism: 2}
			rep, err := w.Run(ctx)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("worker-%d: %d points over %d leases, %d simulated\n",
				i, rep.Points, rep.Leases, rep.Simulations)
		}(i)
	}

	// Merge: results stream in plan order while the workers simulate.
	fmt.Println("benchmark    org            cpc      cycles")
	for pr := range srv.Stream(ctx, id) {
		if pr.Err != nil {
			log.Fatal(pr.Err)
		}
		fmt.Printf("%-12s %-14s %3d  %10d\n", pr.Point.Bench,
			pr.Point.Cfg.Organization, pr.Point.Cfg.CPC, pr.Result.Cycles)
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("\ncampaign complete: %d points, %d store writes, %d leases expired — zero duplicate work\n",
		st.Dispatch.Points, st.Store.Writes, st.Dispatch.ExpiredLeases)
}
