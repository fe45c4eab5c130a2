// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed measuring window, checks every output
// it produced against its correctness gates, and prints one JSON result
// object as the last line of standard output:
//
//	sh perfbench/run.sh --workload fig7-detailed --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every observability hook of the program off. With --trace 1 the
// run is a separate traced run: it attaches the program's tracer,
// report collector and metrics registry, wraps the layers in the
// benchmark's own timing shims, records a CPU profile and reports the
// per-layer metrics (see README.md).
//
//	sh perfbench/run.sh summarize runs/*.jsonl
//
// summarizes result lines from earlier runs: median, quartiles, spread
// and the highest percentile with at least ten samples beyond it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"sharedicache/internal/tracing"
)

// workload is one named traffic mix of the benchmark.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{name: "fig7-detailed", run: runFig7},
	{name: "triage-store", run: runTriage},
	{name: "service-openloop", run: runService},
}

// env is what every workload pass is given.
type env struct {
	root    string // repository checkout root (the working directory)
	scratch string // per-run scratch directory, removed at exit
	seed    uint64
	round   uint64 // the batch round: with seed, it orders the round's plan
	seconds time.Duration
	nproc   int
	// The traced run's tracer and per-layer collector; nil in the
	// measured runs.
	tr  *tracing.Tracer
	lay *layers
}

// inRound returns the env of batch round k.
func (e *env) inRound(k int) *env {
	c := *e
	c.round = uint64(k)
	return &c
}

// traced reports whether this is the traced run.
func (e *env) traced() bool { return e.lay != nil }

// outcome is what one workload pass reports.
type outcome struct {
	metrics   map[string]float64 // end-to-end metrics
	samples   map[string]int     // sample count behind each metric
	attempted int
	failed    int
	gates     []string // failed correctness gates
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

// put reports the median of samples as metric name.
func (o *outcome) put(name string, samples []float64) {
	o.metrics[name] = Summarize(samples).Median
	o.samples[name] = len(samples)
}

// putRows reports row latencies, one sample set per round: the median
// over rounds of each round's median, and of each round's highest
// percentile up to p99 that has at least ten samples beyond it.
func (o *outcome) putRows(rounds [][]float64) {
	var p50, tail []float64
	n, pct := 0, 99.0
	for _, r := range rounds {
		s := Summarize(r)
		p50, tail = append(p50, s.Median), append(tail, s.Tail)
		n += s.N
		pct = min(pct, s.TailPct)
	}
	o.metrics["row_p50_ms"], o.metrics["row_p99_ms"] = Summarize(p50).Median, Summarize(tail).Median
	o.samples["row_p50_ms"], o.samples["row_p99_ms"] = n, n
	o.samples["row_p99_ms.percentile"] = int(pct)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// settle collects garbage before a timed step, so whether a collection
// lands inside a short step does not depend on what ran before it. It
// collects twice: objects in sync.Pools survive one collection in the
// pools' victim caches, so the first leaves a live heap that depends on
// how full the pools were.
func settle() {
	runtime.GC()
	runtime.GC()
}

// flushDirty writes dirty file pages to disk (sync), so kernel
// writeback of files an earlier step wrote does not land inside the
// next timed step.
func flushDirty() { syscall.Sync() }

// csvDiff describes the first line where got departs from want, or
// returns "" when the two CSVs are byte-identical.
func csvDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d is %q, want %q", i+1, gl, wl)
		}
	}
	return "differs"
}

// gate records a failed correctness gate.
func (o *outcome) gate(format string, args ...any) {
	o.gates = append(o.gates, fmt.Sprintf(format, args...))
}

// endToEndUnits names every end-to-end metric with its unit;
// perLayerUnits in layers.go names the per-layer ones.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"campaign_s":  "s",
	"read_s":      "s",
	"row_p50_ms":  "ms",
	"row_p99_ms":  "ms",
	"peak_rss_mb": "MB",
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summarize" {
		if err := summarizeFiles(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: fig7-detailed, triage-store or service-openloop")
	seed := flag.Uint64("seed", 1, "input seed: orders the plan and the arrival schedule")
	seconds := flag.Int("seconds", 20, "length of the measuring window in seconds")
	traced := flag.Int("trace", 0, "1 runs the separate traced run and reports per-layer metrics")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	// The gates compare against files of the repository itself; a
	// directory without them is not a checkout the benchmark can judge.
	if _, err := os.Stat(filepath.Join(root, goldenCSV)); err != nil {
		return fmt.Errorf("not a repository checkout: %w", err)
	}
	scratch := filepath.Join(root, ".perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{
		root: root, scratch: scratch, seed: seed,
		seconds: time.Duration(seconds) * time.Second,
		nproc:   runtime.NumCPU(),
	}
	prov := provenance(e, name)
	if traced {
		return runTraced(ctx, e, w, prov)
	}
	out, err := w.run(ctx, e)
	if err != nil {
		return err
	}
	return emit(os.Stdout, prov, out, endToEndUnits)
}

// emit prints the provenance stamp, any failed gates, and the result
// object as the last line.
func emit(w io.Writer, prov map[string]any, out *outcome, units map[string]string) error {
	prov["samples"] = out.samples
	stamp, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(stamp))
	for _, g := range out.gates {
		fmt.Fprintln(w, "GATE FAILED:", g)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	var missing []string
	for name, unit := range units {
		v, ok := out.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		ms[name] = metric{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload did not measure %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.gates) == 0 && out.failed == 0, out.attempted, out.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// resetPeakRSS returns freed memory to the OS and starts a new
// resident-set high-water mark at the resulting RSS, so every interval
// of measured work starts from the same point. peak_rss_mb is the
// median over a run's intervals (a round; a second of the service
// window) of each interval's high-water mark.
func resetPeakRSS() {
	settle()
	debug.FreeOSMemory()
	clearPeakRSS()
}

// clearPeakRSS restarts the high-water mark at the current RSS (Linux
// clear_refs "5"). Where that is unavailable the mark covers the whole
// process.
func clearPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// sampleRSS records the RSS high-water mark of every interval into out
// until the returned func is called (once or more), which records the
// last, partial interval and waits for the sampler.
func sampleRSS(interval time.Duration, out *[]float64) func() {
	resetPeakRSS()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				*out = append(*out, peakRSSMB())
				return
			case <-t.C:
				*out = append(*out, peakRSSMB())
				clearPeakRSS()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// peakRSSMB is the resident-set high-water mark in MiB: VmHWM from
// /proc/self/status, else the process's lifetime maximum.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// minRounds is how many rounds a pass runs at least: n in measured
// runs, one in the traced run.
func (e *env) minRounds(n int) int {
	if e.traced() {
		return 1
	}
	return n
}

// untilDeadline reports whether another round fits: rounds repeat
// until the window has passed, and at least min rounds always run.
func untilDeadline(start time.Time, window time.Duration, done, min int) bool {
	return done < min || time.Since(start) < window
}
