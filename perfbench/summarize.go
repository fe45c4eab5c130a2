package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// summarizeFiles reads benchmark output (each run's provenance line
// followed by its result line; other lines are skipped) and prints, per
// workload and metric, the sample count, median, quartiles, spread
// (interquartile distance over the median) and the highest percentile
// with at least ten samples beyond it. Runs whose result is not
// correct are counted and reported, never summarized.
func summarizeFiles(w io.Writer, files []string) error {
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	units := map[key]string{}
	incorrect := map[string]int{}
	var order []key
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		workload := "?"
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var rec struct {
				Provenance *struct{ Workload string }
				Correct    *bool
				Metrics    map[string]struct {
					Value float64
					Unit  string
				}
			}
			if json.Unmarshal([]byte(line), &rec) != nil {
				continue
			}
			if rec.Provenance != nil {
				workload = rec.Provenance.Workload
				continue
			}
			if rec.Correct == nil {
				continue
			}
			if !*rec.Correct {
				incorrect[workload]++
				continue
			}
			for name, m := range rec.Metrics {
				k := key{workload, name}
				if _, seen := vals[k]; !seen {
					order = append(order, k)
				}
				vals[k] = append(vals[k], m.Value)
				units[k] = m.Unit
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Fprintf(w, "%-18s %-36s %4s %14s %14s %14s %8s %s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "tail")
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload < order[j].workload
		}
		return order[i].metric < order[j].metric
	})
	for _, k := range order {
		s := Summarize(vals[k])
		tail := fmt.Sprintf("p%.0f=%.6g", s.TailPct, s.Tail)
		fmt.Fprintf(w, "%-18s %-36s %4d %14.6g %14.6g %14.6g %8.4f %s %s\n",
			k.workload, k.metric, s.N, s.Median, s.Q1, s.Q3, s.Spread(), tail, units[k])
	}
	for _, wl := range sortedKeys(incorrect) {
		fmt.Fprintf(w, "%s: %d runs failed their correctness gates\n", wl, incorrect[wl])
	}
	return nil
}
