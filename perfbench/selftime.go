package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"sharedicache/internal/tracing"
)

// layerTime is one span name's row of the traced run's self-time table.
type layerTime struct {
	Name    string
	Count   int
	TotalMS float64
	// SelfMS is the summed duration minus the part of each span's
	// interval its child spans cover.
	SelfMS float64
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals, each clipped
// to the parent's.
func selfTimes(spans []tracing.Span) []layerTime {
	type iv struct{ lo, hi int64 }
	children := map[string][]iv{}
	for _, s := range spans {
		if s.ParentID != "" {
			k := s.TraceID + "/" + s.ParentID
			children[k] = append(children[k], iv{s.Start, s.Start + s.Dur})
		}
	}
	by := map[string]*layerTime{}
	for _, s := range spans {
		lo, hi := s.Start, s.Start+s.Dur
		kids := children[s.TraceID+"/"+s.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		var covered int64
		cur := lo
		for _, c := range kids {
			a, b := max(c.lo, cur), min(c.hi, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		t := by[s.Name]
		if t == nil {
			t = &layerTime{Name: s.Name}
			by[s.Name] = t
		}
		t.Count++
		t.TotalMS += float64(s.Dur) / 1e3
		t.SelfMS += float64(s.Dur-covered) / 1e3
	}
	out := make([]layerTime, 0, len(by))
	for _, t := range by {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func printSelfTimes(w io.Writer, table []layerTime) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range table {
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f\n", t.Name, t.Count, t.TotalMS, t.SelfMS)
	}
}

func writeSelfTimes(path string, table []layerTime) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "span\tcount\ttotal_ms\tself_ms")
	for _, t := range table {
		fmt.Fprintf(bw, "%s\t%d\t%.3f\t%.3f\n", t.Name, t.Count, t.TotalMS, t.SelfMS)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writeTrace writes spans as a Chrome trace-event file (Perfetto).
func writeTrace(path string, spans []tracing.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := tracing.WriteChromeTrace(bw, spans); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
