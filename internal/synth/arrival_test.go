package synth

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// arrivalPoints fabricates n distinct design points cycling through a
// small axis grid.
func arrivalPoints(n int) []ArrivalPoint {
	benches := []string{"FT", "UA", "LULESH"}
	backends := []string{"", "detailed", "analytical"}
	pts := make([]ArrivalPoint, n)
	for i := range pts {
		pts[i] = ArrivalPoint{
			Bench:   benches[i%len(benches)],
			CPC:     2 << (i % 3),
			KB:      16 << (i % 2),
			LB:      4,
			Bus:     1 + i%2,
			Backend: backends[i%len(backends)],
		}
	}
	return pts
}

// arrivalSpecs is the rate matrix the property tests sweep.
func arrivalSpecs() map[string]ArrivalSpec {
	return map[string]ArrivalSpec{
		"steady":      {Mode: ArrivalSteady, StartRPS: 40, Slot: 500 * time.Millisecond},
		"slow-steady": {Mode: ArrivalSteady, StartRPS: 0.5, Slot: 200 * time.Millisecond},
	}
}

// TestArrivalsMonotoneAndComplete: every rate schedules every point
// exactly once, in point order, with non-decreasing offsets.
func TestArrivalsMonotoneAndComplete(t *testing.T) {
	pts := arrivalPoints(137)
	for name, spec := range arrivalSpecs() {
		t.Run(name, func(t *testing.T) {
			trace, err := SynthesizeArrivals(spec, pts)
			if err != nil {
				t.Fatal(err)
			}
			if len(trace) != len(pts) {
				t.Fatalf("trace has %d rows, want %d", len(trace), len(pts))
			}
			for i, a := range trace {
				if a.Point != pts[i] {
					t.Fatalf("row %d carries %+v, want %+v", i, a.Point, pts[i])
				}
				if i > 0 && a.Offset < trace[i-1].Offset {
					t.Fatalf("offset regressed at row %d: %v after %v", i, a.Offset, trace[i-1].Offset)
				}
				if a.Offset%time.Microsecond != 0 {
					t.Fatalf("row %d offset %v not microsecond-quantised", i, a.Offset)
				}
			}
		})
	}
}

// TestArrivalsHitSlotRPS: each fully-populated slot carries the spec's
// rate within one arrival (the error diffusion's bound), so the
// realised load tracks the requested rate.
func TestArrivalsHitSlotRPS(t *testing.T) {
	pts := arrivalPoints(400)
	for name, spec := range arrivalSpecs() {
		t.Run(name, func(t *testing.T) {
			trace, err := SynthesizeArrivals(spec, pts)
			if err != nil {
				t.Fatal(err)
			}
			perSlot := map[int]int{}
			for _, a := range trace {
				perSlot[int(a.Offset/spec.Slot)]++
			}
			last := int(trace[len(trace)-1].Offset / spec.Slot)
			want := spec.StartRPS * spec.Slot.Seconds()
			for slot := 0; slot < last; slot++ { // last slot may be truncated
				if got := float64(perSlot[slot]); math.Abs(got-want) > 1 {
					t.Errorf("slot %d: %v arrivals, want %v +/- 1", slot, got, want)
				}
			}
			if last < 2 {
				t.Fatalf("trace too short to exercise slots: last populated slot %d", last)
			}
		})
	}
}

// TestArrivalSpecValidate rejects the degenerate shapes the generator
// cannot terminate or make sense of.
func TestArrivalSpecValidate(t *testing.T) {
	bad := []ArrivalSpec{
		{Mode: ArrivalSteady, StartRPS: 0, Slot: time.Second},
		{Mode: ArrivalSteady, StartRPS: 10, Slot: 0},
		{Mode: ArrivalMode(1), StartRPS: 10, Slot: time.Second},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d (%+v) validated, want error", i, spec)
		}
		if _, err := SynthesizeArrivals(spec, arrivalPoints(3)); err == nil {
			t.Errorf("spec %d synthesized, want error", i)
		}
	}
}

// TestArrivalsDeterministic: same spec, same points, same schedule.
func TestArrivalsDeterministic(t *testing.T) {
	pts := arrivalPoints(64)
	spec := arrivalSpecs()["steady"]
	synthesize := func() []Arrival {
		trace, err := SynthesizeArrivals(spec, pts)
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	if a, b := synthesize(), synthesize(); !reflect.DeepEqual(a, b) {
		t.Fatal("two identical syntheses produced different traces")
	}
}

func ExampleSynthesizeArrivals() {
	trace, _ := SynthesizeArrivals(
		ArrivalSpec{Mode: ArrivalSteady, StartRPS: 4, Slot: time.Second},
		arrivalPoints(4))
	for _, a := range trace {
		fmt.Println(a.Offset, a.Point.Bench)
	}
	// Output:
	// 0s FT
	// 250ms UA
	// 500ms LULESH
	// 750ms FT
}
