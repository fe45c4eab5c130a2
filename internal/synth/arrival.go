package synth

// Campaign-arrival synthesis: the instruction-trace synthesiser
// (synth.go) fabricates what one design point EXECUTES; the arrival
// synthesiser fabricates WHEN a stream of design points hits a campaign
// service, in the style of the invitro serverless load generator: a
// steady request rate expands into a schedule of (arrival offset,
// design point) rows that a client releases into an open campaign
// (campaignd's `POST /v1/campaign/{id}/arrive`) at the scheduled
// times, regardless of completion, so the service can be stressed past
// saturation.
//
// Within a slot, arrivals are equidistant (the invitro "uniform"
// distribution) and quantised to whole microseconds. Generation is
// fully deterministic: the same spec over the same point list produces
// the same schedule.

import (
	"fmt"
	"time"
)

// ArrivalMode selects the per-slot rate profile. Steady is the only
// profile; the type stays because the benchmark module names it.
type ArrivalMode int

// ArrivalSteady holds StartRPS for the whole trace.
const ArrivalSteady ArrivalMode = 0

// ArrivalSpec shapes one synthetic arrival trace.
type ArrivalSpec struct {
	Mode ArrivalMode
	// StartRPS is the request rate (must be > 0).
	StartRPS float64
	// Slot is the slot duration (must be > 0).
	Slot time.Duration
}

// Validate reports spec errors.
func (s ArrivalSpec) Validate() error {
	switch {
	case s.Mode != ArrivalSteady:
		return fmt.Errorf("synth: unknown arrival mode %d", int(s.Mode))
	case s.StartRPS <= 0:
		return fmt.Errorf("synth: arrival StartRPS %v must be > 0", s.StartRPS)
	case s.Slot <= 0:
		return fmt.Errorf("synth: arrival Slot %v must be > 0", s.Slot)
	}
	return nil
}

// ArrivalPoint is the design point one arrival submits: a benchmark,
// the shared-I-cache axes of internal/sweep, and an optional backend
// override. It deliberately mirrors sweep.Row's coordinates without
// importing the package (sweep imports synth), so the two cannot cycle.
type ArrivalPoint struct {
	Bench            string
	CPC, KB, LB, Bus int
	Backend          string
}

// Arrival is one trace row: a design point submitted Offset after the
// replay starts.
type Arrival struct {
	// Offset from the start of the replay, quantised to microseconds.
	Offset time.Duration
	Point  ArrivalPoint
}

// SynthesizeArrivals schedules every point at the spec's rate, in
// order: slot by slot, each slot receives its share of rate *
// slot-seconds equidistant arrivals until the point list is exhausted.
// Fractional arrivals carry over between slots (error diffusion), so a
// sub-1-per-slot rate still terminates and the realised rate tracks the
// requested one within one arrival per slot. The returned trace has
// exactly len(points) rows, is non-decreasing in Offset, and is
// deterministic.
func SynthesizeArrivals(spec ArrivalSpec, points []ArrivalPoint) ([]Arrival, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	slotUS := spec.Slot.Microseconds()
	perSlot := spec.StartRPS * spec.Slot.Seconds()
	out := make([]Arrival, 0, len(points))
	next := 0
	carry := 0.0
	for slot := 0; next < len(points); slot++ {
		carry += perSlot
		n := int(carry)
		carry -= float64(n)
		for k := 0; k < n && next < len(points); k++ {
			off := int64(slot)*slotUS + int64(k)*slotUS/int64(n)
			out = append(out, Arrival{
				Offset: time.Duration(off) * time.Microsecond,
				Point:  points[next],
			})
			next++
		}
	}
	return out, nil
}
