package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sharedicache/internal/core"
)

// TestRunAllStreamParity checks that the stream delivers every point
// in plan order with results identical to the batch API.
func TestRunAllStreamParity(t *testing.T) {
	r := smallRunner(t, nil)
	batch, err := campaignPlan(r).RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	r2 := smallRunner(t, nil)
	plan := campaignPlan(r2)
	ch := plan.RunAllStream(context.Background())
	i := 0
	for pr := range ch {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		if pr.Index != i {
			t.Fatalf("stream delivered index %d at position %d", pr.Index, i)
		}
		if !reflect.DeepEqual(pr.Result, batch[i]) {
			t.Fatalf("streamed result %d differs from batch result", i)
		}
		if pr.Point != plan.Points()[i] {
			t.Fatalf("streamed point %d does not match the plan", i)
		}
		i++
	}
	if i != plan.Len() {
		t.Fatalf("stream delivered %d points, want %d", i, plan.Len())
	}
}

// TestRunAllStreamError injects a failing point mid-plan: the stream
// must deliver the points before it, then a single terminal Err, then
// close.
func TestRunAllStreamError(t *testing.T) {
	r := smallRunner(t, func(o *Options) { o.Parallelism = 1 })
	plan := r.Plan()
	plan.AddPoint(Point{Bench: "FT", Cfg: core.PrivateConfig(8)})
	badCfg := core.PrivateConfig(8)
	badCfg.ICacheLatency = 0 // rejected by core.New
	plan.AddPoint(Point{Bench: "FT", Cfg: badCfg})
	plan.AddPoint(Point{Bench: "UA", Cfg: core.PrivateConfig(8)})

	ch := plan.RunAllStream(context.Background())
	var got []PointResult
	for pr := range ch {
		got = append(got, pr)
	}
	if len(got) == 0 {
		t.Fatal("stream closed without delivering anything")
	}
	last := got[len(got)-1]
	if last.Err == nil {
		t.Fatalf("stream ended without an error after a failing point (%d results)", len(got))
	}
	if !strings.Contains(last.Err.Error(), "FT") {
		t.Fatalf("terminal error %q does not name the failing point", last.Err)
	}
	for _, pr := range got[:len(got)-1] {
		if pr.Err != nil || pr.Result == nil {
			t.Fatal("non-terminal stream entries must carry results")
		}
	}
}

// TestRunAllStreamCancel cancels mid-stream; the channel must
// terminate (with or without a surfaced ctx error) instead of hanging.
func TestRunAllStreamCancel(t *testing.T) {
	r := smallRunner(t, func(o *Options) { o.Parallelism = 1 })
	ctx, cancel := context.WithCancel(context.Background())
	plan := campaignPlan(r)
	ch := plan.RunAllStream(ctx)
	n := 0
	for pr := range ch {
		n++
		if pr.Err != nil {
			if !errors.Is(pr.Err, context.Canceled) {
				t.Fatalf("terminal error = %v, want context.Canceled", pr.Err)
			}
			break
		}
		cancel()
	}
	cancel()
	for range ch {
	}
	if n > plan.Len() {
		t.Fatalf("stream delivered %d entries for a %d-point plan", n, plan.Len())
	}
}

// TestStreamedFigureParity checks that each streamed figure (Figs
// 7-11) given a RowEmit emits its table's header and then exactly the
// table's rows, Fig 10's amean included, and returns the same result
// as with a nil (batch) emit.
func TestStreamedFigureParity(t *testing.T) {
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10", "fig11"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := e.Run(context.Background(), smallRunner(t, nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			var rows [][]string
			streamed, err := e.Run(context.Background(), smallRunner(t, nil), func(label string, cells ...string) {
				rows = append(rows, append([]string{label}, cells...))
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch, streamed) {
				t.Fatalf("streamed %s result differs from batch result", id)
			}
			tbl := streamed.Table()
			want := [][]string{append([]string{"benchmark"}, tbl.Columns...)}
			for i, label := range tbl.Labels() {
				want = append(want, append([]string{label}, tbl.Cells()[i]...))
			}
			if !reflect.DeepEqual(rows, want) {
				t.Fatalf("emitted rows %q, want header + table rows %q", rows, want)
			}
		})
	}
}

// TestEachBenchmarkStops: an add error or a cancelled context ends the
// figure loop with that error, and once it returns no goroutine of its
// stream is left running.
func TestEachBenchmarkStops(t *testing.T) {
	r := smallRunner(t, nil)
	cfgs := []core.Config{core.PrivateConfig(8), core.WorkerSharedConfig(8, 8, 32, 4, 1)}
	before := runtime.NumGoroutine()

	boom := errors.New("boom")
	calls := 0
	err := eachBenchmark(context.Background(), r, nil, nil, false, cfgs, func(profile, []*core.Result) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("add error: err = %v after %d add calls, want boom after 1", err, calls)
	}

	// A fresh runner: a memory-tier hit may still be delivered under a
	// cancelled context, a fresh point never is.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = eachBenchmark(ctx, smallRunner(t, nil), nil, nil, false, cfgs, func(profile, []*core.Result) error {
		t.Error("add called under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v, want context.Canceled", err)
	}

	// The delivery and fan-out goroutines close their channels as
	// their last act, so allow them a moment to exit.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// gate latches the "test-gate" backend: each Execute signals started,
// then holds until release closes, whatever its context says, so a
// test can observe what a stream does while a point is still running.
var gate struct {
	started, release chan struct{}
}

var registerGateBackend = sync.OnceFunc(func() {
	RegisterBackend("test-gate", func(Options) (Backend, error) { return gateBackend{}, nil })
})

type gateBackend struct{}

func (gateBackend) Name() string        { return "test-gate" }
func (gateBackend) Fingerprint() string { return "test-gate/v1" }
func (gateBackend) Execute(ctx context.Context, bench string, cfg core.Config, prewarm bool) (*core.Result, error) {
	gate.started <- struct{}{}
	<-gate.release
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &core.Result{Config: cfg, Cycles: 7, Cores: make([]core.CoreResult, cfg.Workers+1)}, nil
}

// resetGate arms the gate for one test and returns its blocking point.
func resetGate() Point {
	registerGateBackend()
	gate.started, gate.release = make(chan struct{}, 1), make(chan struct{})
	return Point{Bench: "FT", Cfg: core.PrivateConfig(8), Backend: "test-gate"}
}

// TestRunAllStreamClosesAfterFanOut: a consumer that cancels and drains
// must not see the channel close while a point's Execute is still
// blocked — a closed stream means nothing of the plan still runs.
func TestRunAllStreamClosesAfterFanOut(t *testing.T) {
	blocked := resetGate()
	r := smallRunner(t, func(o *Options) { o.Parallelism = 2 })
	// Point 0 is warm in the memory tier, so delivery parks on its send
	// while point 1 blocks in Execute.
	warm := Point{Bench: "FT", Cfg: core.PrivateConfig(8), Backend: "analytical"}
	if _, err := r.RunAll(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := r.Plan(warm, blocked).RunAllStream(ctx)
	<-gate.started
	// Give delivery time to park on point 0's send, where a close that
	// overtakes the fan-out would happen. The assertion below holds
	// whether or not it got there.
	time.Sleep(20 * time.Millisecond)
	cancel()

	drained := make(chan []PointResult)
	go func() {
		var got []PointResult
		for pr := range ch {
			got = append(got, pr)
		}
		drained <- got
	}()
	select {
	case <-drained:
		close(gate.release)
		t.Fatal("stream closed while a point's Execute was still blocked")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)
	got := <-drained
	if len(got) == 0 || !errors.Is(got[len(got)-1].Err, context.Canceled) {
		t.Fatalf("cancelled stream = %+v, want it to end with a context.Canceled record", got)
	}
}

// TestRunAllWaitsForFanOut: a cancelled RunAll returns only once the
// blocked point's Execute has returned too.
func TestRunAllWaitsForFanOut(t *testing.T) {
	blocked := resetGate()
	r := smallRunner(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() {
		_, err := r.RunAll(ctx, blocked)
		returned <- err
	}()
	<-gate.started
	cancel()
	select {
	case err := <-returned:
		close(gate.release)
		t.Fatalf("RunAll returned (%v) while a point's Execute was still blocked", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)
	if err := <-returned; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
