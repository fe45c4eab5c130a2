package campaignd

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStreamMidCancelRemoteTierTerminalRecord is the regression pin
// for cancellation falling through the remote store tier: a RemoteStore
// answers a cancelled lookup with a plain miss (corruption-as-miss
// semantics — never an error), so without a context check after the
// miss the runner would pay for a full post-cancellation simulation and
// then fail at the write-back, ending the stream with a wrapped
// "persist result" error instead of the cancellation the consumer
// asked for. Post-fix: a campaign cancelled while its lookups are in
// flight simulates nothing, and the terminal record carries
// context.Canceled.
func TestStreamMidCancelRemoteTierTerminalRecord(t *testing.T) {
	// A store plane that stalls every lookup until the request dies, so
	// the cancellation always lands mid-lookup — after the points have
	// passed the runner's entry check, inside the store tier.
	gets := make(chan struct{}, 64)
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			select {
			case gets <- struct{}{}:
			default:
			}
			<-r.Context().Done()
			return
		}
		http.Error(w, "no publishes expected from a cancelled campaign", http.StatusInternalServerError)
	}))
	defer stall.Close()

	rs, err := NewRemoteStore(context.Background(), stall.URL)
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner(t)
	r.SetStore(rs)
	pts := testPoints()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := r.Plan(pts...).RunAllStream(ctx)
	<-gets // at least one lookup in flight
	cancel()

	// Drain: no point can have completed (every lookup stalled and no
	// simulation may run post-cancel), so the stream must consist of
	// exactly the terminal error record.
	var n int
	var lastErr error
	for pr := range ch {
		n++
		lastErr = pr.Err
	}
	if lastErr == nil {
		t.Fatal("cancelled stream ended without a terminal error record")
	}
	if !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("terminal error = %v, want context.Canceled", lastErr)
	}
	if strings.Contains(lastErr.Error(), "persist result") {
		t.Fatalf("terminal error is a write-back failure, not the cancellation: %v", lastErr)
	}
	if n != 1 {
		t.Fatalf("stream delivered %d records, want just the terminal one", n)
	}
	if got := r.Simulations(); got != 0 {
		t.Fatalf("cancelled campaign simulated %d points, want 0", got)
	}
}
