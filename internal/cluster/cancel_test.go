package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// slowRegistry builds the single-component registry the cancel tests share.
func slowRegistry(served *atomic.Int64, delay time.Duration) func(string) *registry.Registry {
	return func(string) *registry.Registry {
		reg := &registry.Registry{}
		if err := reg.Register(registry.Entry{Name: "Slow", Version: registry.Version{Major: 1},
			New: func() any { return &slowComp{delay: delay, served: served} }}); err != nil {
			panic(err)
		}
		return reg
	}
}

// waitPendingZero polls every node's call tables down to zero within the
// window — far below the calls' multi-second budgets, so passing proves the
// records were reclaimed by cancellation, not by budget expiry. A caller
// node holds waiter slots (PendingCalls); a callee node holds none for an
// inbound call, only its link's served-call record (ServedCalls), so both
// are counted on every node.
func waitPendingZero(t *testing.T, window time.Duration, h *Harness) {
	t.Helper()
	deadline := time.Now().Add(window)
	for {
		n := 0
		for _, id := range h.Nodes() {
			n += h.System(id).PendingCalls() + h.Node(id).ServedCalls()
		}
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d call records still held after %v", n, window)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterCancelPropagation is the acceptance test of remote call
// revocation (wire v4): cancelling a long-budget cross-node call frees the
// caller's waiter slot and the callee link's record of it immediately — no
// waiting out the shipped budget — and a cancelled call still queued at the
// serving component is rejected before its handler runs.
func TestClusterCancelPropagation(t *testing.T) {
	served := new(atomic.Int64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := StartHarness(ctx, Spec{
		ADL:       slowADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Slow": "n2"},
		Registry:  slowRegistry(served, 200*time.Millisecond),
		Cluster:   fastCluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sys1, sys2 := h.System("n1"), h.System("n2")
	slow := sys1.Client("Slow")

	if _, err := slow.Call(context.Background(), "work", "warm"); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// 1. Cancel an in-flight call carrying a 10s budget. FrameCancel must
	// release the callee's record in cancel-order time; without it the
	// record would pin until the shipped budget expires.
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	done := make(chan error, 1)
	go func() {
		_, cerr := slow.Call(cctx, "work", "inflight")
		done <- cerr
	}()
	time.Sleep(80 * time.Millisecond) // handler is mid-sleep on n2
	ccancel()
	if cerr := <-done; !errors.Is(cerr, context.Canceled) {
		t.Fatalf("cancelled call err = %v, want context.Canceled", cerr)
	}
	waitPendingZero(t, 2*time.Second, h)

	// Let the abandoned handler finish so its serve count is banked before
	// the queued-revocation phase measures.
	drain := time.Now().Add(2 * time.Second)
	for served.Load() < 2 && time.Now().Before(drain) {
		time.Sleep(25 * time.Millisecond)
	}
	base := served.Load()

	// 2. A cancelled call still queued at the serving component never
	// reaches its handler: the cancel control overtakes the parked request
	// (pauses park requests, not control traffic), and the component's
	// revocation set rejects it at dequeue. The 10s budget rules out
	// deadline expiry as the explanation.
	addr := core.ComponentAddress("Slow")
	sys2.Bus().PauseRequests(addr)
	qctx, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer qcancel()
	qdone := make(chan error, 1)
	go func() {
		_, qerr := slow.Call(qctx, "work", "parked")
		qdone <- qerr
	}()
	time.Sleep(100 * time.Millisecond) // request crossed the wire and parked
	qcancel()
	if qerr := <-qdone; !errors.Is(qerr, context.Canceled) {
		t.Fatalf("parked call err = %v, want context.Canceled", qerr)
	}
	time.Sleep(150 * time.Millisecond) // cancel crossed the wire too
	if _, err := sys2.Bus().Resume(addr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if got := served.Load(); got != base {
		t.Fatalf("revoked parked request reached the container (%d extra serves)", got-base)
	}
	waitPendingZero(t, 2*time.Second, h)
}
