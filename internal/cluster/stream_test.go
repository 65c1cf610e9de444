// Tests for cross-node server streams (wire v5): ordering and chunk
// batching over a live TCP link, end-to-end credit keeping a producer
// bounded behind a slow remote consumer, cancellation reclaiming the remote
// producer without waiting out the deadline, the typed fast-fail toward a
// pre-v5 peer, and a stream crossing a live migration of its producer.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
)

const streamADL = `
system StreamCluster {
  component Feed {
    provide list(n) -> (item)
    provide pump() -> (item)
  }
}
`

// feedComp serves bounded and unbounded streams; sent counts successful
// pushes (the producer side of the flow-control bound the tests assert).
type feedComp struct{ sent atomic.Uint64 }

func (f *feedComp) Handle(op string, args []any) ([]any, error) {
	return nil, fmt.Errorf("feed: unknown op %s", op)
}

func (f *feedComp) HandleStream(op string, args []any, sink container.StreamSink) error {
	switch op {
	case "list":
		n := args[0].(int)
		for i := 0; i < n; i++ {
			if err := sink.Send(i); err != nil {
				return err
			}
			f.sent.Add(1)
		}
		return nil
	case "pump":
		for i := 0; ; i++ {
			if err := sink.Send(i); err != nil {
				return err
			}
			f.sent.Add(1)
		}
	}
	return container.ErrUnstreamableOp
}

func (f *feedComp) Snapshot() ([]byte, error) { return nil, nil }
func (f *feedComp) Restore([]byte) error      { return nil }

// startStreamCluster starts a two-node harness with Feed hosted on n2 and
// returns the harness plus the shared component instance (one feedComp
// backs every node's factory, so the producer counter is visible to the
// test regardless of where Feed runs).
func startStreamCluster(t *testing.T) (*Harness, *feedComp) {
	t.Helper()
	f := &feedComp{}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	h, err := StartHarness(ctx, Spec{
		ADL:       streamADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Feed": "n2"},
		Registry: func(string) *registry.Registry {
			reg := &registry.Registry{}
			if err := reg.Register(registry.Entry{Name: "Feed", Version: registry.Version{Major: 1},
				New: func() any { return f }}); err != nil {
				panic(err)
			}
			return reg
		},
		Cluster: fastCluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h, f
}

// TestClusterStream drives a bounded cross-node stream and checks ordering,
// the clean end, and that chunks coalesced into batch writes.
func TestClusterStream(t *testing.T) {
	h, _ := startStreamCluster(t)
	sys1, node1 := h.System("n1"), h.Node("n1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 5000
	st, err := sys1.Client("Feed").Stream(ctx, "list", n)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < n; i++ {
		item, err := st.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if item != i {
			t.Fatalf("recv %d: got %v", i, item)
		}
	}
	if _, err := st.Recv(ctx); err != io.EOF {
		t.Fatalf("terminal: want io.EOF, got %v", err)
	}
	// The serving node's chunks must have coalesced: n chunk frames in far
	// fewer writes than frames.
	writes, frames := h.Node("n2").BatchStats()
	if frames < n {
		t.Fatalf("n2 egress carried %d frames, want >= %d", frames, n)
	}
	if writes*2 > frames {
		t.Fatalf("no batching visible on n2: %d writes for %d frames", writes, frames)
	}
	_ = node1
	if sys1.PendingStreams() != 0 {
		t.Fatalf("n1 stream table leaked: %d", sys1.PendingStreams())
	}
}

// TestClusterStreamSlowConsumer: the remote consumer's credit window is the
// end-to-end backpressure signal — a consumer that stops Recv-ing stalls
// the producer on the far node at a bounded distance, with no
// ErrMailboxFull surfacing anywhere.
func TestClusterStreamSlowConsumer(t *testing.T) {
	h, f := startStreamCluster(t)
	sys1 := h.System("n1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const window = 8
	cl := sys1.Client("Feed").With(core.WithStreamWindow(window))
	st, err := cl.Stream(ctx, "pump")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	consumed := 0
	for ; consumed < 3; consumed++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	// Give the producer time to run as far as credit allows; grants are
	// quantized (window/4) and one window of chunks may be in flight, so
	// allow 2× slack over the exact bound.
	time.Sleep(100 * time.Millisecond)
	if sent := f.sent.Load(); sent > uint64(consumed+2*window) {
		t.Fatalf("producer ran %d ahead of remote consumer (consumed %d, window %d)",
			sent, consumed, window)
	}
	// Consuming more replenishes credit across the link and the stream
	// flows again.
	for i := 0; i < window*4; i++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatalf("post-stall recv %d: %v", i, err)
		}
	}
}

// TestClusterStreamCancelReclaimsProducer: closing the consumer's handle
// sends a bus cancel that becomes a FrameCancel, revoking the relay on the
// hosting node and through it the producer — well inside the 30s deadline.
func TestClusterStreamCancelReclaimsProducer(t *testing.T) {
	h, _ := startStreamCluster(t)
	sys1, sys2 := h.System("n1"), h.System("n2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := sys1.Client("Feed").Stream(ctx, "pump")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	start := time.Now()
	st.Close()
	deadline := start.Add(3 * time.Second)
	for sys2.ActiveStreams() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("remote producer still running %v after cancel (deadline 30s)", time.Since(start))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if sys1.PendingStreams() != 0 {
		t.Fatalf("n1 stream table leaked: %d", sys1.PendingStreams())
	}
}

// TestClusterStreamAcrossMigration: a live migration of the producer's
// component aborts in-flight streams with a clean fast-fail end (no hang,
// no deadline wait), and a reopened stream against the component's new home
// works.
func TestClusterStreamAcrossMigration(t *testing.T) {
	h, _ := startStreamCluster(t)
	sys1, sys2 := h.System("n1"), h.System("n2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := sys1.Client("Feed").Stream(ctx, "pump")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 10; i++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	// Migrate the producer's component out from under the stream. The
	// migration must not block on the stream (abortStreams runs before
	// quiesce), and the consumer must observe a terminal end promptly.
	if err := sys2.Migrate("Feed", netsim.NodeID("n1")); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	sawEnd := false
	endBy := time.Now().Add(5 * time.Second)
	for !sawEnd {
		if time.Now().After(endBy) {
			t.Fatal("stream did not fast-fail across migration")
		}
		rctx, rcancel := context.WithTimeout(ctx, time.Second)
		_, rerr := st.Recv(rctx)
		rcancel()
		if rerr != nil && !errors.Is(rerr, context.DeadlineExceeded) {
			sawEnd = true
		}
	}
	// The component now lives on n1; a fresh stream is served locally.
	st2, err := sys1.Client("Feed").Stream(ctx, "list", 100)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	for i := 0; i < 100; i++ {
		item, err := st2.Recv(ctx)
		if err != nil {
			t.Fatalf("reopened recv %d: %v", i, err)
		}
		if item != i {
			t.Fatalf("reopened recv %d: got %v", i, item)
		}
	}
	if _, err := st2.Recv(ctx); err != io.EOF {
		t.Fatalf("reopened terminal: want io.EOF, got %v", err)
	}
}
