// Tests for cross-node server streams: ordering and chunk batching over a
// live TCP link, end-to-end credit keeping a producer bounded behind a slow
// remote consumer, cancellation reclaiming the remote producer without
// waiting out the deadline (also when the cancel shares a batch with its
// open), a chunk the consumer cannot be handed ending the stream instead of
// leaving a gap, and a stream crossing a live migration of its producer. The
// lifecycle guarantees a relayed stream shares with a relayed call are in
// serve_test.go.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
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

// feedComp serves bounded ("list") and unbounded ("pump") streams, and one
// that pushes an item the wire codec cannot ship before it pumps on ("bad");
// sent counts successful pushes (the producer side of the flow-control bound
// the tests assert),
// entered and cancelled the handlers that started and the ones whose sink
// failed with the cancel identity.
type feedComp struct {
	sent               atomic.Uint64
	entered, cancelled atomic.Int64
}

func (f *feedComp) Handle(op string, args []any) ([]any, error) {
	return nil, fmt.Errorf("feed: unknown op %s", op)
}

func (f *feedComp) HandleStream(op string, args []any, sink container.StreamSink) error {
	f.entered.Add(1)
	err := f.stream(op, args, sink)
	if errors.Is(err, context.Canceled) {
		f.cancelled.Add(1)
	}
	return err
}

func (f *feedComp) stream(op string, args []any, sink container.StreamSink) error {
	switch op {
	case "bad":
		if err := sink.Send(struct{}{}); err != nil {
			return err
		}
		fallthrough
	case "pump":
		for i := 0; ; i++ {
			if err := sink.Send(i); err != nil {
				return err
			}
			f.sent.Add(1)
		}
	case "list":
		n := args[0].(int)
		for i := 0; i < n; i++ {
			if err := sink.Send(i); err != nil {
				return err
			}
			f.sent.Add(1)
		}
		return nil
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
	assertQuiescent(t, h)
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
	st.Close()
	assertQuiescent(t, h)
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
	assertQuiescent(t, h)
}

// TestStreamCancelRacingOpenReclaimsProducer: a stream closed the moment it
// is opened puts its cancel in the same egress batch as its open, so the
// serving node's read pump dispatches one right after the other. The open
// registers its record on the read pump, before the next frame is looked at,
// so the cancel always finds it: no producer is left running — deadline-less,
// it would park on credit until the link died — and every handler that did
// start saw the cancel.
func TestStreamCancelRacingOpenReclaimsProducer(t *testing.T) {
	h, f := startStreamCluster(t)
	sys1, sys2, n2 := h.System("n1"), h.System("n2"), h.Node("n2")
	cl := sys1.Client("Feed")
	for i := 0; i < 200; i++ {
		st, err := cl.Stream(context.Background(), "pump")
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	eventually(t, "every producer to be reclaimed", func() bool {
		return sys2.ActiveStreams() == 0 && n2.ServedCalls() == 0
	})
	if entered, cancelled := f.entered.Load(), f.cancelled.Load(); cancelled != entered {
		t.Fatalf("%d handlers started, %d observed the cancel", entered, cancelled)
	}
	assertQuiescent(t, h)
}

// TestStreamChunkDropEndsStream: a chunk the caller node cannot hand to its
// consumer ends the stream. The consumer here stands behind a mediator that
// holds items back — a direct endpoint that declines them into a mailbox of
// one, as a connector does with what it cannot mediate yet — so the second
// chunk finds the mailbox full for longer than the read loop will wait. The
// node must not drop it and carry on (a silent gap, and a credit that never
// comes back): it takes the record, revokes the producer across the link and
// ends the consumer with a typed end naming the drop.
func TestStreamChunkDropEndsStream(t *testing.T) {
	h, f := startStreamCluster(t)
	sys1, sys2 := h.System("n1"), h.System("n2")
	const consumer = bus.Address("conn:held")
	ends := make(chan connector.StreamEndPayload, 1)
	ep, err := sys1.Bus().AttachDirect(consumer, 1, func(m bus.Message) bool {
		end, ok := m.Payload.(connector.StreamEndPayload)
		if ok {
			ends <- end
		}
		return ok
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys1.Bus().Detach(consumer)
	if err := sys1.Bus().Send(bus.Message{
		Kind: bus.Request, Op: "pump", Src: consumer, Dst: core.ComponentAddress("Feed"), Corr: 1,
		Payload: connector.StreamOpenPayload{Window: 8},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case end := <-ends:
		if end.Kind != connector.ErrKindApp || !strings.Contains(end.Err, "dropped") {
			t.Fatalf("consumer's end = %+v, want an application-kind end naming the drop", end)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the consumer never saw an end: the dropped chunk left a silent gap")
	}
	eventually(t, "the producer to be reclaimed", func() bool { return sys2.ActiveStreams() == 0 })
	if f.entered.Load() != 1 || f.cancelled.Load() != 1 {
		t.Fatalf("%d handlers started, %d observed the cancel, want 1 and 1", f.entered.Load(), f.cancelled.Load())
	}
	// What the mediator held is the first item, and nothing after the gap.
	held, _ := ep.TryReceive()
	if item, ok := held.Payload.(*connector.StreamItem); !ok || item.Seq != 1 {
		t.Fatalf("mediator holds %+v, want the stream's first item", held.Payload)
	}
	if m, ok := ep.TryReceive(); ok {
		t.Fatalf("mediator was handed %+v after the dropped item", m.Payload)
	}
	// The chunk the bus refused (ErrMailboxFull, nine times over) was never
	// sent, so the ledgers balance like everything else.
	assertQuiescent(t, h)
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
	assertQuiescent(t, h)
}
