// Tests for server-streaming calls with credit-based flow control
// (DESIGN.md §10): the local stream plane end-to-end — ordering and clean
// end, typed handles, the credit window bounding a producer ahead of a slow
// consumer, cancellation reclaiming the producer without waiting out the
// deadline, and the conservation ledger sent == received + shed.
package aas_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	aas "repro"
)

const feedADL = `
system Streaming {
  component Feed {
    provide list(n) -> (item)
    provide pump() -> (item)
    provide greet(name) -> (message)
  }
}
`

// feed serves bounded ("list") and unbounded ("pump") streams. sent counts
// successful sink.Sends — the producer side of the conservation ledger.
type feed struct {
	sent atomic.Uint64
	// preboxed items keep handler-side any-boxing out of the per-item
	// allocation measurements: the plane's cost is what the budget pins.
	items [256]any
}

func newFeed() *feed {
	f := &feed{}
	for i := range f.items {
		f.items[i] = fmt.Sprintf("item-%03d", i)
	}
	return f
}

func (f *feed) Handle(op string, args []any) ([]any, error) {
	if op == "greet" {
		return []any{"hi " + args[0].(string)}, nil
	}
	return nil, fmt.Errorf("feed: unknown op %s", op)
}

func (f *feed) HandleStream(op string, args []any, sink aas.StreamSink) error {
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
			if err := sink.Send(f.items[i&255]); err != nil {
				return err
			}
			f.sent.Add(1)
		}
	}
	return aas.ErrUnstreamableOp
}

func startFeed(t *testing.T) (*aas.System, *feed) {
	t.Helper()
	f := newFeed()
	reg := aas.NewRegistry()
	reg.MustRegister("Feed", "1.0", nil, func() any { return f })
	sys, err := aas.Load(feedADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys, f
}

// waitStreamsReclaimed polls until no producer is running on the system.
func waitStreamsReclaimed(t *testing.T, sys *aas.System, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(within)
	for sys.ActiveStreams() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("producer still running after %v (ActiveStreams=%d)", within, sys.ActiveStreams())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Since(start)
}

// TestStreamBasic: a bounded stream delivers every item in order and ends
// with io.EOF; the table slot and the producer are released.
func TestStreamBasic(t *testing.T) {
	sys, f := startFeed(t)
	ctx := context.Background()
	const n = 1000
	st, err := sys.Client("Feed").Stream(ctx, "list", n)
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
	if got := st.Received(); got != n {
		t.Fatalf("received %d, want %d", got, n)
	}
	if f.sent.Load() != n {
		t.Fatalf("sent %d, want %d", f.sent.Load(), n)
	}
	if sys.PendingStreams() != 0 {
		t.Fatalf("stream table leaked: %d", sys.PendingStreams())
	}
	waitStreamsReclaimed(t, sys, time.Second)
}

// TestStreamTyped: the StreamOf handle decodes each item through the
// derived codec, and io.EOF terminates it like the untyped stream.
func TestStreamTyped(t *testing.T) {
	sys, _ := startFeed(t)
	ctx := context.Background()
	const n = 100
	h := aas.StreamOf[int, int](sys, "Feed")
	st, err := h.Stream(ctx, "list", n)
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
			t.Fatalf("recv %d: got %d", i, item)
		}
	}
	if _, err := st.Recv(ctx); err != io.EOF {
		t.Fatalf("terminal: want io.EOF, got %v", err)
	}
}

// TestStreamWindowBoundsProducer: a consumer that stops calling Recv stalls
// the producer at the credit window — the handler's sink.Send blocks, and
// outstanding (sent − consumed) never exceeds the window. This is the
// backpressure claim: a slow consumer costs the producer blocked time, not
// the system unbounded memory.
func TestStreamWindowBoundsProducer(t *testing.T) {
	sys, f := startFeed(t)
	ctx := context.Background()
	const window = 8
	cl := sys.Client("Feed").With(aas.WithStreamWindow(window))
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
	// Let the producer run as far ahead as credit allows, then check the
	// bound. Grants replenish on consumption, so the producer may be ahead
	// by at most consumed + window.
	time.Sleep(50 * time.Millisecond)
	if sent := f.sent.Load(); sent > uint64(consumed+window) {
		t.Fatalf("producer ran %d ahead of consumer (consumed %d, window %d)",
			sent, consumed, window)
	}
	// Consuming more moves the window forward — the stream is stalled, not
	// dead.
	for i := 0; i < window*3; i++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatalf("post-stall recv: %v", err)
		}
	}
}

// TestStreamCancelReclaimsProducer: closing the stream cancels the
// producer's context and fails its credit window, so the handler returns
// and the serving slot is reclaimed far inside the stream's deadline — and
// the conservation ledger closes: every chunk the producer sent was either
// received by the consumer or counted shed at the reply pump.
func TestStreamCancelReclaimsProducer(t *testing.T) {
	sys, f := startFeed(t)
	ctx := context.Background()
	cl := sys.Client("Feed").With(aas.WithDeadline(30 * time.Second))
	st, err := cl.Stream(ctx, "pump")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	st.Close()
	reclaim := waitStreamsReclaimed(t, sys, 2*time.Second)
	if reclaim > 5*time.Second {
		t.Fatalf("reclaim took %v — deadline-bound, not cancel-bound", reclaim)
	}
	if sys.PendingStreams() != 0 {
		t.Fatalf("stream table leaked: %d", sys.PendingStreams())
	}
	// Conservation: the producer finished (reclaimed above), so every sent
	// chunk has settled — into the ring (received) or dropped at the pump
	// after Close (shed). The pump may still be draining the mailbox;
	// allow it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sent, received, shed := f.sent.Load(), st.Received(), sys.ShedStreamItems()
		if sent == received+shed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conservation: sent %d != received %d + shed %d", sent, received, shed)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamCloseRacingOpenReclaimsProducer: a stream closed the moment it is
// opened has its cancel land anywhere around the serve worker taking the open
// up — before it (rejected unserved), after the producer is registered
// (aborted), or in between, where the worker has already looked for a
// revocation and the cancel finds no producer yet. Deadline-less, a producer
// that slipped through would park on credit for good.
func TestStreamCloseRacingOpenReclaimsProducer(t *testing.T) {
	sys, _ := startFeed(t)
	cl := sys.Client("Feed")
	for i := 0; i < 500; i++ {
		st, err := cl.Stream(context.Background(), "pump")
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	waitStreamsReclaimed(t, sys, 2*time.Second)
	if sys.PendingStreams() != 0 {
		t.Fatalf("stream table leaked: %d", sys.PendingStreams())
	}
}

// TestStreamDeadline: an expired stream deadline aborts the producer and
// surfaces as context.DeadlineExceeded at Recv.
func TestStreamDeadline(t *testing.T) {
	sys, _ := startFeed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	st, err := sys.Client("Feed").Stream(ctx, "pump")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for {
		_, err := st.Recv(ctx)
		if err == nil {
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want deadline error, got %v", err)
		}
		break
	}
	waitStreamsReclaimed(t, sys, 2*time.Second)
}

// TestStreamUnstreamableOp: a stream opened on an op the component does not
// serve as a stream fails with a terminal end, not a hang.
func TestStreamUnstreamableOp(t *testing.T) {
	sys, _ := startFeed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := sys.Client("Feed").Stream(ctx, "greet", "x")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recv(ctx); err == nil || err == io.EOF {
		t.Fatalf("want unstreamable-op error, got %v", err)
	}
}
