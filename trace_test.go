// Tests for the telemetry plane (DESIGN.md §11): span recording at the
// client edge and the serving component, cross-node trace propagation over
// wire v6, graceful truncation on older links, and the trace edge cases —
// one-way roots, cancellation observed on both sides of a link, and the
// unified Telemetry snapshot.
package aas_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	aas "repro"

	"repro/internal/core"
	"repro/internal/registry"
)

const traceADL = `
system Traced {
  component Echo {
    provide get(k) -> (v)
  }
}
`

func traceRegistry(string) *registry.Registry {
	reg := aas.NewRegistry()
	reg.MustRegister("Echo", "1.0", nil, func() any { return tagged{"echo"} })
	return reg.Registry
}

// spanWhere polls a system's recorder until a span matching pred appears
// (spans are recorded after replies settle, so arrival can trail the call).
func spanWhere(t *testing.T, sys *aas.System, what string, pred func(aas.Span) bool) aas.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, s := range sys.Spans() {
			if pred(s) {
				return s
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no span matching %q; have %+v", what, sys.Spans())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracedLocalCallSpans: one local call yields a client root span and a
// server span parented under it, sharing one trace, with the server span
// nested inside the client span's interval.
func TestTracedLocalCallSpans(t *testing.T) {
	sys, err := aas.Load(traceADL, aas.Options{Registry: traceRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	if _, err := sys.Client("Echo").Call(context.Background(), "get", "k"); err != nil {
		t.Fatal(err)
	}
	client := spanWhere(t, sys, "client span", func(s aas.Span) bool {
		return s.Kind == aas.SpanClient && s.Op == "get"
	})
	if client.Parent != 0 {
		t.Fatalf("client span must be the root, got parent %d", client.Parent)
	}
	if client.Outcome != aas.SpanOK {
		t.Fatalf("client outcome = %d, want OK", client.Outcome)
	}
	server := spanWhere(t, sys, "server span", func(s aas.Span) bool {
		return s.Kind == aas.SpanServer && s.Trace == client.Trace
	})
	if server.Parent != client.ID {
		t.Fatalf("server span parent = %d, want client id %d", server.Parent, client.ID)
	}
	if server.Start < client.Start || server.End > client.End {
		t.Fatalf("server span [%d,%d] not nested in client span [%d,%d]",
			server.Start, server.End, client.Start, client.End)
	}
	// The request's send stamp is its queue wait's start: a traced request
	// carries one, so the wait is positive and ends where service starts.
	if server.Queue <= 0 || server.Queue > server.Start-client.Start || server.Start > server.End {
		t.Fatalf("server span [%d,%d] with queue wait %dns: out of range", server.Start, server.End, server.Queue)
	}
}

// TestOnewayRootSpan: a one-way call has no reply edge, so its root client
// span closes at the send — and still reaches the recorder.
func TestOnewayRootSpan(t *testing.T) {
	sys, err := aas.Load(traceADL, aas.Options{Registry: traceRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	if err := sys.Client("Echo").Oneway(context.Background(), "get", "k"); err != nil {
		t.Fatal(err)
	}
	root := spanWhere(t, sys, "oneway root span", func(s aas.Span) bool {
		return s.Kind == aas.SpanClient && s.Op == "get"
	})
	if root.Parent != 0 || root.Outcome != aas.SpanOK {
		t.Fatalf("oneway span = %+v, want root with OK outcome", root)
	}
}

// TestTraceSamplingOff: with sampling disabled nothing is recorded and
// calls still work.
func TestTraceSamplingOff(t *testing.T) {
	sys, err := aas.Load(traceADL, aas.Options{
		Registry:      traceRegistry(""),
		TraceSampling: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	if _, err := sys.Client("Echo").Call(context.Background(), "get", "k"); err != nil {
		t.Fatal(err)
	}
	if spans := sys.Spans(); len(spans) != 0 {
		t.Fatalf("sampling off recorded %d spans: %+v", len(spans), spans)
	}
	if snap := sys.Telemetry(); snap.Spans.SampleRate != 0 {
		t.Fatalf("snapshot sample rate = %d, want 0", snap.Spans.SampleRate)
	}
}

// TestCrossNodeTraceTree: a call from n1 to a component on n2 yields a
// three-span tree — client root and gateway forward span on n1, server span
// on n2 — reassembled across both recorders by trace id with correct parent
// edges.
func TestCrossNodeTraceTree(t *testing.T) {
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL:       traceADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Echo": "n2"},
		Registry:  traceRegistry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sys1, sys2 := h.System("n1"), h.System("n2")

	echo := sys1.Client("Echo").With(aas.WithDeadline(5 * time.Second))
	if res, err := echo.Call(context.Background(), "get", "k"); err != nil || res[0] != "echo" {
		t.Fatalf("remote call: %v %v", res, err)
	}

	client := spanWhere(t, sys1, "client root on n1", func(s aas.Span) bool {
		return s.Kind == aas.SpanClient && s.Parent == 0 && s.Op == "get"
	})
	forward := spanWhere(t, sys1, "forward span on n1", func(s aas.Span) bool {
		return s.Kind == aas.SpanForward && s.Trace == client.Trace
	})
	if forward.Parent != client.ID {
		t.Fatalf("forward parent = %d, want client id %d", forward.Parent, client.ID)
	}
	if forward.Src != "n1" || forward.Dst != "n2" {
		t.Fatalf("forward src/dst = %q/%q, want n1/n2", forward.Src, forward.Dst)
	}
	server := spanWhere(t, sys2, "server span on n2", func(s aas.Span) bool {
		return s.Kind == aas.SpanServer && s.Trace == client.Trace
	})
	if server.Parent != forward.ID {
		t.Fatalf("server parent = %d, want forward id %d", server.Parent, forward.ID)
	}
	if server.Dst != "n2" {
		t.Fatalf("server node = %q, want n2", server.Dst)
	}
	// The serving node must not have opened a second root for the same work.
	for _, s := range sys2.Spans() {
		if s.Kind == aas.SpanClient && s.Trace == client.Trace {
			t.Fatalf("serving node opened a redundant client span: %+v", s)
		}
	}
}

// TestTraceCancelledBothNodes: a caller that gives up on a forwarded call
// leaves a cancelled client span on its own node and — via FrameCancel and
// the serving component's cancel set — a cancelled server span on the
// remote node, both in the same trace.
func TestTraceCancelledBothNodes(t *testing.T) {
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL:       traceADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Echo": "n2"},
		Registry:  traceRegistry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sys1, sys2 := h.System("n1"), h.System("n2")

	// Park requests at the serving component so the forwarded call is still
	// queued when the cancel overtakes it (Control skips the pause).
	addr := core.ComponentAddress("Echo")
	sys2.Bus().PauseRequests(addr)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys1.Client("Echo").With(aas.WithDeadline(10*time.Second)).
			Call(ctx, "get", "k")
		done <- err
	}()
	// Wait until the forwarded request is parked on n2, then revoke it.
	deadline := time.Now().Add(5 * time.Second)
	for sys2.Bus().HeldCount(addr) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forwarded request never parked on n2")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("call error = %v, want context.Canceled", err)
	}

	client := spanWhere(t, sys1, "cancelled client span on n1", func(s aas.Span) bool {
		return s.Kind == aas.SpanClient && s.Outcome == aas.SpanCancelled
	})
	// Give the FrameCancel a moment to land before releasing the request.
	time.Sleep(50 * time.Millisecond)
	if _, err := sys2.Bus().Resume(addr); err != nil {
		t.Fatal(err)
	}
	server := spanWhere(t, sys2, "cancelled server span on n2", func(s aas.Span) bool {
		return s.Kind == aas.SpanServer && s.Trace == client.Trace
	})
	if server.Outcome != aas.SpanCancelled {
		t.Fatalf("server outcome = %d, want cancelled", server.Outcome)
	}
	if server.Start != server.End {
		t.Fatalf("rejected-unserved span must be all queue wait, got [%d,%d]", server.Start, server.End)
	}
}

// TestTelemetrySnapshot: the unified snapshot gathers the bus conservation
// ledger, admission state, event counters and span counters consistently.
func TestTelemetrySnapshot(t *testing.T) {
	sys, err := aas.Load(traceADL, aas.Options{Registry: traceRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	// Deadline-budgeted calls: the admission estimator only keeps its
	// admitted/rejected ledger for calls that carry a deadline to admit
	// against (DESIGN.md §9).
	echo := sys.Client("Echo").With(aas.WithDeadline(time.Second))
	for i := 0; i < 10; i++ {
		if _, err := echo.Call(context.Background(), "get", "k"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Bus().WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := sys.Telemetry()
	if snap.Schema != 1 {
		t.Fatalf("schema = %d, want 1", snap.Schema)
	}
	if snap.Bus.Sent != snap.Bus.Delivered+snap.Bus.Dropped+snap.Bus.Held {
		t.Fatalf("conservation violated: %+v", snap.Bus)
	}
	if snap.Spans.Recorded == 0 || snap.Spans.SampleRate != 1 {
		t.Fatalf("span counters = %+v, want recorded > 0 at rate 1", snap.Spans)
	}
	found := false
	for _, a := range snap.Admission {
		if a.Component == "Echo" {
			found = true
			if a.Admitted == 0 {
				t.Fatalf("admission ledger empty: %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("no admission entry for Echo: %+v", snap.Admission)
	}
	if snap.Events.Published == 0 {
		t.Fatal("event hub published nothing")
	}
}

// TestAdmissionMatchesTelemetry: System.Admission, which the cluster load
// meter reads on every beacon, is the Telemetry snapshot's Admission section
// — one entry per local component, sorted by name, with the same counters.
func TestAdmissionMatchesTelemetry(t *testing.T) {
	sys, err := aas.Load(benchClusterADL, aas.Options{Registry: benchClusterRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	// Deadline-budgeted, so both admission ledgers count (DESIGN.md §9).
	front := sys.Client("Front").With(aas.WithDeadline(time.Second))
	store := sys.Client("Store").With(aas.WithDeadline(time.Second))
	for i := 0; i < 10; i++ {
		if _, err := front.Call(context.Background(), "fetch", "k"); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Call(context.Background(), "get", "k"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Bus().WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	adm := sys.Admission()
	if want := sys.Telemetry().Admission; !reflect.DeepEqual(adm, want) {
		t.Fatalf("Admission() = %+v, Telemetry().Admission = %+v", adm, want)
	}
	if len(adm) != 2 || adm[0].Component != "Front" || adm[1].Component != "Store" {
		t.Fatalf("Admission() = %+v, want Front then Store", adm)
	}
	if adm[0].Admitted == 0 || adm[1].Admitted == 0 {
		t.Fatalf("admission ledger empty: %+v", adm)
	}
}
