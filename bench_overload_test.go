// Overload-path benchmarks (DESIGN.md §9): the deadline-aware admission
// check on the accept and reject sides, and the EDF mailbox lane against the
// plain FIFO ring. The reject benchmark is the headline number — a shed call
// must cost nanoseconds and allocate nothing, because shedding is exactly
// what the system does when it has no capacity to spare.
package aas_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	aas "repro"

	"repro/internal/bus"
)

const busyADL = `
system Overload {
  component Busy {
    provide work(x) -> (r)
    provide block(x) -> (r)
  }
}
`

// gatedComp serves work after a fixed delay and parks block calls on a gate
// channel — the fixture for wedging every serve worker at once.
type gatedComp struct {
	gate  chan struct{}
	delay time.Duration
}

func (g *gatedComp) Handle(op string, args []any) ([]any, error) {
	switch op {
	case "work":
		if g.delay > 0 {
			time.Sleep(g.delay)
		}
		return []any{"ok"}, nil
	case "block":
		<-g.gate
		return []any{"ok"}, nil
	}
	return nil, fmt.Errorf("busy: unknown op %s", op)
}

// startSaturated boots a Busy system, trains the admission estimator with
// real ~2ms service times, then blocks 64 deadline-less calls on the gate.
// All 64 run at once — a component's concurrency is not bounded by its
// resident serve workers — and admission sees them as 64 requests in
// service. The returned client carries a 6ms budget: it covers one service
// time — a 2ms sleep measures 2.2–3ms on a shared host, and a budget below
// the measured service time is refused as a deadline, not ErrOverloaded —
// while the estimated wait (tens of ms) dwarfs it, so every call through it
// is shed at the edge as ErrOverloaded until cleanup opens the gate.
func startSaturated(tb testing.TB) (*aas.System, *aas.TypedClient[string, string], func()) {
	tb.Helper()
	comp := &gatedComp{gate: make(chan struct{}), delay: 2 * time.Millisecond}
	reg := aas.NewRegistry()
	reg.MustRegister("Busy", "1.0", nil, func() any { return comp })
	sys, err := aas.Load(busyADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	if err := sys.Start(ctx); err != nil {
		tb.Fatal(err)
	}
	cl := aas.ClientOf[string, string](sys, "Busy")
	for i := 0; i < 32; i++ { // train the service-time EWMA
		if _, err := cl.Call(ctx, "work", "w"); err != nil {
			tb.Fatal(err)
		}
	}
	const backlog = 64
	futs := make([]*aas.TypedFuture[string, string], backlog)
	for i := range futs {
		// Deadline-less calls are never shed; blocked in their handlers they
		// hold the depth the estimator multiplies by.
		futs[i] = cl.Async(ctx, "block", "x")
	}
	short := cl.With(aas.WithDeadline(6 * time.Millisecond))
	// Wait until the backlog registers and budgeted calls actually shed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := short.Call(ctx, "work", "x"); errors.Is(err, aas.ErrOverloaded) {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("system never reached overload rejection")
		}
		time.Sleep(time.Millisecond)
	}
	cleanup := func() {
		close(comp.gate)
		for _, f := range futs {
			_, _ = f.Wait()
		}
		sys.Stop()
	}
	return sys, short, cleanup
}

// BenchmarkAdmissionReject measures a shed call end to end through the
// typed client: queueing-delay estimate against the remaining budget, fail
// fast with ErrOverloaded — no envelope lease, no waiter slot, no timer.
func BenchmarkAdmissionReject(b *testing.B) {
	_, short, cleanup := startSaturated(b)
	defer cleanup()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := short.Call(ctx, "work", "x"); !errors.Is(err, aas.ErrOverloaded) {
				b.Errorf("err = %v, want ErrOverloaded", err)
				return
			}
		}
	})
}

// BenchmarkAdmissionAccept measures the admitted side: an idle system where
// every deadline-budgeted call passes the admission check and completes, so
// the check's cost rides on top of the normal typed call path.
func BenchmarkAdmissionAccept(b *testing.B) {
	comp := &gatedComp{gate: make(chan struct{})} // zero delay
	reg := aas.NewRegistry()
	reg.MustRegister("Busy", "1.0", nil, func() any { return comp })
	sys, err := aas.Load(busyADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := sys.Start(ctx); err != nil {
		b.Fatal(err)
	}
	defer sys.Stop()
	g := aas.ClientOf[string, string](sys, "Busy").With(aas.WithDeadline(time.Second))
	for i := 0; i < 64; i++ {
		if _, err := g.Call(ctx, "work", "w"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := g.Call(ctx, "work", "w"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEDFMailboxParallel measures the deadline lane with no cross-
// worker contention: every worker owns a distinct endpoint and each
// deadlined request takes the heap path on both enqueue and dequeue.
func BenchmarkEDFMailboxParallel(b *testing.B) {
	bb := bus.New()
	dl := time.Now().Add(time.Hour).UnixNano()
	var id atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := id.Add(1)
		dst := bus.Address(fmt.Sprintf("dst-%d", n))
		ep, err := bb.Attach(dst, 4096)
		if err != nil {
			b.Error(err)
			return
		}
		m := bus.Message{Kind: bus.Request, Op: "r",
			Src: bus.Address(fmt.Sprintf("src-%d", n)), Dst: dst, Deadline: dl}
		for pb.Next() {
			if err := bb.Send(m); err != nil {
				b.Error(err)
				return
			}
			if _, ok := ep.TryReceive(); !ok {
				b.Error("message lost")
				return
			}
		}
	})
}

// BenchmarkEDFMailboxSharedDst hammers one destination from every worker —
// the per-address ordering lock plus the heap under it are the ceiling.
func BenchmarkEDFMailboxSharedDst(b *testing.B) {
	bb := bus.New()
	ep, err := bb.Attach("hot", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	dl := time.Now().Add(time.Hour).UnixNano()
	var id atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		src := bus.Address(fmt.Sprintf("src-%d", id.Add(1)))
		m := bus.Message{Kind: bus.Request, Op: "r", Src: src, Dst: "hot", Deadline: dl}
		for pb.Next() {
			if err := bb.Send(m); err != nil {
				b.Error(err)
				return
			}
			if _, ok := ep.TryReceive(); !ok {
				b.Error("message lost")
				return
			}
		}
	})
}
