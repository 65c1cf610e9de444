package connector

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/filters"
	"repro/internal/flo"
	"repro/internal/lts"
)

// The connector mediates inside the sender's bus.Send, under its own route
// lock (see the Connector type comment). These tests hold it to what the
// mediation goroutine used to guarantee.

// TestDeferredWaitFilterCompletesThroughRetryLane: a request a Wait filter
// defers cannot be finished inline — handle declines it, it queues, and the
// retry lane keeps offering it until the condition holds. Other traffic is
// mediated meanwhile, so the lock is not held across the wait.
func TestDeferredWaitFilterCompletesThroughRetryLane(t *testing.T) {
	b := bus.New()
	stop, calls := echoServer(t, b, "comp:s", "s")
	defer stop()
	client, _ := b.Attach("comp:client", 64)

	c, err := New("wait", adl.KindRPC, b, []bus.Address{"comp:s"})
	if err != nil {
		t.Fatal(err)
	}
	var open atomic.Bool
	if err := c.Filters().Attach(filters.Input, filters.Wait{
		FilterName: "gate", Match: filters.Matcher{Op: "play"}, Cond: open.Load,
	}); err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()

	if err := b.Send(bus.Message{Kind: bus.Request, Op: "play", Payload: CallPayload{},
		Src: client.Addr(), Dst: Address("wait"), Corr: 1}); err != nil {
		t.Fatal(err)
	}
	// An undeferred request overtakes the parked one.
	if rep := call(t, b, client, c, "seek", 2); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if n := c.Stats().Deferred; n == 0 {
		t.Fatal("the gated request was not deferred")
	}
	if *calls != 1 {
		t.Fatalf("server calls = %d before the gate opened, want 1", *calls)
	}
	open.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := client.Receive(ctx)
	if err != nil {
		t.Fatalf("deferred request never completed: %v", err)
	}
	if rep := m.Payload.(ReplyPayload); m.Corr != 1 || rep.Err != "" || rep.Results[0] != "s:play" {
		t.Fatalf("reply = %+v", m)
	}
	if st := c.Stats(); st.Mediated != 2 || st.Replies != 2 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConnectorDirectPauseResumeFlushesInOrder: a paused connector channel
// parks requests before handle sees them; Resume runs them through handle in
// arrival order, and the bus ledger balances.
func TestConnectorDirectPauseResumeFlushesInOrder(t *testing.T) {
	b := bus.New()
	stop, calls := echoServer(t, b, "comp:s", "s")
	defer stop()
	client, _ := b.Attach("comp:client", 64)
	c, err := New("held", adl.KindRPC, b, []bus.Address{"comp:s"})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()

	const n = 32
	b.Pause(Address("held"))
	for i := uint64(1); i <= n; i++ {
		if err := b.Send(bus.Message{Kind: bus.Request, Op: "op", Payload: CallPayload{},
			Src: client.Addr(), Dst: Address("held"), Corr: i}); err != nil {
			t.Fatal(err)
		}
	}
	if held := b.HeldCount(Address("held")); held != n {
		t.Fatalf("held = %d, want %d", held, n)
	}
	if st := c.Stats(); st.Mediated != 0 || *calls != 0 {
		t.Fatalf("mediated %d, served %d while paused", st.Mediated, *calls)
	}
	flushed, err := b.Resume(Address("held"))
	if err != nil || flushed != n {
		t.Fatalf("resume flushed %d, %v", flushed, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for want := uint64(1); want <= n; want++ {
		m, err := client.Receive(ctx)
		if err != nil {
			t.Fatalf("reply %d: %v", want, err)
		}
		if m.Corr != want {
			t.Fatalf("reply for call %d arrived at position %d", m.Corr, want)
		}
	}
	if d := c.ep.Depth(); d != 0 {
		t.Fatalf("%d messages went through the mailbox on resume", d)
	}
	st := b.Stats()
	if st.Sent != st.Delivered+st.Dropped+st.Held || st.Held != 0 {
		t.Fatalf("bus ledger: %+v", st)
	}
	if dups, reorders := c.ep.Anomalies(); dups != 0 || reorders != 0 {
		t.Fatalf("connector endpoint saw %d duplicates, %d reorderings", dups, reorders)
	}
}

// TestConnectorDirectQueuesBeforeStart: what reaches a connector before
// Start queues on its mailbox and is mediated once it starts.
func TestConnectorDirectQueuesBeforeStart(t *testing.T) {
	b := bus.New()
	stop, _ := echoServer(t, b, "comp:s", "s")
	defer stop()
	client, _ := b.Attach("comp:client", 64)
	c, err := New("late", adl.KindRPC, b, []bus.Address{"comp:s"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := uint64(1); i <= n; i++ {
		if err := b.Send(bus.Message{Kind: bus.Request, Op: "op", Payload: CallPayload{},
			Src: client.Addr(), Dst: Address("late"), Corr: i}); err != nil {
			t.Fatal(err)
		}
	}
	if d := c.ep.Depth(); d != n {
		t.Fatalf("queued %d before Start, want %d", d, n)
	}
	if st := c.Stats(); st.Mediated != 0 {
		t.Fatalf("mediated %d before Start", st.Mediated)
	}
	c.Start(context.Background())
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := map[uint64]bool{}
	for len(seen) < n {
		m, err := client.Receive(ctx)
		if err != nil {
			t.Fatalf("after %d replies: %v", len(seen), err)
		}
		seen[m.Corr] = true
	}
	if st := c.Stats(); st.Mediated != n || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConnectorDirectStateSingleWriter: eight callers mediate through one
// connector at once, each on its own goroutine. The glue automaton, the
// round-robin cursor, the correlation counter and the pending table have no
// lock of their own; run under -race this is the proof the route lock
// covers them.
func TestConnectorDirectStateSingleWriter(t *testing.T) {
	b := bus.New()
	stop1, calls1 := echoServer(t, b, "comp:s1", "s1")
	defer stop1()
	stop2, calls2 := echoServer(t, b, "comp:s2", "s2")
	defer stop2()
	glue, err := lts.Parse("glue", "init g0\ng0 ?tick g1\ng1 ?tick g0\n")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := flo.NewEngine([]flo.Rule{{Trigger: "commit", Op: flo.ImpliesBefore, Target: "tick"}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New("shared", adl.KindBalanced, b, []bus.Address{"comp:s1", "comp:s2"},
		WithGlue(glue), WithRules(rules))
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()

	const callers, each = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		ep, err := b.Attach(bus.Address("comp:caller"+string(rune('a'+g))), 64)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := uint64(1); i <= each; i++ {
				if err := b.Send(bus.Message{Kind: bus.Request, Op: "tick", Payload: CallPayload{},
					Src: ep.Addr(), Dst: Address("shared"), Corr: i}); err != nil {
					t.Error(err)
					return
				}
				m, err := ep.Receive(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if rep, _ := m.Payload.(ReplyPayload); m.Corr != i || rep.Err != "" {
					t.Errorf("call %d answered by %+v", i, m)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Mediated != callers*each || st.Replies != callers*each || st.GlueViolations != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if *calls1 != callers*each/2 || *calls2 != callers*each/2 {
		t.Fatalf("round robin split %d/%d", *calls1, *calls2)
	}
}

// TestMediatedCallStartsNoGoroutine: a mediated call runs on the caller's
// and the callee's goroutines only. Nothing ever waits on the connector's
// mailbox — every message is consumed by handle inside the Send that
// brought it — and no goroutine is started per call.
func TestMediatedCallStartsNoGoroutine(t *testing.T) {
	b := bus.New()
	stop, _ := echoServer(t, b, "comp:s", "s")
	defer stop()
	client, _ := b.Attach("comp:client", 64)
	c, err := New("inline", adl.KindRPC, b, []bus.Address{"comp:s"})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()

	for i := uint64(1); i <= 16; i++ {
		call(t, b, client, c, "op", i)
	}
	before := runtime.NumGoroutine()
	for i := uint64(17); i <= 2016; i++ {
		if rep := call(t, b, client, c, "op", i); rep.Err != "" {
			t.Fatal(rep.Err)
		}
		if d := c.ep.Depth(); d != 0 {
			t.Fatalf("call %d left %d messages on the connector's mailbox", i, d)
		}
	}
	// Not !=: a goroutine of an earlier test in the package may still have
	// been on its way out when before was read.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after 2000 mediated calls", before, after)
	}
	if got := c.ep.Received(); got != 2*2016 {
		t.Fatalf("connector endpoint received %d messages, want %d", got, 2*2016)
	}
}
