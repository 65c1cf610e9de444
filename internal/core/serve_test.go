package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/registry"
)

// Tests for the serve path as it is since the dispatcher and the client
// pumps went: workers receive from the mailbox themselves and start spares
// on demand, replies and controls settle on the sender's goroutine.

// gateComp blocks every "block" call on gate and counts the calls that
// reached it; "loop" makes an outcall through the component's own
// requirement once peers calls are inside it together.
type gateComp struct {
	started atomic.Int64
	gate    chan struct{}
	caller  Caller
	peers   int64
}

func (g *gateComp) SetCaller(c Caller) { g.caller = c }

func (g *gateComp) Handle(op string, args []any) ([]any, error) {
	switch op {
	case "block":
		g.started.Add(1)
		<-g.gate
	case "loop":
		g.started.Add(1)
		for g.started.Load() < g.peers {
			time.Sleep(100 * time.Microsecond)
		}
		return g.caller.Call("leaf", args...)
	}
	return []any{op}, nil
}

const gateSystem = `
system GateSys {
  component Gate {
    provide block(x) -> (r)
    provide loop(x) -> (r)
    provide leaf(x) -> (r)
    require leaf(x) -> (r)
  }
  connector Self { kind rpc }
  bind Gate.leaf -> Gate.leaf via Self
}
`

func startGate(t *testing.T, peers int) (*System, *gateComp) {
	t.Helper()
	g := &gateComp{gate: make(chan struct{}), peers: int64(peers)}
	reg := &registry.Registry{}
	if err := reg.Register(testEntry("Gate", func() any { return g })); err != nil {
		t.Fatal(err)
	}
	cfg, err := adl.Parse(gateSystem)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys, g
}

// goroutinesIn lists the ids of the live goroutines, other than the tests'
// own, with a frame (or a creator) whose name contains frame.
func goroutinesIn(frame string) []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var ids []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame) && !strings.Contains(g, "testing.tRunner") {
			ids = append(ids, strings.Fields(g)[1]) // "goroutine 12 [select]:"
		}
	}
	sort.Strings(ids)
	return ids
}

// serveGoroutines counts the live serve workers of every component in the
// process.
func serveGoroutines() int { return len(goroutinesIn("(*runtimeComponent).work(")) }

// eventually polls cond until it holds or the deadline fails the test.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeBurstBeyondWorkersAllStart: serveWorkers is a floor, not a bound.
// More blocked handlers than resident workers all run at once, and once the
// burst is over the pool is back to exactly its floor.
func TestServeBurstBeyondWorkersAllStart(t *testing.T) {
	const callers = serveWorkers + 4
	sys, g := startGate(t, 0)
	gate := sys.Client("Gate")
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gate.Call(context.Background(), "block", 1); err != nil {
				t.Errorf("block: %v", err)
			}
		}()
	}
	eventually(t, "every blocked handler to start", func() bool { return g.started.Load() == callers })
	if n := serveGoroutines(); n <= callers {
		t.Fatalf("%d serve goroutines with %d handlers blocked: nobody is left to receive", n, callers)
	}
	close(g.gate)
	wg.Wait()
	eventually(t, "the pool to shrink to its floor", func() bool { return serveGoroutines() == serveWorkers })
	// The floor still serves.
	if _, err := gate.Call(context.Background(), "leaf", 1); err != nil {
		t.Fatal(err)
	}
	if n := serveGoroutines(); n != serveWorkers {
		t.Fatalf("%d serve goroutines after a steady-state call, want %d", n, serveWorkers)
	}
}

// TestServeSelfCallDoesNotWaitOnOwnPool: serveWorkers+1 handlers all inside
// the component at once, each calling the component itself through a
// connector. The inner requests need receivers none of the blocked handlers
// can be.
func TestServeSelfCallDoesNotWaitOnOwnPool(t *testing.T) {
	const callers = serveWorkers + 1
	sys, _ := startGate(t, callers)
	gate := sys.Client("Gate")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := gate.Call(ctx, "loop", 1)
			if err != nil || len(res) != 1 || res[0] != "leaf" {
				t.Errorf("loop = %v, %v", res, err)
			}
		}()
	}
	wg.Wait()
	eventually(t, "the pool to shrink to its floor", func() bool { return serveGoroutines() == serveWorkers })
}

// TestStartStopClientEdgeGoroutines: the client edge is goroutine-free. A
// one-component system without connectors runs exactly its serve workers
// after Start and nothing after Stop, and steady-state calls neither start
// nor end a goroutine: the same workers are there afterwards.
func TestStartStopClientEdgeGoroutines(t *testing.T) {
	const pkg = "repro/internal/core."
	// One P is the hard case for "no goroutine started in steady state":
	// caller and worker hand the P to each other through runnext, so the
	// workers Start created after the first can sit runnable for a whole
	// time slice, and must count as receivers all the same.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := kvRegistry(t)
	if err := reg.Register(testEntry("Slow", func() any { return &slowComp{served: new(atomic.Int64)} })); err != nil {
		t.Fatal(err)
	}
	cfg, err := adl.Parse(slowSystem)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "earlier tests' goroutines to exit", func() bool { return len(goroutinesIn(pkg)) == 0 })
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	started := goroutinesIn(pkg)
	if len(started) != serveWorkers {
		t.Fatalf("Start left %d goroutines running core code, want the %d serve workers", len(started), serveWorkers)
	}
	for i := 0; i < 2000; i++ {
		if _, err := sys.Client("Slow").Call(context.Background(), "work", i); err != nil {
			t.Fatal(err)
		}
	}
	if now := goroutinesIn(pkg); !slices.Equal(now, started) {
		t.Fatalf("steady-state calls changed the goroutines running core code: %d now, first %v; were %v",
			len(now), now[:min(len(now), 8)], started)
	}
	sys.Stop()
	eventually(t, "every goroutine Start added to exit", func() bool { return len(goroutinesIn(pkg)) == 0 })
}

// TestCancelSettlesWhileWorkersBusy: controls no longer wait for a serve
// goroutine. With every resident worker blocked in a handler, a cancel
// still lands on the sender's goroutine and revokes the request it
// overtook — here one parked behind a request-only pause.
func TestCancelSettlesWhileWorkersBusy(t *testing.T) {
	sys, g := startGate(t, 0)
	gate := sys.Client("Gate")
	addr := ComponentAddress("Gate")
	var wg sync.WaitGroup
	for i := 0; i < serveWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gate.Call(context.Background(), "block", 1); err != nil {
				t.Errorf("block: %v", err)
			}
		}()
	}
	eventually(t, "the resident workers to block", func() bool { return g.started.Load() == serveWorkers })

	sys.Bus().PauseRequests(addr)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := gate.Call(ctx, "block", 2)
		done <- err
	}()
	eventually(t, "the request to park", func() bool { return sys.Bus().HeldCount(addr) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancel was delivered inline by the caller's own Send, before Call
	// returned: it is recorded although no worker was free to dispatch it.
	rc := (*sys.compView.Load())["Gate"]
	if n := rc.cancels.n.Load(); n != 1 {
		t.Fatalf("%d revocations recorded, want 1", n)
	}
	if _, err := sys.Bus().Resume(addr); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the revoked request to be answered unserved", func() bool {
		for _, e := range sys.Events().History(EvRequestFailed) {
			if strings.Contains(e.Detail, "canceled before service") {
				return true
			}
		}
		return false
	})
	if got := g.started.Load(); got != serveWorkers {
		t.Fatalf("the revoked request reached the container (%d handlers started)", got)
	}
	close(g.gate)
	wg.Wait()
	if n := sys.PendingCalls(); n != 0 {
		t.Fatalf("%d reply waiters left", n)
	}
}

// TestCancelStormWithDirectSettlement: cancellations racing replies that
// settle on the replier's goroutine. Whoever takes the waiter slot owns it;
// none may be left, and the bus ledger balances once the stragglers land.
func TestCancelStormWithDirectSettlement(t *testing.T) {
	sys, _ := startSlow(t, 0, Options{})
	slow := sys.Client("Slow")
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				go cancel()
				if _, err := slow.Call(ctx, "work", i); err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("unexpected error: %v", err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if n := sys.PendingCalls(); n != 0 {
		t.Fatalf("reply-waiter leak: %d slots registered after the storm", n)
	}
	eventually(t, "the bus ledger to balance", func() bool {
		st := sys.Bus().Stats()
		return st.Held == 0 && st.Sent == st.Delivered+st.Dropped
	})
}

// TestMediatedCancelReleasesPending: an outcall its caller abandons is
// revoked through the connector. The request parks behind a request-only
// pause on the callee, the caller cancels: its CallContext sends the cancel
// Client.Call would, the connector drops the pending entry and passes the
// cancel on under its own correlation id — the one the callee knows the
// request by — and the callee answers the request unserved when it
// surfaces. The second half abandons a deadline-less outcall by the fallback
// timeout, the entry the connector's sweep never reclaimed.
func TestMediatedCancelReleasesPending(t *testing.T) {
	sys := startKV(t, Options{CallTimeout: 50 * time.Millisecond})
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	conn, err := sys.Connector("Front", "get")
	if err != nil {
		t.Fatal(err)
	}
	view := *sys.compView.Load()
	front, store := view["Front"], view["Store"]
	addr := ComponentAddress("Store")
	served := func() int { return len(sys.Events().History(EvRequestServed)) }
	servedBefore := served()

	abandon := func(what string, ctx context.Context, cancel func(), want error) {
		t.Helper()
		sys.Bus().PauseRequests(addr)
		done := make(chan error, 1)
		go func() {
			_, err := front.CallContext(ctx, "get", "k")
			done <- err
		}()
		eventually(t, what+": the request to park on the callee", func() bool { return sys.Bus().HeldCount(addr) == 1 })
		if n := conn.Stats().Pending; n != 1 {
			t.Fatalf("%s: %d pending entries with one call in flight", what, n)
		}
		cancel()
		if err := <-done; want != nil && !errors.Is(err, want) || err == nil {
			t.Fatalf("%s: err = %v", what, err)
		}
		// The cancel ran inline inside the caller's own Send: by the time
		// CallContext has returned, both tables have been updated.
		if n := conn.Stats().Pending; n != 0 {
			t.Fatalf("%s: the abandoned call left %d pending entries on the connector", what, n)
		}
		if n := store.cancels.n.Load(); n != 1 {
			t.Fatalf("%s: callee recorded %d revocations, want 1", what, n)
		}
		if _, err := sys.Bus().Resume(addr); err != nil {
			t.Fatal(err)
		}
		eventually(t, what+": the revoked request to be answered unserved", func() bool {
			return store.cancels.n.Load() == 0
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	abandon("cancel", ctx, cancel, context.Canceled)
	abandon("fallback timeout", context.Background(), func() {}, nil)

	failed := 0
	for _, e := range sys.Events().History(EvRequestFailed) {
		if e.Component == "Store" && strings.Contains(e.Detail, "canceled before service") {
			failed++
		}
	}
	if failed != 2 || served() != servedBefore {
		t.Fatalf("%d requests answered unserved (want 2), %d served (want 0)", failed, served()-servedBefore)
	}
	if n := front.waiters.outstanding(); n != 0 {
		t.Fatalf("%d reply waiters left on the caller", n)
	}
	eventually(t, "the bus ledger to balance", func() bool {
		st := sys.Bus().Stats()
		return st.Held == 0 && st.Sent == st.Delivered+st.Dropped
	})
	// The path still works, and a served call leaves nothing behind either.
	if res, err := front.CallContext(context.Background(), "get", "k"); err != nil || res[0] != "v" {
		t.Fatalf("call after the revocations: %v, %v", res, err)
	}
	if n := conn.Stats().Pending; n != 0 {
		t.Fatalf("%d pending entries after a served call", n)
	}
}
