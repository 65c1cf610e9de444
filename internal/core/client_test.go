package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/registry"
)

// testEntry builds a v1 registry entry.
func testEntry(name string, factory func() any) registry.Entry {
	return registry.Entry{Name: name, Version: registry.Version{Major: 1}, New: factory}
}

// ---- test components --------------------------------------------------------

// slowComp sleeps per call; served counts container invocations that actually
// ran, which deadline-expiry tests assert against.
type slowComp struct {
	delay  time.Duration
	served *atomic.Int64
}

func (s *slowComp) Handle(op string, args []any) ([]any, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.served.Add(1)
	return []any{"done"}, nil
}

const slowSystem = `
system SlowSys {
  component Slow {
    provide work(x) -> (r)
  }
}
`

func startSlow(t *testing.T, delay time.Duration, opts Options) (*System, *atomic.Int64) {
	t.Helper()
	served := new(atomic.Int64)
	reg := kvRegistry(t)
	if err := reg.Register(testEntry("Slow", func() any { return &slowComp{delay: delay, served: served} })); err != nil {
		t.Fatal(err)
	}
	cfg, err := adl.Parse(slowSystem)
	if err != nil {
		t.Fatal(err)
	}
	opts.Registry = reg
	sys, err := NewSystem(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys, served
}

// ---- tests ------------------------------------------------------------------

// TestClientHandleCompiledOnce: the canonical handle is compiled on first
// use and cached; calls through it reach the component.
func TestClientHandleCompiledOnce(t *testing.T) {
	sys := startKV(t, Options{})
	store := sys.Client("Store")
	if store != sys.Client("Store") {
		t.Fatal("canonical handle not cached")
	}
	if store.Component() != "Store" {
		t.Fatalf("component = %q", store.Component())
	}
	ctx := context.Background()
	if _, err := store.Call(ctx, "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Client("Front").Call(ctx, "fetch", "k")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "v" || res[1] != "v1" {
		t.Fatalf("res = %v", res)
	}
	// Unknown components resolve to an invalid (but reusable) handle.
	if _, err := sys.Client("Nope").Call(ctx, "op"); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("err = %v, want ErrUnknownComp", err)
	}
}

// TestClientCancellationStormReleasesWaiters is the reply-waiter leak
// regression: a storm of cancelled and deadline-expired calls against a slow
// component must release every corr-sharded waiter slot and return well
// under the fallback timeout.
func TestClientCancellationStormReleasesWaiters(t *testing.T) {
	sys, _ := startSlow(t, 30*time.Millisecond, Options{})
	slow := sys.Client("Slow")

	const (
		goroutines = 16
		perG       = 10
	)
	var wg sync.WaitGroup
	var slowReturns atomic.Int64
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var (
					ctx    context.Context
					cancel context.CancelFunc
				)
				if i%2 == 0 {
					ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
				} else {
					// Explicit cancellation racing the send.
					ctx, cancel = context.WithCancel(context.Background())
					go cancel()
				}
				t0 := time.Now()
				_, err := slow.Call(ctx, "work", fmt.Sprintf("g%d-%d", g, i))
				if time.Since(t0) > 5*time.Second {
					slowReturns.Add(1)
				}
				if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("unexpected error: %v", err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if slowReturns.Load() != 0 {
		t.Fatalf("%d cancelled calls took longer than 5s (fallback leak)", slowReturns.Load())
	}
	// Replies for abandoned calls keep arriving for a moment; every arrival
	// (or prior cancellation) must have removed its waiter entry.
	deadline := time.Now().Add(5 * time.Second)
	for sys.PendingCalls() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reply-waiter leak: %d slots still registered after the storm", sys.PendingCalls())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientDeadlineExpiredRequestNotServed: a request whose deadline passed
// while parked (here: on a paused channel, as during a reconfiguration) is
// answered with a deadline error and never reaches the container — the
// callee-capacity half of deadline enforcement.
func TestClientDeadlineExpiredRequestNotServed(t *testing.T) {
	sys, served := startSlow(t, 0, Options{})
	slow := sys.Client("Slow")
	addr := ComponentAddress("Slow")

	sys.Bus().PauseRequests(addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := slow.Call(ctx, "work", 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	time.Sleep(50 * time.Millisecond) // the parked request is now expired
	if _, err := sys.Bus().Resume(addr); err != nil {
		t.Fatal(err)
	}
	// The flushed request must be rejected before the container runs.
	deadline := time.Now().Add(2 * time.Second)
	for sys.Bus().HeldCount(addr) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := served.Load(); got != 0 {
		t.Fatalf("expired request reached the container (%d serves)", got)
	}
	// And the handle still works for live traffic.
	if _, err := slow.Call(context.Background(), "work", 2); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsCallTimeoutFallback: the configurable fallback bounds calls
// whose context has no deadline (and is not imposed on calls that do).
func TestOptionsCallTimeoutFallback(t *testing.T) {
	sys, _ := startSlow(t, 2*time.Second, Options{CallTimeout: 80 * time.Millisecond})
	slow := sys.Client("Slow")
	t0 := time.Now()
	_, err := slow.Call(context.Background(), "work", 1)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("fallback took %v, want ~80ms", elapsed)
	}
}

// TestClientWithDeadlineBudget: the handle's deadline budget applies when
// the context has none and propagates (the request is rejected server-side
// once expired, like a context deadline).
func TestClientWithDeadlineBudget(t *testing.T) {
	sys, _ := startSlow(t, 2*time.Second, Options{})
	slow := sys.Client("Slow").With(WithDeadline(60 * time.Millisecond))
	t0 := time.Now()
	_, err := slow.Call(context.Background(), "work", 1)
	if err == nil {
		t.Fatal("expected timeout")
	}
	// A budget is an explicit deadline contract: its expiry must carry
	// deadline identity no matter which side (caller timer or callee
	// rejection) noticed first.
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget timeout err = %v, want context.DeadlineExceeded identity", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("budget took %v, want ~60ms", elapsed)
	}
}

// TestClientUnknownNamesNotCached: probing arbitrary names hands out
// working (fail-closed) handles without growing the compiled-handle table;
// a pre-obtained handle for a later-added component still turns valid.
func TestClientUnknownNamesNotCached(t *testing.T) {
	sys := startKV(t, Options{})
	sys.Client("Store") // cache the legitimate one
	before := len(*sys.clients.Load())
	for i := 0; i < 1000; i++ {
		cl := sys.Client(fmt.Sprintf("ghost-%d", i))
		if _, err := cl.Call(context.Background(), "op"); !errors.Is(err, ErrUnknownComp) {
			t.Fatalf("ghost call err = %v", err)
		}
	}
	if after := len(*sys.clients.Load()); after != before {
		t.Fatalf("unknown-name probing grew the handle table: %d -> %d", before, after)
	}
}

// TestClientWithPrincipal: the derived handle ships its principal into the
// container's authorization.
func TestClientWithPrincipal(t *testing.T) {
	cfg, err := adl.Parse(`
system Auth {
  component Vault {
    provide read(k) -> (v)
    property auth = "required"
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	reg := kvRegistry(t)
	if err := reg.Register(testEntry("Vault", func() any { return &slowComp{served: new(atomic.Int64)} })); err != nil {
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

	vault := sys.Client("Vault")
	if _, err := vault.Call(context.Background(), "read", "k"); err == nil {
		t.Fatal("anonymous call should be rejected by the auth container")
	}
	if _, err := vault.With(WithPrincipal("alice")).Call(context.Background(), "read", "k"); err != nil {
		t.Fatalf("principal-stamped call rejected: %v", err)
	}
}

// TestClientAsyncFanoutAndOneway: Async futures resolve to their own
// replies under concurrent fan-out, a cancelled future releases its slot,
// and Oneway is admitted without registering a waiter.
func TestClientAsyncFanoutAndOneway(t *testing.T) {
	sys := startKV(t, Options{})
	store := sys.Client("Store")
	ctx := context.Background()

	const n = 64
	futures := make([]*Future, n)
	for i := range futures {
		if _, err := store.Call(ctx, "put", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		futures[i] = store.Async(ctx, "get", fmt.Sprintf("k%d", i))
	}
	for i, f := range futures {
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); res[0] != want {
			t.Fatalf("future %d: got %v want %s (crossed replies)", i, res[0], want)
		}
		// Wait is idempotent.
		res2, err2 := f.Wait()
		if err2 != nil || res2[0] != res[0] {
			t.Fatalf("future %d not idempotent: %v %v", i, res2, err2)
		}
	}

	// A future cancelled before Wait resolves through its context hook and
	// releases the slot without anyone waiting.
	slowSys, _ := startSlow(t, 300*time.Millisecond, Options{})
	cctx, cancel := context.WithCancel(context.Background())
	f := slowSys.Client("Slow").Async(cctx, "work", 1)
	cancel()
	select {
	case <-f.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled future never resolved")
	}
	if _, err := f.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := slowSys.PendingCalls(); n != 0 {
		t.Fatalf("cancelled future leaked %d waiter slots", n)
	}

	// Oneway: admitted, no waiter slot, and the work runs.
	if err := store.Oneway(ctx, "put", "ow", "1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := store.Call(ctx, "get", "ow")
		if err == nil && res[0] == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oneway write never applied: %v %v", res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := sys.PendingCalls(); n != 0 {
		t.Fatalf("oneway registered %d waiter slots", n)
	}
}

// TestClientAsyncExpiringDeadlineStorm: Async with nearly-expired context
// deadlines — the settle callbacks fire while Async is still arming the
// timer and context hook (the race a -race run must stay silent on), every
// future resolves, deadline expiry keeps context.DeadlineExceeded
// identity, and no waiter slot leaks.
func TestClientAsyncExpiringDeadlineStorm(t *testing.T) {
	sys, _ := startSlow(t, 5*time.Millisecond, Options{})
	slow := sys.Client("Slow")
	rc := sys.comps["Slow"]
	for i := 0; i < 300; i++ {
		// A worker on another P can pop a request inside its microsecond
		// budget and serve it for 5 ms. Let those finish before offering the
		// next: a budgeted call that would queue behind serveWorkers others
		// is refused by admission before it is sent, which is not the expiry
		// this test is about.
		for rc.depth() >= serveWorkers {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%3)*time.Microsecond)
		f := slow.Async(ctx, "work", i)
		// Wait resolves through whichever owner won the slot — the context
		// hook or the serve-side rejection reply; bound it with a watchdog.
		type outcome struct {
			res []any
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			res, err := f.Wait()
			ch <- outcome{res, err}
		}()
		select {
		case out := <-ch:
			if out.err == nil {
				t.Fatal("expired-deadline future resolved without error")
			}
			if !errors.Is(out.err, context.DeadlineExceeded) && !errors.Is(out.err, context.Canceled) {
				t.Fatalf("err = %v, want deadline identity", out.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("future with expired deadline never resolved")
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for sys.PendingCalls() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiter slots leaked", sys.PendingCalls())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestContextCallerOutcall: the Caller injected into components implements
// ContextCaller, and a component outcall under an expired context aborts
// without burning the fallback timeout.
func TestContextCallerOutcall(t *testing.T) {
	sys := startKV(t, Options{})
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	rc, ok := (*sys.compView.Load())["Front"]
	if !ok {
		t.Fatal("Front missing")
	}
	var caller Caller = rc
	cc, ok := caller.(ContextCaller)
	if !ok {
		t.Fatal("injected Caller does not implement ContextCaller")
	}
	res, err := cc.CallContext(context.Background(), "get", "k")
	if err != nil || res[0] != "v" {
		t.Fatalf("outcall: %v %v", res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	if _, err := cc.CallContext(ctx, "get", "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(t0) > time.Second {
		t.Fatal("cancelled outcall burned the fallback timeout")
	}
}

// TestClientHandleSurvivesReconfigure: a handle obtained before its
// component exists starts failing closed, turns valid when a
// reconfiguration introduces the component, and fails closed again when a
// later transaction removes it — handles bind to the name, not the
// instance.
func TestClientHandleSurvivesReconfigure(t *testing.T) {
	sys := startKV(t, Options{})
	cfg := sys.Config()

	extra := sys.Client("Extra")
	if _, err := extra.Call(context.Background(), "work", 1); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("pre-add err = %v", err)
	}

	reg := sys.reg
	served := new(atomic.Int64)
	if err := reg.Register(testEntry("Extra", func() any { return &slowComp{served: served} })); err != nil {
		t.Fatal(err)
	}
	next := *cfg
	next.Components = append(append([]adl.ComponentDecl(nil), cfg.Components...),
		adl.ComponentDecl{Name: "Extra", Provides: []registry.Signature{{
			Name: "work", Params: []registry.TypeName{"x"}, Results: []registry.TypeName{"r"}}}})
	if _, err := sys.Reconfigure(&next); err != nil {
		t.Fatal(err)
	}
	if _, err := extra.Call(context.Background(), "work", 1); err != nil {
		t.Fatalf("post-add call through pre-compiled handle: %v", err)
	}

	if _, err := sys.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := extra.Call(context.Background(), "work", 1); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("post-remove err = %v", err)
	}
}
