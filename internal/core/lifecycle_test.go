package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The call engine (invoke, invokeAsync) has three instantiations — the typed
// handle, the untyped handle, a component's outcall — and two shapes. This
// file runs one table of call lifecycles over every combination, so a
// behaviour one of them has and another lacks is a failing row rather than a
// difference nobody looked for.

const lifecycleSystem = `
system Lifecycle {
  component Origin {
    provide idle(x) -> (r)
    require do(what) -> (r)
  }
  component Target {
    provide do(what) -> (r)
  }
  connector Link { kind rpc }
  bind Origin.do -> Target.do via Link
}
`

// lifecycleTarget answers do(what) as what says and counts the requests that
// reached it. "echo" and any what that starts with "#" are echoed; one that
// starts with "slow#" is echoed after lifecycleSlowOp, one that starts with
// "edge#" after lifecycleEdgeOp.
type lifecycleTarget struct{ served atomic.Int64 }

const (
	lifecycleSlowOp = 20 * time.Millisecond
	lifecycleEdgeOp = 5 * time.Millisecond
)

func (c *lifecycleTarget) Handle(op string, args []any) ([]any, error) {
	c.served.Add(1)
	what, _ := args[0].(string)
	switch {
	case strings.HasPrefix(what, "#"):
		return []any{what}, nil
	case strings.HasPrefix(what, "slow#"):
		time.Sleep(lifecycleSlowOp)
		return []any{what}, nil
	case strings.HasPrefix(what, "edge#"):
		time.Sleep(lifecycleEdgeOp)
		return []any{what}, nil
	}
	switch what {
	case "echo":
		return []any{what}, nil
	case "deadline":
		return nil, fmt.Errorf("target: %w", context.DeadlineExceeded)
	case "cancelled":
		return nil, fmt.Errorf("target: %w", context.Canceled)
	case "nocomp":
		return nil, fmt.Errorf("%w: ghost", ErrUnknownComp)
	default:
		return nil, errors.New("target: " + what)
	}
}

type idleComp struct{}

func (idleComp) Handle(string, []any) ([]any, error) { return nil, nil }

// lifecycleEnv is one running system and the places a row looks at.
type lifecycleEnv struct {
	sys    *System
	target *runtimeComponent
	origin *runtimeComponent
	comp   *lifecycleTarget
	conn   *connector.Connector
}

func startLifecycle(t *testing.T, opts Options) *lifecycleEnv {
	t.Helper()
	comp := &lifecycleTarget{}
	reg := &registry.Registry{}
	for name, c := range map[string]any{"Origin": idleComp{}, "Target": comp} {
		c := c
		if err := reg.Register(testEntry(name, func() any { return c })); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := adl.Parse(lifecycleSystem)
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
	conn, err := sys.Connector("Origin", "do")
	if err != nil {
		t.Fatal(err)
	}
	view := *sys.compView.Load()
	return &lifecycleEnv{sys: sys, target: view["Target"], origin: view["Origin"], comp: comp, conn: conn}
}

// callShape is one way into the engine, as functions of the system under
// test: invoke makes the call and returns its outcome; probe, for the async
// shapes, makes the call and hands back the future's Wait and a report of
// what the future still holds once Wait has returned.
type callShape struct {
	name string
	// invoke under a handle budget of d (0 for none); nil means the shape
	// has no such thing and the row is skipped.
	invoke func(env *lifecycleEnv, d time.Duration) callFn
	probe  func(env *lifecycleEnv, ctx context.Context, what string) (wait func() (string, error), held func() (pooled, timerLive bool))
	// pending counts the waiter entries of the table the shape registers in.
	pending func(env *lifecycleEnv) int
	// dst is where the shape's request goes first.
	dst func(env *lifecycleEnv) bus.Address
}

type callFn func(ctx context.Context, what string) (string, error)

func first(res []any, err error) (string, error) {
	if err != nil || len(res) == 0 {
		return "", err
	}
	s, _ := res[0].(string)
	return s, nil
}

// heldProbe reports, once Wait has returned, whether f gave its envelope back
// to the pool — which a collected reply does exactly when it stopped the
// fallback timer and the context hook before either ran — and, when it did
// not, whether the timer armed for f could still fire (asking stops it).
func heldProbe[Req, Resp any](f *TypedFuture[Req, Resp]) func() (pooled, timerLive bool) {
	return func() (bool, bool) {
		if f.e == nil {
			return true, false
		}
		return false, f.timed && f.e.lapser.Stop()
	}
}

// hookCtx is a cancellable context that counts the context.AfterFunc
// registrations made on it and those still live. context.AfterFunc hands a
// context that is not built on the package's own cancelCtx to the context's
// AfterFunc method, and the stop function it returns releases the
// registration through the one that method returns — so live counts every
// hook not yet run or released.
type hookCtx struct {
	context.Context // Background: no deadline, no values
	inner           context.Context
	cancel          context.CancelFunc
	made, live      atomic.Int32
}

func newHookCtx() *hookCtx {
	inner, cancel := context.WithCancel(context.Background())
	return &hookCtx{Context: context.Background(), inner: inner, cancel: cancel}
}

func (c *hookCtx) Done() <-chan struct{} { return c.inner.Done() }
func (c *hookCtx) Err() error            { return c.inner.Err() }

func (c *hookCtx) AfterFunc(f func()) func() bool {
	c.made.Add(1)
	c.live.Add(1)
	stop := context.AfterFunc(c.inner, func() { c.live.Add(-1); f() })
	return func() bool {
		stopped := stop()
		if stopped {
			c.live.Add(-1)
		}
		return stopped
	}
}

func budget(d time.Duration) []CallOption {
	if d > 0 {
		return []CallOption{WithDeadline(d)}
	}
	return nil
}

func typedTarget(env *lifecycleEnv, d time.Duration) *TypedClient[string, string] {
	return ClientOf[string, string](env.sys, "Target").With(budget(d)...)
}

func untypedTarget(env *lifecycleEnv, d time.Duration) *Client {
	return env.sys.Client("Target").With(budget(d)...)
}

func edgePending(env *lifecycleEnv) int           { return env.sys.PendingCalls() }
func targetAddr(env *lifecycleEnv) bus.Address    { return ComponentAddress("Target") }
func originPending(env *lifecycleEnv) int         { return env.origin.waiters.outstanding() }
func connectorAddr(env *lifecycleEnv) bus.Address { return connector.Address(env.conn.Name()) }

var callShapes = []callShape{
	{name: "typed/call", pending: edgePending, dst: targetAddr,
		invoke: func(env *lifecycleEnv, d time.Duration) callFn {
			t := typedTarget(env, d)
			return func(ctx context.Context, what string) (string, error) { return t.Call(ctx, "do", what) }
		}},
	{name: "typed/async", pending: edgePending, dst: targetAddr,
		invoke: func(env *lifecycleEnv, d time.Duration) callFn {
			t := typedTarget(env, d)
			return func(ctx context.Context, what string) (string, error) { return t.Async(ctx, "do", what).Wait() }
		},
		probe: func(env *lifecycleEnv, ctx context.Context, what string) (func() (string, error), func() (bool, bool)) {
			f := typedTarget(env, 0).Async(ctx, "do", what)
			return f.Wait, heldProbe(f)
		}},
	{name: "untyped/call", pending: edgePending, dst: targetAddr,
		invoke: func(env *lifecycleEnv, d time.Duration) callFn {
			c := untypedTarget(env, d)
			return func(ctx context.Context, what string) (string, error) { return first(c.Call(ctx, "do", what)) }
		}},
	{name: "untyped/async", pending: edgePending, dst: targetAddr,
		invoke: func(env *lifecycleEnv, d time.Duration) callFn {
			c := untypedTarget(env, d)
			return func(ctx context.Context, what string) (string, error) {
				return first(c.Async(ctx, "do", what).Wait())
			}
		},
		probe: func(env *lifecycleEnv, ctx context.Context, what string) (func() (string, error), func() (bool, bool)) {
			f := untypedTarget(env, 0).Async(ctx, "do", what)
			return func() (string, error) { return first(f.Wait()) }, heldProbe(f)
		}},
	{name: "outcall", pending: originPending, dst: connectorAddr,
		invoke: func(env *lifecycleEnv, d time.Duration) callFn {
			if d > 0 {
				return nil // an outcall has no handle to carry a budget
			}
			return func(ctx context.Context, what string) (string, error) {
				return first(env.origin.CallContext(ctx, "do", what))
			}
		}},
}

// quiesced checks what every row ends with: no waiter entry anywhere, nothing
// pending on the connector, the bus ledger balanced.
func (env *lifecycleEnv) quiesced(t *testing.T, sh callShape) {
	t.Helper()
	if n := sh.pending(env); n != 0 {
		t.Fatalf("%d waiter entries left where the call registered", n)
	}
	if n := env.sys.PendingCalls() + env.origin.waiters.outstanding(); n != 0 {
		t.Fatalf("%d waiter entries left", n)
	}
	eventually(t, "the connector's pending table to drain", func() bool { return env.conn.Stats().Pending == 0 })
	eventually(t, "the bus ledger to balance", func() bool {
		st := env.sys.Bus().Stats()
		return st.Held == 0 && st.Sent == st.Delivered+st.Dropped
	})
}

// abandoned runs a call whose request parks behind a request-only pause on
// Target, lets stop end the caller's wait, and hands the error to check. With
// revoked, the caller's cancel must have reached Target (through the
// connector, for an outcall) by the time the call returns — it is delivered
// inline — and the request is answered unserved once it surfaces.
func (env *lifecycleEnv) abandoned(t *testing.T, sh callShape, call callFn,
	ctx context.Context, stop func(), revoked bool, check func(error)) {
	t.Helper()
	addr := ComponentAddress("Target")
	env.sys.Bus().PauseRequests(addr)
	done := make(chan error, 1)
	go func() {
		_, err := call(ctx, "echo")
		done <- err
	}()
	eventually(t, "the request to park on Target", func() bool { return env.sys.Bus().HeldCount(addr) == 1 })
	stop()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the call never returned")
	}
	if err == nil {
		t.Fatal("the abandoned call succeeded")
	}
	check(err)
	if n := sh.pending(env); n != 0 {
		t.Fatalf("the abandoned call left %d waiter entries", n)
	}
	want := int32(0)
	if revoked {
		want = 1
	}
	if n := env.target.cancels.n.Load(); n != want {
		t.Fatalf("Target recorded %d revocations, want %d", n, want)
	}
	if _, err := env.sys.Bus().Resume(addr); err != nil {
		t.Fatal(err)
	}
	if revoked {
		eventually(t, "the revoked request to be answered unserved", func() bool {
			return env.target.cancels.n.Load() == 0
		})
		env.quiesced(t, sh)
	} else {
		// A request whose deadline lapsed is shed wherever it surfaces, with
		// or without an answer; a connector's entry for it is the sweep's.
		eventually(t, "the lapsed request to leave the bus", func() bool {
			st := env.sys.Bus().Stats()
			return st.Held == 0 && st.Sent == st.Delivered+st.Dropped
		})
	}
	if n := env.comp.served.Load(); n != 0 {
		t.Fatalf("the abandoned request reached the component (%d served)", n)
	}
}

// lifecycleResp is a response type with its own decoder (TypedResponse).
type lifecycleResp struct {
	R string
	N int
}

func (r *lifecycleResp) FromResults(results []any) error {
	r.N = len(results)
	r.R, _ = results[0].(string)
	return nil
}

// answerRaw takes Target's address over with a stand-in that answers every
// call in place from a raw result block: results(first argument), encoded.
// It reports how many calls it answered.
func (env *lifecycleEnv) answerRaw(t *testing.T, results func(what any) []any) *atomic.Int64 {
	t.Helper()
	addr := ComponentAddress("Target")
	env.sys.Bus().Detach(addr)
	ep, err := env.sys.Bus().Attach(addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() { cancel(); <-done })
	answered := &atomic.Int64{}
	go func() {
		defer close(done)
		for {
			m, err := ep.Receive(ctx)
			if err != nil {
				return
			}
			tc, ok := m.Payload.(connector.TypedCall)
			if !ok {
				continue
			}
			raw, err := wire.AppendValues(nil, results(tc.Args()[0]))
			if err == nil {
				err = tc.SetRawResults(raw)
			}
			if err != nil {
				tc.Finish(err.Error(), connector.ErrKindApp)
			} else {
				tc.Finish("", connector.ErrKindNone)
			}
			answered.Add(1)
			_ = env.sys.Bus().Send(bus.Message{Kind: bus.Reply, Op: m.Op, Payload: m.Payload,
				Src: addr, Dst: m.Src, Corr: m.Corr})
		}
	}()
	return answered
}

func TestCallLifecycle(t *testing.T) {
	const short = 30 * time.Millisecond
	rows := []struct {
		name   string
		opts   Options
		budget time.Duration
		run    func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn)
	}{
		{name: "reply", run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			for i := 0; i < 3; i++ { // repeat: a pooled envelope comes round again
				if got, err := call(context.Background(), "echo"); err != nil || got != "echo" {
					t.Fatalf("call %d = %q, %v", i, got, err)
				}
			}
			env.quiesced(t, sh)
		}},
		{name: "error reply keeps its kind", run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			kinds := []error{context.DeadlineExceeded, context.Canceled, ErrNoSuchComponent}
			for i, what := range []string{"deadline", "cancelled", "nocomp", "boom"} {
				_, err := call(context.Background(), what)
				if err == nil {
					t.Fatalf("%s: no error", what)
				}
				for j, kind := range kinds {
					if got := errors.Is(err, kind); got != (i == j) {
						t.Errorf("%s: errors.Is(%v, %v) = %v", what, err, kind, got)
					}
				}
				if what == "boom" && !strings.Contains(err.Error(), "target: boom") {
					t.Errorf("application error lost its text: %v", err)
				}
			}
			env.quiesced(t, sh)
		}},
		{name: "done context is refused before anything is sent", run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			sent, mediated := env.sys.Bus().Stats().Sent, env.conn.Stats().Mediated
			if _, err := call(ctx, "echo"); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if st := env.sys.Bus().Stats(); st.Sent != sent || env.conn.Stats().Mediated != mediated {
				t.Fatalf("a refused call sent %d messages, %d of them mediated",
					st.Sent-sent, env.conn.Stats().Mediated-mediated)
			}
			if n := env.comp.served.Load(); n != 0 {
				t.Fatalf("a refused call was served")
			}
			env.quiesced(t, sh)
		}},
		{name: "context cancel", run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			ctx, cancel := context.WithCancel(context.Background())
			env.abandoned(t, sh, call, ctx, cancel, true, func(err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			})
		}},
		{name: "context deadline", run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			ctx, cancel := context.WithTimeout(context.Background(), short)
			defer cancel()
			// The lapsed deadline is the revocation: no cancel follows it.
			env.abandoned(t, sh, call, ctx, func() {}, false, func(err error) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
			})
		}},
		{name: "handle budget expires as a deadline", budget: short, run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			env.abandoned(t, sh, call, context.Background(), func() {}, false, func(err error) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded identity for a WithDeadline budget", err)
				}
			})
		}},
		{name: "fallback timeout is not a deadline", opts: Options{CallTimeout: short}, run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			// The callee never saw a deadline, so the caller's cancel is what
			// revokes the request.
			env.abandoned(t, sh, call, context.Background(), func() {}, true, func(err error) {
				if errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "timed out") {
					t.Fatalf("err = %v, want a plain timeout", err)
				}
			})
		}},
		{name: "reply off a peer link", run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			// Target has moved to another node, as far as this system can
			// tell: a stand-in for its gateway holds the address and answers
			// the way the cluster does when the peer's reply arrives — the
			// envelope completed in place from the result block as the read
			// pump validated it, raw.
			answer := env.answerRaw(t, func(what any) []any {
				if what == "seven" {
					return []any{7}
				}
				return []any{what}
			})
			for i := 0; i < 3; i++ {
				if got, err := call(context.Background(), "echo"); err != nil || got != "echo" {
					t.Fatalf("call %d = %q, %v", i, got, err)
				}
			}
			if sh.name == "typed/call" {
				// A scalar response is read straight off the bytes; one of the
				// wrong type on the wire takes the boxed route and fails with
				// the error a boxed reply fails with.
				_, err := call(context.Background(), "seven")
				var boxed string
				want := typedTarget(env, 0).via.codec.DecodeResp([]any{7}, &boxed)
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("mistyped raw result fails with %v, boxed with %v", err, want)
				}
				// A TypedResponse decodes itself from the list: the fallback.
				got, err := ClientOf[string, lifecycleResp](env.sys, "Target").Call(context.Background(), "do", "echo")
				if err != nil || got.R != "echo" || got.N != 1 {
					t.Fatalf("TypedResponse off the wire = %+v, %v", got, err)
				}
			}
			if n := answer.Load(); n < 3 {
				t.Fatalf("the stand-in answered %d calls", n)
			}
			env.quiesced(t, sh)
		}},
		{name: "send failure", run: func(t *testing.T, env *lifecycleEnv, sh callShape, call callFn) {
			env.sys.Bus().Detach(sh.dst(env))
			if _, err := call(context.Background(), "echo"); !errors.Is(err, bus.ErrUnknownDst) {
				t.Fatalf("err = %v, want bus.ErrUnknownDst", err)
			}
			if n := sh.pending(env); n != 0 {
				t.Fatalf("the failed send left %d waiter entries", n)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, sh := range callShapes {
				env := startLifecycle(t, row.opts) // a system per cell: a row may leave its own unusable
				if call := sh.invoke(env, row.budget); call != nil {
					t.Run(sh.name, func(t *testing.T) { row.run(t, env, sh, call) })
				}
			}
		})
	}
}

// TestFutureLifecycle: what only a future can get wrong, on both
// instantiations that have one.
func TestFutureLifecycle(t *testing.T) {
	const short = 30 * time.Millisecond
	var async []callShape
	for _, sh := range callShapes {
		if sh.probe != nil {
			async = append(async, sh)
		}
	}

	// A reply nobody Waits for frees the waiter entry at once, and the
	// fallback timer's callback — which finds the entry gone — releases the
	// context hook with it, so the context does not pin the future for its
	// own lifetime. Only that callback releases the hook here, so its release
	// also says the timer has run. The reply is still there for a late Wait,
	// which must not give back an envelope whose timer ran.
	t.Run("un-awaited", func(t *testing.T) {
		env := startLifecycle(t, Options{CallTimeout: short})
		for _, sh := range async {
			ctx := newHookCtx()
			wait, held := sh.probe(env, ctx, "echo")
			if n := ctx.made.Load(); n != 1 {
				t.Fatalf("%s: the future made %d context hooks, want 1", sh.name, n)
			}
			eventually(t, sh.name+": the reply to free the waiter entry", func() bool { return sh.pending(env) == 0 })
			eventually(t, sh.name+": the timer to run and release the context hook", func() bool { return ctx.live.Load() == 0 })
			ctx.cancel() // nothing is registered on ctx any more: this must not settle the future
			if got, err := wait(); err != nil || got != "echo" {
				t.Fatalf("%s: late Wait = %q, %v", sh.name, got, err)
			}
			if pooled, _ := held(); pooled {
				t.Fatalf("%s: an envelope whose timer ran went back to the pool", sh.name)
			}
			env.quiesced(t, sh)
		}
	})

	// A lapse releases the other bound too: the context hook that gives the
	// call up stops the fallback timer, so a cancelled future pins nothing
	// for the fallback's length.
	t.Run("cancel stops the timer", func(t *testing.T) {
		env := startLifecycle(t, Options{})
		addr := ComponentAddress("Target")
		for _, sh := range async {
			env.sys.Bus().PauseRequests(addr)
			ctx := newHookCtx()
			wait, held := sh.probe(env, ctx, "echo")
			eventually(t, sh.name+": the request to park on Target", func() bool { return env.sys.Bus().HeldCount(addr) == 1 })
			ctx.cancel()
			if _, err := wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", sh.name, err)
			}
			if pooled, timerLive := held(); pooled || timerLive {
				t.Fatalf("%s: a cancelled future's envelope: pooled %v, fallback timer still armed %v", sh.name, pooled, timerLive)
			}
			if _, err := env.sys.Bus().Resume(addr); err != nil {
				t.Fatal(err)
			}
			eventually(t, sh.name+": the revoked request to be answered unserved", func() bool {
				return env.target.cancels.n.Load() == 0
			})
			env.quiesced(t, sh)
		}
	})

	// Eight Waits, one collector: every Wait gets the one outcome, and the
	// collector stops the timer and the hook before they run, so the
	// envelope goes back to the pool.
	t.Run("concurrent Wait", func(t *testing.T) {
		env := startLifecycle(t, Options{})
		for _, sh := range async {
			ctx := newHookCtx()
			wait, held := sh.probe(env, ctx, "echo")
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, err := wait(); err != nil || got != "echo" {
						t.Errorf("%s: Wait = %q, %v", sh.name, got, err)
					}
				}()
			}
			wg.Wait()
			if pooled, _ := held(); ctx.made.Load() != 1 || ctx.live.Load() != 0 || !pooled {
				t.Fatalf("%s: a collected reply kept its envelope (%d context hooks live): its timer or hook was not stopped",
					sh.name, ctx.live.Load())
			}
			env.quiesced(t, sh)
		}
	})

	// invokeAsync installs the context hook before it arms the timer, so the
	// timer's callback always finds the hook to release; the hook, though,
	// can settle the future before the timer is armed, and arm then leaves
	// the timer alone.
	t.Run("settle before arm", func(t *testing.T) {
		settleBeforeArm[string, string](t)
		settleBeforeArm[[]any, []any](t)
	})

	// The call a future stands for lives in its envelope, and a collected
	// reply gives the envelope back: the future keeps its outcome and has
	// closed its span before the next lease can overwrite the call.
	t.Run("outlives its envelope", func(t *testing.T) {
		outlivesEnvelope(t, func(env *lifecycleEnv) func(string) *TypedFuture[string, string] {
			h := typedTarget(env, 0)
			return func(what string) *TypedFuture[string, string] { return h.Async(context.Background(), "do", what) }
		}, func(r string) string { return r })
		outlivesEnvelope(t, func(env *lifecycleEnv) func(string) *Future {
			c := untypedTarget(env, 0)
			return func(what string) *Future { return c.Async(context.Background(), "do", what) }
		}, func(r []any) string { s, _ := first(r, nil); return s })
	})
}

// outlivesEnvelope runs, with every call traced, a future that is collected
// — a reply and an error — and then asked again after sixteen newer calls on
// the same handle, one of which re-leased its envelope: every Wait and Done
// still answer for the future's own call, and the recorder holds exactly one
// client span under its trace id, with its outcome. Then a future whose send
// failed, which never had an envelope: its span closes all the same, once.
func outlivesEnvelope[Req, Resp any](t *testing.T, handle func(*lifecycleEnv) func(what string) *TypedFuture[Req, Resp], result func(Resp) string) {
	t.Helper()
	env := startLifecycle(t, Options{TraceSampling: 1})
	async := handle(env)
	name := fmt.Sprintf("%T", (*TypedFuture[Req, Resp])(nil))
	clientSpans := func() map[int64][]telemetry.Span {
		by := map[int64][]telemetry.Span{}
		for _, sp := range env.sys.Spans() {
			if sp.Kind == telemetry.KindClient {
				by[sp.Trace] = append(by[sp.Trace], sp)
			}
		}
		return by
	}
	sameSpan := func(what string, spans []telemetry.Span, err error) {
		t.Helper()
		if len(spans) != 1 || spans[0].Op != "do" || spans[0].Outcome != outcomeOf(err) {
			t.Fatalf("%s %s: client spans %+v, want one for do with outcome %v", name, what, spans, outcomeOf(err))
		}
	}
	for _, what := range []string{"#mine", "refused"} {
		// The pool may drop what is put back — at random under the race
		// detector — so a round in which no newer call leased the envelope
		// back is checked all the same, and made again.
		for round, reused := 0, false; !reused; round++ {
			if round == 64 {
				t.Fatalf("%s %s: %d rounds of 16 newer calls, none leased the collected envelope back", name, what, round)
			}
			f := async(what)
			e, trace := f.e, f.e.a.tr.trace
			resp, err := f.Wait()
			if f.e != nil {
				t.Fatalf("%s %s: the collected reply kept its envelope", name, what)
			}
			switch {
			case what == "#mine" && (err != nil || result(resp) != what):
				t.Fatalf("%s %s: Wait = %q, %v", name, what, result(resp), err)
			case what == "refused" && (err == nil || err.Error() != "target: refused"):
				t.Fatalf("%s %s: Wait = %q, %v", name, what, result(resp), err)
			}
			for i := 0; i < 16; i++ {
				newer := fmt.Sprintf("#newer%d", i)
				g := async(newer)
				reused = reused || g.e == e
				if r, err := g.Wait(); err != nil || result(r) != newer {
					t.Fatalf("%s: newer call %s = %q, %v", name, newer, result(r), err)
				}
			}
			for i := 0; i < 2; i++ {
				if r, err2 := f.Wait(); result(r) != result(resp) || err2 != err {
					t.Fatalf("%s %s: Wait after 16 newer calls = %q, %v; first Wait = %q, %v", name, what, result(r), err2, result(resp), err)
				}
			}
			select {
			case <-f.Done():
			default:
				t.Fatalf("%s %s: Done is open after Wait", name, what)
			}
			sameSpan(what, clientSpans()[trace], err)
		}
	}

	env.sys.Bus().Detach(targetAddr(env))
	before := clientSpans()
	f := async("#lost")
	if f.e != nil {
		t.Fatalf("%s: a future whose send failed holds an envelope", name)
	}
	_, err := f.Wait()
	if !errors.Is(err, bus.ErrUnknownDst) {
		t.Fatalf("%s: err = %v, want bus.ErrUnknownDst", name, err)
	}
	if _, err2 := f.Wait(); err2 != err {
		t.Fatalf("%s: second Wait = %v, first %v", name, err2, err)
	}
	<-f.Done()
	var lost []telemetry.Span
	for trace, spans := range clientSpans() {
		if before[trace] == nil {
			lost = append(lost, spans...)
		}
	}
	sameSpan("send failure", lost, err)
}

func settleBeforeArm[Req, Resp any](t *testing.T) {
	t.Helper()
	via := newEnvelopes(Codec[Req, Resp]{}, nil)
	lease := func() *typedEnvelope[Req, Resp] {
		e := via.pool.Get().(*typedEnvelope[Req, Resp])
		e.a.waiters = &replyWaiters{}
		return e
	}
	var zero Resp
	settled := &TypedFuture[Req, Resp]{e: lease()}
	settled.settle(zero, errors.New("settled first"))
	settled.arm(time.Nanosecond)
	if settled.timed || settled.e.lapser != nil {
		t.Fatalf("%T: arm after settle started the fallback timer", settled)
	}
	if _, err := settled.Wait(); err == nil || err.Error() != "settled first" {
		t.Fatalf("%T: Wait = %v", settled, err)
	}
	// A timer that fires after the reply took the waiter entry — this
	// future has none left — still releases the hook.
	var unhooked atomic.Bool
	replied := &TypedFuture[Req, Resp]{e: lease()}
	replied.e.stop = func() bool { return unhooked.CompareAndSwap(false, true) }
	replied.arm(time.Nanosecond)
	eventually(t, fmt.Sprintf("%T: the timer to release the hook", replied), unhooked.Load)
	select {
	case <-replied.Done():
		t.Fatalf("%T: a timer that lost the waiter entry settled the future", replied)
	default:
	}
}

// TestFutureLifecycleEnvelopeReuse: a future leases its envelope from its
// handle's pool, so the envelope a collected reply gave back is a
// later future's. Ten thousand futures on one handle, sixteen in
// flight, mix the three ways a future ends — a reply (under a context that
// cannot end, one that can be cancelled and one with a distant deadline), a
// context deadline of 0–100 µs, and a fallback shorter than a slow op — with
// two Waits on each and Done asked for before, between and after them. A
// signal left behind in a pooled envelope's channel would hand a later
// future an outcome that is not its own: every reply must be the request's
// own echo. Done closes on a lapse without anyone Waiting and after Wait,
// never on a reply alone.
func TestFutureLifecycleEnvelopeReuse(t *testing.T) {
	const (
		futures  = 10000
		window   = 16
		fallback = 5 * time.Millisecond // < lifecycleSlowOp
	)
	env := startLifecycle(t, Options{CallTimeout: fallback})
	h := typedTarget(env, 0)
	var (
		wg                                sync.WaitGroup
		replies, timeouts, deadline, shed atomic.Int64
		inFlight                          = make(chan struct{}, window)
	)
	for i := 0; i < futures; i++ {
		inFlight <- struct{}{}
		what := fmt.Sprintf("#%d", i)
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		switch k := i % 10; {
		case k == 1 || k == 4:
			ctx, cancel = context.WithCancel(context.Background())
		case k == 2 || k == 5:
			ctx, cancel = context.WithTimeout(context.Background(), time.Minute)
		case k >= 6 && k <= 8:
			ctx, cancel = context.WithTimeout(context.Background(), time.Duration(i*37%101)*time.Microsecond)
		case k == 9:
			what = "slow" + what
		}
		_, hasDeadline := ctx.Deadline()
		f := h.Async(ctx, "do", what)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { cancel(); <-inFlight }()
			lapsedUnwaited := false
			if strings.HasPrefix(what, "slow") {
				// Nobody Waits yet: only the fallback's lapse may close Done.
				select {
				case <-f.Done():
					lapsedUnwaited = true
				case <-time.After(time.Second):
				}
			}
			type outcome struct {
				got string
				err error
			}
			var waits [2]outcome
			var both sync.WaitGroup
			for j := range waits {
				both.Add(1)
				go func() {
					defer both.Done()
					waits[j].got, waits[j].err = f.Wait()
				}()
			}
			<-f.Done()
			both.Wait()
			select {
			case <-f.Done():
			default:
				t.Errorf("%s: Done is open after Wait", what)
			}
			got, err := waits[0].got, waits[0].err
			if waits[1] != waits[0] {
				t.Errorf("%s: two Waits, two outcomes: %q, %v and %q, %v", what, got, err, waits[1].got, waits[1].err)
			}
			switch {
			case err == nil && got != what:
				t.Errorf("%s: Wait returned another call's reply %q", what, got)
			case err == nil && lapsedUnwaited:
				t.Errorf("%s: a reply closed Done before anyone Waited", what)
			case err == nil:
				replies.Add(1)
			// The handle has no budget: a context deadline is the only
			// deadline, and the fallback is armed only without one.
			case hasDeadline && errors.Is(err, context.DeadlineExceeded):
				deadline.Add(1)
			case hasDeadline && errors.Is(err, ErrOverloaded):
				shed.Add(1) // admission, while slow ops are in service
			case !hasDeadline && strings.Contains(err.Error(), "timed out"):
				timeouts.Add(1)
			default:
				t.Errorf("%s: unexpected outcome %v", what, err)
			}
		}()
		if t.Failed() {
			break
		}
	}
	wg.Wait()
	if replies.Load() == 0 || timeouts.Load() == 0 || deadline.Load() == 0 {
		t.Fatalf("outcomes: %d replies, %d fallback lapses, %d deadline lapses: a kind is missing",
			replies.Load(), timeouts.Load(), deadline.Load())
	}
	t.Logf("%d replies, %d fallback lapses, %d deadline lapses, %d shed by admission",
		replies.Load(), timeouts.Load(), deadline.Load(), shed.Load())
	if n := env.sys.PendingCalls(); n != 0 {
		t.Fatalf("%d waiter entries left after every future settled", n)
	}

	// A reply alone does not close Done: Wait collects it, and then it is.
	f := h.Async(context.Background(), "do", "#last")
	eventually(t, "the last reply to free its waiter entry", func() bool { return env.sys.PendingCalls() == 0 })
	select {
	case <-f.Done():
		t.Fatal("a reply closed Done before anyone Waited")
	default:
	}
	if got, err := f.Wait(); err != nil || got != "#last" {
		t.Fatalf("last Wait = %q, %v", got, err)
	}
	select {
	case <-f.Done():
	default:
		t.Fatal("Done is open after Wait")
	}
}

// cancelInWait is a context that cancels itself a millisecond after Done is
// first asked for: the engine asks only once it has sent the request and
// parks, so the cancel always finds a call in flight to revoke, never one
// that admission refuses before sending.
type cancelInWait struct {
	context.Context
	cancel context.CancelFunc
	once   sync.Once
}

func newCancelInWait() *cancelInWait {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelInWait{Context: ctx, cancel: cancel}
}

func (c *cancelInWait) Done() <-chan struct{} {
	c.once.Do(func() { time.AfterFunc(time.Millisecond, c.cancel) })
	return c.Context.Done()
}

// revokeCounter counts the cancels the bus carries.
type revokeCounter struct{ n atomic.Int64 }

func (*revokeCounter) Name() string { return "revokes" }

func (r *revokeCounter) Intercept(m *bus.Message) bus.Verdict {
	if m.Kind == bus.Control && m.Op == bus.OpCancel {
		r.n.Add(1)
	}
	return bus.Pass
}

// TestCallLifecycleEnvelopeReuse is TestFutureLifecycleEnvelopeReuse's
// synchronous twin: a call leases its envelope from its handle's pool, and
// the envelope a clean reply gave back is a later call's. Ten thousand calls
// on one handle's pool from sixteen goroutines mix the ways a call ends — a
// reply (under a context that cannot end and one that can), a context
// cancelled mid-call, a context deadline of 0–100 µs, the 5 ms CallTimeout
// lapsing a 20 ms op under a plain receive and under a select, the same
// fallback racing a 5 ms op, and a handle budget lapsing the 20 ms op. A
// signal left in a pooled envelope's channel, or a lapser that ran for a
// pooled envelope's earlier call, would hand a call an outcome that is not
// its own: every reply must be the request's own echo, every error the kind
// of its own cause, and a fallback lapse no earlier than the fallback. A
// call the lapser gave up, or its context cancelled, is revoked exactly
// once; a lapsed deadline is its own revocation.
func TestCallLifecycleEnvelopeReuse(t *testing.T) {
	const (
		calls    = 10000
		callers  = 16
		fallback = lifecycleEdgeOp // < lifecycleSlowOp
	)
	env := startLifecycle(t, Options{CallTimeout: fallback})
	h := typedTarget(env, 0)
	budgeted := h.With(WithDeadline(fallback))
	revokes := &revokeCounter{}
	env.sys.Bus().AddInterceptor(revokes)
	var (
		wg                                    sync.WaitGroup
		next                                  atomic.Int64
		replies, timeouts, cancels, deadlines atomic.Int64
		shed                                  atomic.Int64
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < calls && !t.Failed(); i = next.Add(1) - 1 {
				what, call := fmt.Sprintf("#%d", i), h
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch i % 10 {
				case 1:
					ctx, cancel = context.WithCancel(context.Background())
				case 2: // the lapser under a select
					ctx, cancel = context.WithCancel(context.Background())
					what = "slow" + what
				case 3: // the lapser under a plain receive
					what = "slow" + what
				case 4: // cancelled mid-call
					c := newCancelInWait()
					ctx, cancel = c, c.cancel
					what = "slow" + what
				case 5:
					call, what = budgeted, "slow"+what
				case 6, 7, 8:
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(i*37%101)*time.Microsecond)
				case 9: // the reply races the lapser
					what = "edge" + what
				}
				_, hasDeadline := ctx.Deadline()
				start := time.Now()
				got, err := call.Call(ctx, "do", what)
				took := time.Since(start)
				cancel()
				deadlined := hasDeadline || call == budgeted
				switch {
				case err == nil && got != what:
					t.Errorf("%s: the call returned another call's reply %q", what, got)
				case err == nil:
					replies.Add(1)
				case deadlined && errors.Is(err, context.DeadlineExceeded):
					deadlines.Add(1)
				case deadlined && errors.Is(err, ErrOverloaded):
					shed.Add(1) // admission, while slow ops are in service
				case i%10 == 4 && errors.Is(err, context.Canceled):
					cancels.Add(1)
				case !deadlined && strings.Contains(err.Error(), "timed out") && !errors.Is(err, context.DeadlineExceeded):
					if took < fallback {
						t.Errorf("%s: a fallback lapse after %v, before the %v fallback", what, took, fallback)
					}
					timeouts.Add(1)
				default:
					t.Errorf("%s: unexpected outcome %v", what, err)
				}
			}
		}()
	}
	wg.Wait()
	// No eventually: a call that returned has its waiter entry taken — by
	// the reply, the lapser, or the caller itself.
	if n := env.sys.PendingCalls(); n != 0 {
		t.Fatalf("%d waiter entries left after every call returned", n)
	}
	if replies.Load() == 0 || timeouts.Load() == 0 || cancels.Load() == 0 || deadlines.Load() == 0 {
		t.Fatalf("outcomes: %d replies, %d fallback lapses, %d cancels, %d deadline lapses: a kind is missing",
			replies.Load(), timeouts.Load(), cancels.Load(), deadlines.Load())
	}
	t.Logf("%d replies, %d fallback lapses, %d cancels, %d deadline lapses, %d shed by admission",
		replies.Load(), timeouts.Load(), cancels.Load(), deadlines.Load(), shed.Load())
	if got, want := revokes.n.Load(), timeouts.Load()+cancels.Load(); got != want {
		t.Fatalf("%d revocations for %d fallback lapses and %d cancels", got, timeouts.Load(), cancels.Load())
	}
}
