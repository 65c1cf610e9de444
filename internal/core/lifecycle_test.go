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
// reached it.
type lifecycleTarget struct{ served atomic.Int64 }

func (c *lifecycleTarget) Handle(op string, args []any) ([]any, error) {
	c.served.Add(1)
	switch what, _ := args[0].(string); what {
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
// whether its timer or context hook is still installed.
type callShape struct {
	name string
	// invoke under a handle budget of d (0 for none); nil means the shape
	// has no such thing and the row is skipped.
	invoke func(env *lifecycleEnv, d time.Duration) callFn
	probe  func(env *lifecycleEnv, ctx context.Context, what string) (wait func() (string, error), armed func() bool)
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

func armedProbe[Req, Resp any](f *TypedFuture[Req, Resp]) func() bool {
	return func() bool {
		f.cleanupMu.Lock()
		defer f.cleanupMu.Unlock()
		return f.timer != nil || f.stopHook != nil
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
		probe: func(env *lifecycleEnv, ctx context.Context, what string) (func() (string, error), func() bool) {
			f := typedTarget(env, 0).Async(ctx, "do", what)
			return f.Wait, armedProbe(f)
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
		probe: func(env *lifecycleEnv, ctx context.Context, what string) (func() (string, error), func() bool) {
			f := untypedTarget(env, 0).Async(ctx, "do", what)
			return func() (string, error) { return first(f.Wait()) }, armedProbe(f)
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
	// own lifetime. The reply is still there for a late Wait.
	t.Run("un-awaited", func(t *testing.T) {
		env := startLifecycle(t, Options{CallTimeout: short})
		for _, sh := range async {
			ctx, cancel := context.WithCancel(context.Background())
			wait, armed := sh.probe(env, ctx, "echo")
			eventually(t, sh.name+": the reply to free the waiter entry", func() bool { return sh.pending(env) == 0 })
			eventually(t, sh.name+": the timer and the context hook to be released", func() bool { return !armed() })
			cancel() // nothing is registered on ctx any more: this must not settle the future
			if got, err := wait(); err != nil || got != "echo" {
				t.Fatalf("%s: late Wait = %q, %v", sh.name, got, err)
			}
			env.quiesced(t, sh)
		}
	})

	t.Run("concurrent Wait", func(t *testing.T) {
		env := startLifecycle(t, Options{})
		for _, sh := range async {
			wait, armed := sh.probe(env, context.Background(), "echo")
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
			if armed() {
				t.Fatalf("%s: a settled future kept its timer or hook", sh.name)
			}
			env.quiesced(t, sh)
		}
	})

	// The callbacks can settle the future before invokeAsync has installed
	// them; arm then releases what it was handed.
	t.Run("settle before arm", func(t *testing.T) {
		settleBeforeArm[string, string](t)
		settleBeforeArm[[]any, []any](t)
	})
}

func settleBeforeArm[Req, Resp any](t *testing.T) {
	t.Helper()
	f := failedFuture[Req, Resp](errors.New("settled first"))
	timer := time.AfterFunc(time.Hour, func() {})
	unhooked := false
	f.arm(timer, func() bool { unhooked = true; return true })
	if stoppedLate := timer.Stop(); stoppedLate || !unhooked || armedProbe(f)() {
		t.Fatalf("%T: arm after settle left the timer (still running: %v) or the hook (released: %v) installed",
			f, stoppedLate, unhooked)
	}
	if _, err := f.Wait(); err == nil || err.Error() != "settled first" {
		t.Fatalf("%T: Wait = %v", f, err)
	}
}
