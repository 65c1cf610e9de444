// Tests for the typed client-handle surface (DESIGN.md §8): codec
// derivation, the in-place serving fast path, fallback to untyped Handle,
// survival across hot swaps and live migration, aspect pipelines still
// applying, typed error kinds, and the Oneway no-such-component regression.
package aas_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	aas "repro"

	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/wire"
)

// kvPut is a struct request carrying its own codec (core.TypedRequest):
// AppendArgs preencodes the two-string argument list in wire.AppendValues
// form, CallArgs materializes the legacy boxed form.
type kvPut struct{ Key, Val string }

func (p *kvPut) AppendArgs(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, 2)
	dst, err := wire.AppendValue(dst, p.Key)
	if err != nil {
		return nil, err
	}
	return wire.AppendValue(dst, p.Val)
}

func (p *kvPut) CallArgs() []any { return []any{p.Key, p.Val} }

// typedGreeter implements both Handle and HandleTyped; ops not served typed
// fall back through ErrUntypedOp.
type typedGreeter struct{ Greeting string }

func (g *typedGreeter) Handle(op string, args []any) ([]any, error) {
	switch op {
	case "greet":
		return []any{g.Greeting + ", " + args[0].(string) + "!"}, nil
	case "setGreeting":
		g.Greeting = args[0].(string)
		return []any{"ok"}, nil
	}
	return nil, fmt.Errorf("greeter: unknown op %s", op)
}

func (g *typedGreeter) HandleTyped(op string, req, resp any) error {
	if op != "greet" {
		return aas.ErrUntypedOp // setGreeting served via the untyped path
	}
	*resp.(*string) = g.Greeting + ", " + *req.(*string) + "!"
	return nil
}

func startTypedGreeter(t *testing.T, greeting string) (*aas.System, *aas.Registry) {
	t.Helper()
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: greeting} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys, reg
}

// TestTypedScalarCall: the scalar-derived codec round trip through the
// in-place serving path, plus the untyped handle still working beside it.
func TestTypedScalarCall(t *testing.T) {
	sys, _ := startTypedGreeter(t, "Hello")
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	for i := 0; i < 3; i++ { // repeat: envelopes recycle through the pool
		out, err := g.Call(ctx, "greet", "world")
		if err != nil || out != "Hello, world!" {
			t.Fatalf("typed call %d: %q %v", i, out, err)
		}
	}
	if res, err := g.Untyped().Call(ctx, "greet", "world"); err != nil || res[0] != "Hello, world!" {
		t.Fatalf("untyped sibling call: %v %v", res, err)
	}
}

// TestTypedFallbackToHandle: a typed call whose op the component does not
// serve typed (HandleTyped returns ErrUntypedOp) transparently falls back to
// Handle, with results decoded through the codec; and a component with no
// HandleTyped at all serves typed handles the same way.
func TestTypedFallbackToHandle(t *testing.T) {
	sys, _ := startTypedGreeter(t, "Hello")
	ctx := context.Background()
	set := aas.ClientOf[string, string](sys, "Greeter")
	if out, err := set.Call(ctx, "setGreeting", "Howdy"); err != nil || out != "ok" {
		t.Fatalf("fallback call: %q %v", out, err)
	}
	if out, err := set.Call(ctx, "greet", "world"); err != nil || out != "Howdy, world!" {
		t.Fatalf("typed call after fallback mutation: %q %v", out, err)
	}

	// Component without HandleTyped: plain greeter from facade_test.go.
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &greeter{Greeting: "Hi"} })
	sys2, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys2.Stop()
	g := aas.ClientOf[string, string](sys2, "Greeter")
	if out, err := g.Call(ctx, "greet", "world"); err != nil || out != "Hi, world!" {
		t.Fatalf("untyped component via typed handle: %q %v", out, err)
	}
}

// TestTypedStructRequest: a core.TypedRequest implementor as the request
// type, served in place by benchKV.HandleTyped.
func TestTypedStructRequest(t *testing.T) {
	sys, _ := startTestBenchSystem(t)
	ctx := context.Background()
	put := aas.ClientOf[kvPut, string](sys, "Store")
	get := aas.ClientOf[string, string](sys, "Store")
	if out, err := put.Call(ctx, "put", kvPut{Key: "city", Val: "Enschede"}); err != nil || out != "ok" {
		t.Fatalf("typed put: %q %v", out, err)
	}
	if out, err := get.Call(ctx, "get", "city"); err != nil || out != "Enschede" {
		t.Fatalf("typed get: %q %v", out, err)
	}
}

func startTestBenchSystem(t *testing.T) (*aas.System, *aas.Registry) {
	t.Helper()
	reg := aas.NewRegistry()
	reg.MustRegister("Store", "1.0", nil, func() any { return newBenchKV(4) })
	sys, err := aas.Load(`
system Bench {
  component Store {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
    property statefulness = "stateful"
  }
}
`, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys, reg
}

// TestTypedAsync: asynchronous typed fan-out resolves every future with the
// right value, and Wait is repeatable.
func TestTypedAsync(t *testing.T) {
	sys, _ := startTypedGreeter(t, "Hello")
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	futures := make([]*aas.TypedFuture[string, string], 8)
	for i := range futures {
		futures[i] = g.Async(ctx, "greet", fmt.Sprintf("w%d", i))
	}
	for i, f := range futures {
		out, err := f.Wait()
		if err != nil || out != fmt.Sprintf("Hello, w%d!", i) {
			t.Fatalf("future %d: %q %v", i, out, err)
		}
		if again, err := f.Wait(); err != nil || again != out {
			t.Fatalf("repeat Wait %d: %q %v", i, again, err)
		}
	}
}

// TestTypedHandleSurvivesSwap: the typed handle shares the COW binding, so a
// hot swap is visible on the very next typed call through the same handle.
func TestTypedHandleSurvivesSwap(t *testing.T) {
	sys, reg := startTypedGreeter(t, "Hello")
	reg.MustRegister("Greeter2", "2.0", nil, func() any { return &typedGreeter{Greeting: "Howdy"} })
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	if out, err := g.Call(ctx, "greet", "world"); err != nil || out != "Hello, world!" {
		t.Fatalf("pre-swap: %q %v", out, err)
	}
	entry, err := reg.Lookup("Greeter2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SwapImplementation("Greeter", entry, false); err != nil {
		t.Fatal(err)
	}
	if out, err := g.Call(ctx, "greet", "world"); err != nil || out != "Howdy, world!" {
		t.Fatalf("post-swap through the same typed handle: %q %v", out, err)
	}
}

// TestTypedAspectApplies: the aspect pipeline wraps typed calls exactly as
// untyped ones — an Around observes the invocation, an After replacing the
// results forces the typed caller through the codec decode path.
func TestTypedAspectApplies(t *testing.T) {
	sys, _ := startTypedGreeter(t, "Hello")
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")

	var seen atomic.Int64
	err := sys.AttachAspect(aas.Aspect{Name: "watch", Advice: []aas.Advice{{
		Pointcut: aas.Pointcut{Component: "Greeter", Op: "greet"},
		After: func(inv *aas.Invocation, res any, err error) (any, error) {
			seen.Add(1)
			return []any{"intercepted"}, err
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Call(ctx, "greet", "world")
	if err != nil || out != "intercepted" {
		t.Fatalf("aspect-replaced typed result: %q %v", out, err)
	}
	if seen.Load() == 0 {
		t.Fatal("aspect did not fire on typed call")
	}
	if err := sys.RemoveAspect("watch"); err != nil {
		t.Fatal(err)
	}
	if out, err := g.Call(ctx, "greet", "world"); err != nil || out != "Hello, world!" {
		t.Fatalf("after aspect removal: %q %v", out, err)
	}
}

// TestTypedDeadlineErrorIs: a typed call that times out matches
// context.DeadlineExceeded through errors.Is — no string inspection.
func TestTypedDeadlineErrorIs(t *testing.T) {
	reg := aas.NewRegistry()
	reg.MustRegister("Slow", "1.0", nil, func() any { return slowEcho{} })
	sys, err := aas.Load(`
system SlowSys {
  component Slow {
    provide get(k) -> (v)
  }
}
`, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	g := aas.ClientOf[string, string](sys, "Slow")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = g.Call(ctx, "get", "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want errors.Is DeadlineExceeded, got %v", err)
	}
}

type slowEcho struct{}

func (slowEcho) Handle(op string, args []any) ([]any, error) {
	time.Sleep(300 * time.Millisecond)
	return []any{args[0]}, nil
}

// TestOnewayNoSuchComponent is the regression for the silently-dropped
// Oneway: once the component is gone, Oneway reports ErrNoSuchComponent
// instead of pretending the send landed.
func TestOnewayNoSuchComponent(t *testing.T) {
	sys, _ := startTypedGreeter(t, "Hello")
	ctx := context.Background()
	g := sys.Client("Greeter")
	if err := g.Oneway(ctx, "setGreeting", "Howdy"); err != nil {
		t.Fatalf("live oneway: %v", err)
	}
	if err := sys.EvictComponent("Greeter"); err != nil {
		t.Fatal(err)
	}
	err := g.Oneway(ctx, "setGreeting", "Hey")
	if !errors.Is(err, aas.ErrNoSuchComponent) {
		t.Fatalf("want ErrNoSuchComponent after removal, got %v", err)
	}
	// The typed sibling reports the same way.
	tg := aas.ClientOf[string, string](sys, "Greeter")
	if _, err := tg.Call(ctx, "greet", "world"); !errors.Is(err, aas.ErrNoSuchComponent) {
		t.Fatalf("typed call after removal: %v", err)
	}
}

// TestTypedHandleSurvivesMigration: typed calls from a gateway node route
// over the batched peer link (preencoded RawArgs), keep working when the
// component migrates onto the caller's node (in-place serving), and again
// when it migrates away.
func TestTypedHandleSurvivesMigration(t *testing.T) {
	mkReg := func(string) *registry.Registry {
		reg := aas.NewRegistry()
		reg.MustRegister("Store", "1.0", nil, func() any { return newBenchKV(0) })
		return reg.Registry
	}
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL: `
system Mig {
  component Store {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
    property statefulness = "stateful"
  }
}
`,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Store": "n2"},
		Registry:  mkReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sys1, sys2 := h.System("n1"), h.System("n2")

	ctx := context.Background()
	put := aas.ClientOf[kvPut, string](sys1, "Store").With(aas.WithDeadline(5 * time.Second))
	get := aas.ClientOf[string, string](sys1, "Store").With(aas.WithDeadline(5 * time.Second))
	if out, err := put.Call(ctx, "put", kvPut{Key: "k", Val: "v1"}); err != nil || out != "ok" {
		t.Fatalf("remote typed put: %q %v", out, err)
	}
	if out, err := get.Call(ctx, "get", "k"); err != nil || out != "v1" {
		t.Fatalf("remote typed get: %q %v", out, err)
	}
	// Migrate onto the caller's node: same handles, now served in place.
	if err := sys2.Migrate("Store", netsim.NodeID("n1")); err != nil {
		t.Fatal(err)
	}
	if out, err := get.Call(ctx, "get", "k"); err != nil || out != "v1" {
		t.Fatalf("local typed get after migration: %q %v", out, err)
	}
	// And away again: back over the wire, state intact.
	if err := sys1.Migrate("Store", netsim.NodeID("n2")); err != nil {
		t.Fatal(err)
	}
	if out, err := get.Call(ctx, "get", "k"); err != nil || out != "v1" {
		t.Fatalf("re-remoted typed get: %q %v", out, err)
	}
	if wr, fr := h.Node("n1").BatchStats(); wr == 0 || fr < wr {
		t.Fatalf("batched link saw no writes: writes=%d frames=%d", wr, fr)
	}
}

// countingGreeter is typedGreeter counting what each entry point served.
// HandleTyped keeps typedGreeter's unguarded assertions, as user components
// may: offered an untyped call's argument list it would panic.
type countingGreeter struct {
	typedGreeter
	handled, typed atomic.Int64
}

func (g *countingGreeter) Handle(op string, args []any) ([]any, error) {
	g.handled.Add(1)
	return g.typedGreeter.Handle(op, args)
}

func (g *countingGreeter) HandleTyped(op string, req, resp any) error {
	g.typed.Add(1)
	return g.typedGreeter.HandleTyped(op, req, resp)
}

// greetFront forwards hello to its required service greet.
type greetFront struct{ caller aas.Caller }

func (f *greetFront) SetCaller(c aas.Caller) { f.caller = c }
func (f *greetFront) Handle(op string, args []any) ([]any, error) {
	return f.caller.Call("greet", args...)
}

// TestUntypedCallNeverReachesHandleTyped: the untyped handle and the
// component outcall are the typed call's engine at []any, and their envelope
// says it has no typed form. A TypedComponent is therefore served an untyped
// call through Handle — straight from a handle, through a connector from
// another component's outcall, and as a future — while the typed handle
// beside them is still served in place.
func TestUntypedCallNeverReachesHandleTyped(t *testing.T) {
	g := &countingGreeter{typedGreeter: typedGreeter{Greeting: "Hello"}}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return g })
	reg.MustRegister("Front", "1.0", nil, func() any { return &greetFront{} })
	sys, err := aas.Load(`
system Hello {
  component Front {
    provide hello(name) -> (message)
    require greet(name) -> (message)
  }
  component Greeter {
    provide greet(name) -> (message)
  }
  connector Link { kind rpc }
  bind Front.greet -> Greeter.greet via Link
}
`, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	const want = "Hello, world!"

	if res, err := sys.Client("Greeter").Call(ctx, "greet", "world"); err != nil || res[0] != want {
		t.Fatalf("direct: %v %v", res, err)
	}
	if res, err := sys.Client("Front").Call(ctx, "hello", "world"); err != nil || res[0] != want {
		t.Fatalf("through the connector: %v %v", res, err)
	}
	if res, err := sys.Client("Greeter").Async(ctx, "greet", "world").Wait(); err != nil || res[0] != want {
		t.Fatalf("async: %v %v", res, err)
	}
	// Front's own serve is the fourth Handle-served request; it is not g's.
	if h, ty := g.handled.Load(), g.typed.Load(); h != 3 || ty != 0 {
		t.Fatalf("untyped calls: %d served by Handle (want 3), %d offered to HandleTyped (want 0)", h, ty)
	}
	if out, err := aas.ClientOf[string, string](sys, "Greeter").Call(ctx, "greet", "world"); err != nil || out != want {
		t.Fatalf("typed: %q %v", out, err)
	}
	if h, ty := g.handled.Load(), g.typed.Load(); h != 3 || ty != 1 {
		t.Fatalf("typed call: Handle %d (want 3), HandleTyped %d (want 1)", h, ty)
	}
}

// TestUntypedRemoteCallUnshippableArgument: an untyped call to a component
// on another node whose argument the wire value codec cannot encode is
// refused at the gateway, at once — the caller does not wait out its
// fallback, and nothing stays registered for it.
func TestUntypedRemoteCallUnshippableArgument(t *testing.T) {
	mkReg := func(string) *registry.Registry {
		reg := aas.NewRegistry()
		reg.MustRegister("Echo", "1.0", nil, func() any { return tagged{"echo"} })
		return reg.Registry
	}
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL: `
system Far {
  component Echo {
    provide get(k) -> (v)
  }
}
`,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Echo": "n2"},
		Registry:  mkReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sys1 := h.System("n1")
	echo := sys1.Client("Echo")
	ctx := context.Background()
	if res, err := echo.Call(ctx, "get", "k"); err != nil || res[0] != "echo" {
		t.Fatalf("shippable call: %v %v", res, err)
	}
	start := time.Now()
	_, err = echo.Call(ctx, "get", struct{ X int }{1}) // no deadline: the fallback is 10 s
	if err == nil || !strings.Contains(err.Error(), wire.ErrUnsupportedType.Error()) {
		t.Fatalf("err = %v, want the codec's unsupported-type refusal", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("refusal took %v", d)
	}
	if n := sys1.PendingCalls(); n != 0 {
		t.Fatalf("%d reply waiters left", n)
	}
	if _, err := echo.Async(ctx, "get", make(chan int)).Wait(); err == nil {
		t.Fatal("async call with an unshippable argument succeeded")
	}
	if res, err := echo.Call(ctx, "get", "k"); err != nil || res[0] != "echo" {
		t.Fatalf("call after the refusals: %v %v", res, err)
	}
}
