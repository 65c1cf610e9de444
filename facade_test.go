package aas_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	aas "repro"

	"repro/internal/netsim"
	"repro/internal/registry"
)

// greeter is a minimal public-API component.
type greeter struct {
	mu       sync.Mutex
	Greeting string
}

func (g *greeter) Handle(op string, args []any) ([]any, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch op {
	case "greet":
		return []any{g.Greeting + ", " + args[0].(string) + "!"}, nil
	case "setGreeting":
		g.Greeting = args[0].(string)
		return []any{"ok"}, nil
	default:
		return nil, fmt.Errorf("greeter: unknown op %s", op)
	}
}

const greeterADL = `
system Hello {
  component Greeter {
    provide greet(name) -> (message)
    provide setGreeting(text) -> (status)
  }
}
`

func TestPublicAPIRoundTrip(t *testing.T) {
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &greeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	res, err := sys.Client("Greeter").Call(context.Background(), "greet", "world")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "Hello, world!" {
		t.Fatalf("res = %v", res)
	}

	m := sys.Introspect()
	if m.System != "Hello" || len(m.Components) != 1 {
		t.Fatalf("model = %+v", m)
	}
}

func TestPublicConfigHelpers(t *testing.T) {
	cfg, err := aas.ParseConfig(greeterADL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aas.CheckConfig(cfg); err != nil {
		t.Fatal(err)
	}
	cfg2, _ := aas.ParseConfig(greeterADL)
	cfg2.Components[0].Properties["cpu"] = "4"
	plan := aas.DiffConfigs(cfg, cfg2)
	if len(plan) != 1 {
		t.Fatalf("plan = %v", plan)
	}
}

// TestClientHandleSurvivesSwap: the compiled binding handle stays valid
// across a hot swap; the next call reaches the replacement implementation
// with the transferred state.
func TestClientHandleSurvivesSwap(t *testing.T) {
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &greeter{Greeting: "Hello"} })
	reg.MustRegister("Greeter2", "2.0", nil, func() any { return &greeter{Greeting: "Howdy"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	ctx := context.Background()
	g := sys.Client("Greeter")
	if res, err := g.Call(ctx, "greet", "world"); err != nil || res[0] != "Hello, world!" {
		t.Fatalf("pre-swap: %v %v", res, err)
	}
	entry, err := reg.Lookup("Greeter2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SwapImplementation("Greeter", entry, false); err != nil {
		t.Fatal(err)
	}
	if res, err := g.Call(ctx, "greet", "world"); err != nil || res[0] != "Howdy, world!" {
		t.Fatalf("post-swap through the same handle: %v %v", res, err)
	}
}

// TestClientHandleSurvivesRebind: a handle on the caller keeps working
// across a connector rebind, and its next mediated call routes to the new
// provider.
func TestClientHandleSurvivesRebind(t *testing.T) {
	const adlSrc = `
system RB {
  component Front {
    provide read(k) -> (v)
    require get(k) -> (v)
  }
  component A {
    provide get(k) -> (v)
  }
  component B {
    provide get(k) -> (v)
  }
  connector Link { kind rpc }
  bind Front.get -> A.get via Link
}
`
	reg := aas.NewRegistry()
	reg.MustRegister("Front", "1.0", nil, func() any { return &relay{} })
	reg.MustRegister("A", "1.0", nil, func() any { return tagged{"a"} })
	reg.MustRegister("B", "1.0", nil, func() any { return tagged{"b"} })
	sys, err := aas.Load(adlSrc, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	ctx := context.Background()
	front := sys.Client("Front")
	if res, err := front.Call(ctx, "read", "k"); err != nil || res[0] != "a" {
		t.Fatalf("pre-rebind: %v %v", res, err)
	}
	if err := sys.Rebind("Front", "get", "B"); err != nil {
		t.Fatal(err)
	}
	if res, err := front.Call(ctx, "read", "k"); err != nil || res[0] != "b" {
		t.Fatalf("post-rebind through the same handle: %v %v", res, err)
	}
}

// TestClientHandleSurvivesMigration: a handle obtained on one cluster node
// stays valid while its component live-migrates onto that node and away
// again — calls route locally or through the gateway as appropriate, with
// the deadline still honoured.
func TestClientHandleSurvivesMigration(t *testing.T) {
	mkReg := func(string) *registry.Registry {
		reg := aas.NewRegistry()
		reg.MustRegister("Echo", "1.0", nil, func() any { return tagged{"echo"} })
		return reg.Registry
	}
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL: `
system Mig {
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
	sys1, sys2 := h.System("n1"), h.System("n2")

	ctx := context.Background()
	echo := sys1.Client("Echo").With(aas.WithDeadline(5 * time.Second))
	if res, err := echo.Call(ctx, "get", "k"); err != nil || res[0] != "echo" {
		t.Fatalf("remote call: %v %v", res, err)
	}
	// Migrate onto the caller's node: the same handle now serves locally.
	if err := sys2.Migrate("Echo", netsim.NodeID("n1")); err != nil {
		t.Fatal(err)
	}
	if !sys1.HasComponent("Echo") {
		t.Fatal("Echo not hosted on n1 after migration")
	}
	if res, err := echo.Call(ctx, "get", "k"); err != nil || res[0] != "echo" {
		t.Fatalf("local call through the same handle: %v %v", res, err)
	}
	// And away again: back to the gateway path, still the same handle.
	if err := sys1.Migrate("Echo", netsim.NodeID("n2")); err != nil {
		t.Fatal(err)
	}
	if res, err := echo.Call(ctx, "get", "k"); err != nil || res[0] != "echo" {
		t.Fatalf("re-remoted call through the same handle: %v %v", res, err)
	}
}

// relay forwards read -> required get.
type relay struct{ caller aas.Caller }

func (r *relay) SetCaller(c aas.Caller) { r.caller = c }
func (r *relay) Handle(op string, args []any) ([]any, error) {
	return r.caller.Call("get", args...)
}

// tagged answers every get with its tag.
type tagged struct{ tag string }

func (c tagged) Handle(op string, args []any) ([]any, error) {
	return []any{c.tag}, nil
}

func TestPublicLoadErrors(t *testing.T) {
	if _, err := aas.Load("not adl at all", aas.Options{}); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid ADL but empty registry: assembly must fail.
	if _, err := aas.Load(greeterADL, aas.Options{}); err == nil {
		t.Fatal("missing implementations accepted")
	}
}
