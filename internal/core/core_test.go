package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/qos"
	"repro/internal/registry"
)

// ---- test components -------------------------------------------------------

// kvStore is a stateful component with snapshot support.
type kvStore struct {
	mu   sync.Mutex
	Data map[string]string
	Tag  string // identifies the implementation version in replies
}

func newKV(tag string) *kvStore { return &kvStore{Data: map[string]string{}, Tag: tag} }

func (k *kvStore) Handle(op string, args []any) ([]any, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch op {
	case "put":
		k.Data[args[0].(string)] = args[1].(string)
		return []any{"ok"}, nil
	case "get":
		v, ok := k.Data[args[0].(string)]
		if !ok {
			return nil, fmt.Errorf("kv: missing key %v", args[0])
		}
		return []any{v, k.Tag}, nil
	case "len":
		return []any{len(k.Data)}, nil
	default:
		return nil, fmt.Errorf("kv: unknown op %s", op)
	}
}

func (k *kvStore) Snapshot() ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return json.Marshal(k.Data)
}

func (k *kvStore) Restore(b []byte) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return json.Unmarshal(b, &k.Data)
}

// frontend calls through to its required "get" service.
type frontend struct {
	caller Caller
}

func (f *frontend) SetCaller(c Caller) { f.caller = c }

func (f *frontend) Handle(op string, args []any) ([]any, error) {
	switch op {
	case "fetch":
		return f.caller.Call("get", args...)
	default:
		return nil, fmt.Errorf("frontend: unknown op %s", op)
	}
}

// ---- fixtures ---------------------------------------------------------------

const kvSystem = `
system KV {
  interface StoreAPI v1.0 {
    op get(key) -> (value)
    op put(key, value) -> (status)
  }
  component Front {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component Store {
    implements StoreAPI v1.0
    provide get(key) -> (value)
    provide put(key, value) -> (status)
    provide len() -> (count)
    property statefulness = "stateful"
  }
  connector Link { kind rpc }
  bind Front.get -> Store.get via Link
}
`

func storeIface() registry.Interface {
	return registry.Interface{Name: "StoreAPI", Version: registry.Version{Major: 1},
		Ops: []registry.Signature{
			{Name: "get", Params: []registry.TypeName{"key"}, Results: []registry.TypeName{"value"}},
			{Name: "put", Params: []registry.TypeName{"key", "value"}, Results: []registry.TypeName{"status"}},
		}}
}

func kvRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := &registry.Registry{}
	must := func(e registry.Entry) {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	must(registry.Entry{Name: "Store", Version: registry.Version{Major: 1},
		Provides: storeIface(), New: func() any { return newKV("v1") }})
	must(registry.Entry{Name: "Front", Version: registry.Version{Major: 1},
		New: func() any { return &frontend{} }})
	return reg
}

func startKV(t *testing.T, opts Options) *System {
	t.Helper()
	cfg, err := adl.Parse(kvSystem)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Registry == nil {
		opts.Registry = kvRegistry(t)
	}
	sys, err := NewSystem(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

// ---- tests ------------------------------------------------------------------

func TestEndToEndCallThroughConnector(t *testing.T) {
	sys := startKV(t, Options{})
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Client("Front").Call(context.Background(), "fetch", "k")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "v" || res[1] != "v1" {
		t.Fatalf("res = %v", res)
	}
}

func TestCallUnknownComponent(t *testing.T) {
	sys := startKV(t, Options{})
	if _, err := sys.Client("Ghost").Call(context.Background(), "x"); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("err = %v", err)
	}
}

func TestComponentErrorPropagates(t *testing.T) {
	sys := startKV(t, Options{})
	_, err := sys.Client("Front").Call(context.Background(), "fetch", "missing")
	if err == nil || !strings.Contains(err.Error(), "missing key") {
		t.Fatalf("err = %v", err)
	}
}

func TestIntrospection(t *testing.T) {
	sys := startKV(t, Options{})
	_, _ = sys.Client("Store").Call(context.Background(), "put", "k", "v")
	_, _ = sys.Client("Front").Call(context.Background(), "fetch", "k")
	m := sys.Introspect()
	if m.System != "KV" || len(m.Components) != 2 || len(m.Connectors) != 1 {
		t.Fatalf("model = %+v", m)
	}
	var front ComponentInfo
	for _, c := range m.Components {
		if c.Name == "Front" {
			front = c
		}
	}
	if front.Calls != 1 || front.Lifecycle != "active" {
		t.Fatalf("front = %+v", front)
	}
	if front.Routes["get"] == "" {
		t.Fatal("route missing")
	}
	if m.Connectors[0].Stats.Mediated != 1 {
		t.Fatalf("connector stats = %+v", m.Connectors[0].Stats)
	}
	if _, ok := m.Metrics["latency.mean"]; !ok {
		t.Fatal("metrics missing latency")
	}
}

func TestHotSwapStrongKeepsState(t *testing.T) {
	reg := kvRegistry(t)
	if err := reg.Register(registry.Entry{Name: "Store", Version: registry.Version{Major: 1, Minor: 1},
		Provides: storeIface(), New: func() any { return newKV("v2") }}); err != nil {
		t.Fatal(err)
	}
	sys := startKV(t, Options{Registry: reg})
	for i := 0; i < 10; i++ {
		if _, err := sys.Client("Store").Call(context.Background(), "put", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	entry, err := reg.LookupVersion("Store", registry.Version{Major: 1, Minor: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.SwapImplementation("Store", entry, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StateBytes == 0 {
		t.Error("strong swap should report transferred state size")
	}
	res, err := sys.Client("Front").Call(context.Background(), "fetch", "k3")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "v" || res[1] != "v2" {
		t.Fatalf("after swap res = %v (want state kept, new impl tag)", res)
	}
	n, err := sys.Client("Store").Call(context.Background(), "len")
	if err != nil || n[0].(int) != 10 {
		t.Fatalf("len = %v err=%v", n, err)
	}
	if len(sys.Events().History(EvSwap)) != 1 {
		t.Error("swap event missing")
	}
}

func TestHotSwapUnderLoadNoLostCalls(t *testing.T) {
	// E4: calls issued continuously across a swap must all succeed or fail
	// crisply — none may hang or be silently dropped.
	reg := kvRegistry(t)
	if err := reg.Register(registry.Entry{Name: "Store", Version: registry.Version{Major: 1, Minor: 1},
		Provides: storeIface(), New: func() any { return newKV("v2") }}); err != nil {
		t.Fatal(err)
	}
	sys := startKV(t, Options{Registry: reg})
	_, _ = sys.Client("Store").Call(context.Background(), "put", "k", "v")

	const callers = 4
	const perCaller = 200
	var wg sync.WaitGroup
	errs := make(chan error, callers*perCaller)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := sys.Client("Front").Call(context.Background(), "fetch", "k"); err != nil {
					errs <- err
				}
			}
		}()
	}
	entry, _ := reg.LookupVersion("Store", registry.Version{Major: 1, Minor: 1})
	time.Sleep(5 * time.Millisecond)
	rep, err := sys.SwapImplementation("Store", entry, true)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("call failed across swap: %v", err)
	}
	t.Logf("swap blackout=%v held=%d", rep.Blackout, rep.HeldMessages)
}

func TestSwapComplianceGate(t *testing.T) {
	reg := kvRegistry(t)
	// An implementation that drops the "put" op: not compliant.
	broken := registry.Interface{Name: "StoreAPI", Version: registry.Version{Major: 2},
		Ops: []registry.Signature{{Name: "get", Params: []registry.TypeName{"key"},
			Results: []registry.TypeName{"value"}}}}
	if err := reg.Register(registry.Entry{Name: "BrokenStore", Version: registry.Version{Major: 2},
		Provides: broken, New: func() any { return newKV("broken") }}); err != nil {
		t.Fatal(err)
	}
	sys := startKV(t, Options{Registry: reg})
	entry, _ := reg.Lookup("BrokenStore")
	if _, err := sys.SwapImplementation("Store", entry, false); err == nil {
		t.Fatal("non-compliant swap accepted")
	}
}

func TestRebind(t *testing.T) {
	// Extend the system with a second store and rebind the frontend.
	src := strings.Replace(kvSystem, "bind Front.get -> Store.get via Link",
		"component Store2 {\n    provide get(key) -> (value)\n    provide put(key, value) -> (status)\n  }\n  bind Front.get -> Store.get via Link", 1)
	cfg, err := adl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reg := kvRegistry(t)
	if err := reg.Register(registry.Entry{Name: "Store2", Version: registry.Version{Major: 1},
		New: func() any {
			kv := newKV("second")
			kv.Data["k"] = "from-store2"
			return kv
		}}); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	_, _ = sys.Client("Store").Call(context.Background(), "put", "k", "from-store1")
	res, _ := sys.Client("Front").Call(context.Background(), "fetch", "k")
	if res[0] != "from-store1" {
		t.Fatalf("res = %v", res)
	}
	if err := sys.Rebind("Front", "get", "Store2"); err != nil {
		t.Fatal(err)
	}
	res, err = sys.Client("Front").Call(context.Background(), "fetch", "k")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "from-store2" {
		t.Fatalf("after rebind res = %v", res)
	}
	if err := sys.Rebind("Front", "get", "Ghost"); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("err = %v", err)
	}
	if err := sys.Rebind("Front", "nosuch", "Store2"); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("err = %v", err)
	}
}

func TestAspectWeavingAtRuntime(t *testing.T) {
	sys := startKV(t, Options{})
	var mu sync.Mutex
	count := 0
	err := sys.Weaver().Attach(aspects.Aspect{Name: "audit", Advice: []aspects.Advice{{
		Pointcut: aspects.Pointcut{Component: "Store"},
		Before: func(*aspects.Invocation) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = sys.Client("Store").Call(context.Background(), "put", "k", "v")
	_, _ = sys.Client("Front").Call(context.Background(), "fetch", "k") // hits Store through the connector
	mu.Lock()
	got := count
	mu.Unlock()
	if got != 2 {
		t.Fatalf("aspect saw %d Store invocations, want 2", got)
	}
}

func TestEventStream(t *testing.T) {
	sys := startKV(t, Options{})
	ch, cancel := sys.Events().Subscribe(64)
	defer cancel()
	_, _ = sys.Client("Store").Call(context.Background(), "put", "k", "v")
	deadline := time.After(2 * time.Second)
	for {
		select {
		case e := <-ch:
			if e.Kind == EvRequestServed && e.Component == "Store" {
				return
			}
		case <-deadline:
			t.Fatal("no request-served event observed")
		}
	}
}

func TestTriggersCriteriaBased(t *testing.T) {
	sys := startKV(t, Options{})
	fired := make(chan struct{}, 1)
	err := sys.AddTrigger(TriggerRule{
		Name: "latency-alarm",
		When: func(m map[string]float64) bool { return m["latency.mean"] >= 0 }, // always
		Action: func(*System) error {
			select {
			case fired <- struct{}{}:
			default:
			}
			return nil
		},
		Cooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = sys.Client("Store").Call(context.Background(), "put", "k", "v")
	sys.StartTriggers(10 * time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("criteria trigger never fired")
	}
	// Cooldown: no second firing.
	select {
	case <-fired:
		t.Fatal("cooldown ignored")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestEventTriggerDurraStyle(t *testing.T) {
	sys := startKV(t, Options{})
	recovered := make(chan string, 1)
	err := sys.AddEventTrigger(EventTrigger{
		Name: "error-recovery",
		Kind: EvRequestFailed,
		Action: func(_ *System, e Event) error {
			select {
			case recovered <- e.Component:
			default:
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = sys.Client("Store").Call(context.Background(), "get", "missing") // fails
	select {
	case comp := <-recovered:
		if comp != "Store" {
			t.Fatalf("recovered component = %s", comp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event trigger never fired")
	}
}

func TestWatchContractEmitsViolations(t *testing.T) {
	sys := startKV(t, Options{})
	// Impossible bound: any latency violates.
	err := sys.WatchContract(qos.Contract{Name: "impossible", Bounds: []qos.Bound{
		{Dimension: qos.Latency, Stat: qos.Mean, Limit: -1, Upper: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = sys.Client("Store").Call(context.Background(), "put", "k", "v")
	sys.StartTriggers(5 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(sys.Events().History(EvQoSViolation)) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no QoS violation event")
}

func TestReconfigureAddRemoveComponent(t *testing.T) {
	reg := kvRegistry(t)
	if err := reg.Register(registry.Entry{Name: "Cache", Version: registry.Version{Major: 1},
		New: func() any { return newKV("cache") }}); err != nil {
		t.Fatal(err)
	}
	sys := startKV(t, Options{Registry: reg})

	newSrc := strings.Replace(kvSystem, "component Store {",
		"component Cache {\n    provide get(key) -> (value)\n    provide put(key, value) -> (status)\n  }\n  component Store {", 1)
	newCfg, err := adl.Parse(newSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Reconfigure(newCfg)
	if err != nil {
		t.Fatalf("reconfigure: %v (plan %v)", err, rep.Plan)
	}
	if rep.Steps != 1 || rep.RolledBack {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := sys.Client("Cache").Call(context.Background(), "put", "a", "b"); err != nil {
		t.Fatalf("new component not serving: %v", err)
	}

	// Now remove it again.
	oldCfg, _ := adl.Parse(kvSystem)
	if _, err := sys.Reconfigure(oldCfg); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client("Cache").Call(context.Background(), "put", "a", "b"); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("removed component still serving: %v", err)
	}
	if len(sys.Events().History(EvReconfigCommitted)) != 2 {
		t.Error("expected two committed reconfigurations")
	}
}

func TestReconfigureGuardRollsBack(t *testing.T) {
	reg := kvRegistry(t)
	if err := reg.Register(registry.Entry{Name: "Cache", Version: registry.Version{Major: 1},
		New: func() any { return newKV("cache") }}); err != nil {
		t.Fatal(err)
	}
	sys := startKV(t, Options{Registry: reg})
	sys.AddGuard(func(*System) error { return errors.New("non-regression check failed") })

	newSrc := strings.Replace(kvSystem, "component Store {",
		"component Cache {\n    provide get(key) -> (value)\n  }\n  component Store {", 1)
	newCfg, err := adl.Parse(newSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Reconfigure(newCfg)
	if !errors.Is(err, ErrReconfigFailed) {
		t.Fatalf("err = %v", err)
	}
	// The failure names the guard, not a plan step.
	if want := "core: reconfiguration failed: guard: non-regression check failed"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if h := sys.Events().History(EvReconfigRolledBack); len(h) != 1 || h[0].Detail != "guard: non-regression check failed" {
		t.Errorf("rolled-back events %+v, want one naming the guard", h)
	}
	// The added component must be gone (rolled back).
	if _, err := sys.Client("Cache").Call(context.Background(), "put", "a", "b"); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("rollback incomplete: %v", err)
	}
	// The original system still works.
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureRejectsInvalidConfig(t *testing.T) {
	sys := startKV(t, Options{})
	bad, err := adl.Parse(`system KV { bind A.x -> B.y via C }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Reconfigure(bad); !errors.Is(err, ErrReconfigFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestStartStopIdempotence(t *testing.T) {
	cfg, _ := adl.Parse(kvSystem)
	sys, err := NewSystem(cfg, Options{Registry: kvRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("err = %v", err)
	}
	sys.Stop()
	sys.Stop() // second stop is a no-op
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	cfg, _ := adl.Parse(kvSystem)
	if _, err := NewSystem(cfg, Options{}); err == nil {
		t.Fatal("missing registry accepted")
	}
	// A registry without the needed components fails assembly.
	if _, err := NewSystem(cfg, Options{Registry: &registry.Registry{}}); err == nil {
		t.Fatal("empty registry accepted")
	}
}
