package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/filters"
	"repro/internal/metaobj"
)

// startKVWithTraffic starts the KV fixture, seeds a key and launches n
// closed-loop callers split between the mediated chain (Front.fetch) and
// the direct component edge (Store.get). Every call error counts; the
// returned stop function halts the traffic and reports totals.
func startKVWithTraffic(t *testing.T, n int) (sys *System, calls *atomic.Int64, errs *atomic.Int64, stop func()) {
	t.Helper()
	sys = startKV(t, Options{})
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	calls = &atomic.Int64{}
	errs = &atomic.Int64{}
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				var err error
				if i%2 == 0 {
					_, err = sys.Client("Front").Call(context.Background(), "fetch", "k")
				} else {
					_, err = sys.Client("Store").Call(context.Background(), "get", "k")
				}
				calls.Add(1)
				if err != nil {
					errs.Add(1)
				}
			}
		}(i)
	}
	return sys, calls, errs, func() {
		close(stopCh)
		wg.Wait()
	}
}

// TestAspectInterchangeUnderTraffic churns AttachAspect/RemoveAspect while
// live traffic flows, asserting that every invocation sees exactly one
// pipeline generation: the attached aspect stamps each invocation with its
// generation tag in Before and verifies the same tag in After, so advice
// from two different compiled chains mixing on one message would be caught.
func TestAspectInterchangeUnderTraffic(t *testing.T) {
	sys, calls, errs, stop := startKVWithTraffic(t, 4)

	var torn, sawBefore atomic.Int64
	var pending sync.Map // *aspects.Invocation -> generation tag
	for i := 0; i < 200; i++ {
		tag := i
		a := aspects.Aspect{Name: "pair", Advice: []aspects.Advice{{
			Pointcut: aspects.Pointcut{Component: "Store", Op: "get*"},
			Before: func(inv *aspects.Invocation) error {
				sawBefore.Add(1)
				pending.Store(inv, tag)
				return nil
			},
			After: func(inv *aspects.Invocation, res any, err error) (any, error) {
				got, ok := pending.LoadAndDelete(inv)
				if !ok || got.(int) != tag {
					torn.Add(1)
				}
				return res, err
			},
		}}}
		if err := sys.AttachAspect(a); err != nil {
			t.Fatal(err)
		}
		// At least one call is guaranteed to run on this generation's chain.
		if _, err := sys.Client("Store").Call(context.Background(), "get", "k"); err != nil {
			t.Fatal(err)
		}
		if err := sys.EnableAspect("pair", false); err != nil {
			t.Fatal(err)
		}
		if err := sys.EnableAspect("pair", true); err != nil {
			t.Fatal(err)
		}
		if err := sys.RemoveAspect("pair"); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	if errs.Load() != 0 {
		t.Fatalf("%d/%d calls failed during aspect interchange", errs.Load(), calls.Load())
	}
	if torn.Load() != 0 {
		t.Fatalf("%d invocations saw advice from a torn pipeline", torn.Load())
	}
	if sawBefore.Load() == 0 {
		t.Fatal("the interchanged aspect never ran; test proved nothing")
	}
	leftover := 0
	pending.Range(func(any, any) bool { leftover++; return true })
	if leftover != 0 {
		t.Fatalf("%d invocations ran Before without After (torn chain)", leftover)
	}
}

// TestFilterInterchangeUnderTraffic swaps the mediating connector's whole
// input chain between self-consistent generations (a tagger and a verifier
// compiled as one unit) while mediated traffic flows: a message evaluated
// against a mixture of two generations would be detected by the verifier.
func TestFilterInterchangeUnderTraffic(t *testing.T) {
	sys, calls, errs, stop := startKVWithTraffic(t, 4)

	var torn, verified atomic.Int64
	var pending sync.Map // corr -> generation tag
	mkChain := func(tag int) []filters.Filter {
		return []filters.Filter{
			filters.Transform{FilterName: "tag", Match: filters.Matcher{Kind: bus.Request},
				Fn: func(m *bus.Message) { pending.Store(m.Corr, tag) }},
			filters.Transform{FilterName: "verify", Match: filters.Matcher{Kind: bus.Request},
				Fn: func(m *bus.Message) {
					got, ok := pending.LoadAndDelete(m.Corr)
					if !ok || got.(int) != tag {
						torn.Add(1)
					}
					verified.Add(1)
				}},
		}
	}
	if err := sys.ReplaceFilters("Front", "get", filters.Input, mkChain(0)...); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		if err := sys.ReplaceFilters("Front", "get", filters.Input, mkChain(i)...); err != nil {
			t.Fatal(err)
		}
		// At least one mediated call runs through this generation's chain.
		if _, err := sys.Client("Front").Call(context.Background(), "fetch", "k"); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	if errs.Load() != 0 {
		t.Fatalf("%d/%d calls failed during filter interchange", errs.Load(), calls.Load())
	}
	if torn.Load() != 0 {
		t.Fatalf("%d messages evaluated a torn filter chain", torn.Load())
	}
	if verified.Load() == 0 {
		t.Fatal("the interchanged filter chain never ran; test proved nothing")
	}
}

// TestMetaObjectInterchangeUnderTraffic composes and removes meta-object
// wrappers on the serving component while traffic flows: inserts revalidate
// the whole chain and publish one snapshot, so calls must keep succeeding
// and the wrapper must balance its enter/exit around every interaction.
func TestMetaObjectInterchangeUnderTraffic(t *testing.T) {
	sys, calls, errs, stop := startKVWithTraffic(t, 4)

	var entered, unbalanced atomic.Int64
	mk := func(name string) *metaobj.MetaObject {
		return &metaobj.MetaObject{
			Name:  name,
			Props: metaobj.Modificatory,
			Invoke: func(m *bus.Message, next func(*bus.Message) error) error {
				entered.Add(1)
				before := m.Corr
				err := next(m)
				if m.Corr != before {
					unbalanced.Add(1)
				}
				return err
			},
		}
	}
	for i := 0; i < 200; i++ {
		if err := sys.InsertMetaObject("Store", mk("audit")); err != nil {
			t.Fatal(err)
		}
		if err := sys.InsertMetaObject("Store", mk("trace")); err != nil {
			t.Fatal(err)
		}
		if order, err := sys.MetaObjectOrder("Store"); err != nil || len(order) != 2 {
			t.Fatalf("order=%v err=%v", order, err)
		}
		// At least one interaction runs through the composed chain.
		if _, err := sys.Client("Store").Call(context.Background(), "get", "k"); err != nil {
			t.Fatal(err)
		}
		if err := sys.RemoveMetaObject("Store", "trace"); err != nil {
			t.Fatal(err)
		}
		if err := sys.RemoveMetaObject("Store", "audit"); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	if errs.Load() != 0 {
		t.Fatalf("%d/%d calls failed during meta-object interchange", errs.Load(), calls.Load())
	}
	if unbalanced.Load() != 0 {
		t.Fatalf("%d interactions saw an inconsistent meta chain", unbalanced.Load())
	}
	if entered.Load() == 0 {
		t.Fatal("the interchanged wrappers never ran; test proved nothing")
	}
}

// TestCombinedInterchangeUnderTraffic drives all three mechanisms from
// separate goroutines at once — the full concurrent-interchange surface
// exercised under -race against live traffic.
func TestCombinedInterchangeUnderTraffic(t *testing.T) {
	sys, calls, errs, stop := startKVWithTraffic(t, 4)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			a := aspects.Aspect{Name: "churn-aspect", Advice: []aspects.Advice{{
				Pointcut: aspects.Pointcut{Component: "Store*"},
				Before:   func(*aspects.Invocation) error { return nil },
			}}}
			if err := sys.AttachAspect(a); err != nil {
				t.Error(err)
				return
			}
			if err := sys.RemoveAspect("churn-aspect"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			f := filters.Transform{FilterName: "churn-filter",
				Match: filters.Matcher{Op: "g*"}, Fn: func(*bus.Message) {}}
			if err := sys.AttachFilter("Front", "get", filters.Input, f); err != nil {
				t.Error(err)
				return
			}
			if err := sys.DetachFilter("Front", "get", filters.Input, "churn-filter"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			o := &metaobj.MetaObject{Name: "churn-meta", Props: metaobj.Modificatory,
				Invoke: func(m *bus.Message, next func(*bus.Message) error) error { return next(m) }}
			if err := sys.InsertMetaObject("Store", o); err != nil {
				t.Error(err)
				return
			}
			if err := sys.RemoveMetaObject("Store", "churn-meta"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	stop()

	if errs.Load() != 0 {
		t.Fatalf("%d/%d calls failed during combined interchange", errs.Load(), calls.Load())
	}
	if calls.Load() == 0 {
		t.Fatal("no traffic flowed")
	}
}

// TestAdaptationValidationAndEvents covers the attach-time validation
// surface (malformed globs fail loudly now) and the RAML observability of
// interchanges.
func TestAdaptationValidationAndEvents(t *testing.T) {
	sys := startKV(t, Options{})
	events, cancel := sys.Events().Subscribe(64)
	defer cancel()

	if err := sys.AttachAspect(aspects.Aspect{Name: "bad", Advice: []aspects.Advice{{
		Pointcut: aspects.Pointcut{Op: "a["},
	}}}); err == nil {
		t.Fatal("malformed pointcut should fail AttachAspect")
	}
	if err := sys.AttachFilter("Front", "get", filters.Input,
		filters.Error{FilterName: "bad", Match: filters.Matcher{Op: "["}, Reason: "x"}); err == nil {
		t.Fatal("malformed glob should fail AttachFilter")
	}
	if err := sys.AttachFilter("Front", "ghost", filters.Input,
		filters.Transform{FilterName: "f"}); err == nil {
		t.Fatal("unknown binding should fail AttachFilter")
	}
	if err := sys.DetachFilter("Front", "get", filters.Input, "ghost"); err == nil {
		t.Fatal("detaching an unattached filter should fail")
	}
	if err := sys.InsertMetaObject("Ghost", &metaobj.MetaObject{Name: "m",
		Invoke: func(m *bus.Message, next func(*bus.Message) error) error { return next(m) }}); err == nil {
		t.Fatal("unknown component should fail InsertMetaObject")
	}

	// A successful interchange of each mechanism reports on the stream.
	if err := sys.AttachAspect(aspects.Aspect{Name: "ok", Advice: []aspects.Advice{{
		Pointcut: aspects.Pointcut{Component: "Store"},
		Before:   func(*aspects.Invocation) error { return nil },
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachFilter("Front", "get", filters.Input,
		filters.Transform{FilterName: "ok", Fn: func(*bus.Message) {}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertMetaObject("Store", &metaobj.MetaObject{Name: "ok", Props: metaobj.Modificatory,
		Invoke: func(m *bus.Message, next func(*bus.Message) error) error { return next(m) }}); err != nil {
		t.Fatal(err)
	}
	adaptations := 0
	for len(events) > 0 {
		if e := <-events; e.Kind == EvAdaptation {
			adaptations++
		}
	}
	if adaptations != 3 {
		t.Fatalf("saw %d adaptation events, want 3", adaptations)
	}

	// The attached pipeline still serves correctly end to end.
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	if res, err := sys.Client("Front").Call(context.Background(), "fetch", "k"); err != nil || res[0] != "v" {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// TestWeaverBindingReleasedOnComponentRemoval ensures removed components
// stop following aspect interchanges (no binding leak): removing the
// component and then attaching an aspect must not panic or recompile the
// dead binding, and the system keeps serving.
func TestWeaverBindingReleasedOnComponentRemoval(t *testing.T) {
	sys := startKV(t, Options{})
	// Remove Front via reconfiguration to the Store-only configuration.
	cfg2 := `
system KV {
  interface StoreAPI v1.0 {
    op get(key) -> (value)
    op put(key, value) -> (status)
  }
  component Store {
    implements StoreAPI v1.0
    provide get(key) -> (value)
    provide put(key, value) -> (status)
    provide len() -> (count)
    property statefulness = "stateful"
  }
  connector Link { kind rpc }
}
`
	newCfg, err := adl.Parse(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Reconfigure(newCfg); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachAspect(aspects.Aspect{Name: "late", Advice: []aspects.Advice{{
		Before: func(*aspects.Invocation) error { return nil },
	}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client("Store").Call(context.Background(), "get", "k"); err != nil {
		t.Fatal(err)
	}
}

// TestMetaObjectObservesInvocationErrors pins the meta-chain error
// contract: the base of the chain returns the woven invocation's error, so
// wrappers can observe and translate failures, and the chain's final error
// is what the caller sees.
func TestMetaObjectObservesInvocationErrors(t *testing.T) {
	sys := startKV(t, Options{})
	var observed atomic.Int64
	if err := sys.InsertMetaObject("Store", &metaobj.MetaObject{
		Name: "translate", Props: metaobj.Modificatory,
		Invoke: func(m *bus.Message, next func(*bus.Message) error) error {
			if err := next(m); err != nil {
				observed.Add(1)
				return fmt.Errorf("translated: %v", err)
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Client("Store").Call(context.Background(), "get", "absent")
	if err == nil || !strings.Contains(err.Error(), "translated:") {
		t.Fatalf("wrapper did not observe and translate the invocation error: %v", err)
	}
	if observed.Load() == 0 {
		t.Fatal("wrapper never saw the invocation error")
	}
	// A wrapper may also suppress an error entirely.
	if err := sys.RemoveMetaObject("Store", "translate"); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertMetaObject("Store", &metaobj.MetaObject{
		Name: "suppress", Props: metaobj.Modificatory,
		Invoke: func(m *bus.Message, next func(*bus.Message) error) error {
			_ = next(m)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client("Store").Call(context.Background(), "get", "absent"); err != nil {
		t.Fatalf("wrapper should have suppressed the error, got %v", err)
	}
}
