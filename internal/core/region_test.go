package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/registry"
)

// dualSystem holds two disjoint chains: FrontA -> StoreA and FrontB ->
// StoreB. Reconfiguring one chain must leave the other serving.
const dualSystem = `
system Dual {
  component FrontA {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component StoreA {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
  }
  component FrontB {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component StoreB {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
    property statefulness = "stateful"
  }
  connector LinkA { kind rpc }
  connector LinkB { kind rpc }
  bind FrontA.get -> StoreA.get via LinkA
  bind FrontB.get -> StoreB.get via LinkB
}
`

// gatedKV blocks get operations until its gate closes, so a test can hold a
// region mid-quiescence for as long as it needs.
type gatedKV struct {
	*kvStore
	gate    chan struct{}
	entered chan struct{}
}

func (g *gatedKV) Handle(op string, args []any) ([]any, error) {
	if op == "get" {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.gate
	}
	return g.kvStore.Handle(op, args)
}

func TestReconfigureRegionScopedDisjointTrafficProceeds(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)

	reg := &registry.Registry{}
	must := func(e registry.Entry) {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	must(registry.Entry{Name: "FrontA", Version: registry.Version{Major: 1}, New: func() any { return &frontend{} }})
	must(registry.Entry{Name: "FrontB", Version: registry.Version{Major: 1}, New: func() any { return &frontend{} }})
	must(registry.Entry{Name: "StoreA", Version: registry.Version{Major: 1}, New: func() any { return newKV("a1") }})
	must(registry.Entry{Name: "StoreB", Version: registry.Version{Major: 1},
		New: func() any { return &gatedKV{kvStore: newKV("b1"), gate: gate, entered: entered} }})

	cfg, err := adl.Parse(dualSystem)
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

	if _, err := sys.Client("StoreA").Call(context.Background(), "put", "k", "va"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client("StoreB").Call(context.Background(), "put", "k", "vb"); err != nil {
		t.Fatal(err)
	}

	// Occupy StoreB so the region cannot quiesce until the gate opens.
	inflight := make(chan error, 1)
	go func() {
		_, err := sys.Client("FrontB").Call(context.Background(), "fetch", "k")
		inflight <- err
	}()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call never reached StoreB")
	}

	// Reconfigure StoreB's chain: a property change makes the diff a
	// ModifyComponent on StoreB. Register the replacement implementation
	// first (Lookup takes the latest version).
	must(registry.Entry{Name: "StoreB", Version: registry.Version{Major: 1, Minor: 1},
		New: func() any { return &gatedKV{kvStore: newKV("b2"), gate: gate, entered: entered} }})
	newSrc := strings.Replace(dualSystem, "component StoreB {",
		"component StoreB {\n    property tier = \"v2\"", 1)
	newCfg, err := adl.Parse(newSrc)
	if err != nil {
		t.Fatal(err)
	}

	recfg := make(chan struct {
		rep ReconfigReport
		err error
	}, 1)
	go func() {
		rep, err := sys.Reconfigure(newCfg)
		recfg <- struct {
			rep ReconfigReport
			err error
		}{rep, err}
	}()

	// Wait until the region is actually mid-quiescence: StoreB's container
	// enters Quiescing and stays there while the gated call is in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var state string
		for _, c := range sys.Introspect().Components {
			if c.Name == "StoreB" {
				state = c.Lifecycle
			}
		}
		if state == "quiescing" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("StoreB never reached quiescence (state %q)", state)
		}
		time.Sleep(time.Millisecond)
	}

	// The untouched region must keep serving while StoreB is mid-reconfig.
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if res, err := sys.Client("FrontA").Call(context.Background(), "fetch", "k"); err != nil {
					errs <- err
				} else if res[0] != "va" {
					t.Errorf("res = %v", res)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("call through untouched region failed during reconfiguration: %v", err)
	}

	// A call into the reconfiguring region parks and completes after the
	// region resumes, served by the new implementation.
	parked := make(chan []any, 1)
	go func() {
		res, err := sys.Client("FrontB").Call(context.Background(), "fetch", "k")
		if err != nil {
			t.Error(err)
			parked <- nil
			return
		}
		parked <- res
	}()

	close(gate) // release the in-flight call; quiescence completes
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight call across reconfiguration failed: %v", err)
	}
	out := <-recfg
	if out.err != nil {
		t.Fatalf("reconfigure: %v (plan %v)", out.err, out.rep.Plan)
	}
	if out.rep.RolledBack || out.rep.Steps != 1 {
		t.Fatalf("report = %+v", out.rep)
	}
	if len(out.rep.Region) != 1 || out.rep.Region[0] != "StoreB" {
		t.Fatalf("region = %v, want exactly [StoreB]", out.rep.Region)
	}

	select {
	case res := <-parked:
		if res == nil {
			t.Fatal("parked call failed")
		}
		if res[0] != "vb" || res[1] != "b2" {
			t.Fatalf("parked call res = %v, want state kept and new impl tag b2", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call parked at the region edge never completed after resume")
	}
}

// TestRegionComputation checks the region derivation directly: named
// components, binding endpoints, and caller-first ordering.
func TestRegionComputation(t *testing.T) {
	oldCfg, err := adl.Parse(dualSystem)
	if err != nil {
		t.Fatal(err)
	}
	newSrc := strings.Replace(dualSystem, "bind FrontB.get -> StoreB.get via LinkB", "", 1)
	newCfg, err := adl.Parse(newSrc)
	if err != nil {
		t.Fatal(err)
	}
	plan := adl.Diff(oldCfg, newCfg)
	r := computeRegion(oldCfg, newCfg, plan)
	if !r.covers("FrontB") || !r.covers("StoreB") {
		t.Fatalf("region %v must cover both endpoints of the removed binding", r.comps)
	}
	if r.covers("FrontA") || r.covers("StoreA") {
		t.Fatalf("region %v leaked into the untouched chain", r.comps)
	}
	// Caller-first: FrontB quiesces before StoreB.
	var fi, si int
	for i, n := range r.comps {
		if n == "FrontB" {
			fi = i
		}
		if n == "StoreB" {
			si = i
		}
	}
	if fi > si {
		t.Fatalf("quiesce order %v, want caller FrontB before callee StoreB", r.comps)
	}
}
