// Parallel benchmarks for the sharded software-bus data plane (E13) and the
// sharded observation plane / region-scoped reconfiguration (E14): raw Send
// throughput across GOMAXPROCS, connector-mediated calls, handle-call
// fan-out, QoS recording and event emission from parallel workers, a mixed
// workload that keeps reconfiguring (pause / redirect / resume) while
// traffic flows, and traffic through an untouched region while a disjoint
// region reconfigures. Run with -cpu=1,2,4 to see scaling.
package aas_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	aas "repro"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/connector"
	"repro/internal/core"
	"repro/internal/filters"
	"repro/internal/qos"
)

// BenchmarkBusParallelSend measures the raw data plane: every worker owns a
// distinct (src, dst) pair, so all contention left is the bus's own shared
// state — the single global mutex before the refactor, sharded routes after.
func BenchmarkBusParallelSend(b *testing.B) {
	bb := bus.New()
	var id atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := id.Add(1)
		dst := bus.Address(fmt.Sprintf("dst-%d", n))
		ep, err := bb.Attach(dst, 4096)
		if err != nil {
			b.Error(err)
			return
		}
		m := bus.Message{Kind: bus.Event, Op: "tick",
			Src: bus.Address(fmt.Sprintf("src-%d", n)), Dst: dst}
		for pb.Next() {
			if err := bb.Send(m); err != nil {
				b.Error(err)
				return
			}
			if _, ok := ep.TryReceive(); !ok {
				b.Error("message lost")
				return
			}
		}
	})
}

// BenchmarkBusParallelSendSharedDst is the worst case for sharding: every
// worker hammers the same destination, so the per-address ordering lock is
// the ceiling.
func BenchmarkBusParallelSendSharedDst(b *testing.B) {
	bb := bus.New()
	ep, err := bb.Attach("hot", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	var id atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		src := bus.Address(fmt.Sprintf("src-%d", id.Add(1)))
		m := bus.Message{Kind: bus.Event, Op: "tick", Src: src, Dst: "hot"}
		for pb.Next() {
			if err := bb.Send(m); err != nil {
				b.Error(err)
				return
			}
			if _, ok := ep.TryReceive(); !ok {
				b.Error("message lost")
				return
			}
		}
	})
}

// BenchmarkConnectorParallelCall drives full connector-mediated round trips
// (client -> connector -> echo server -> client) from parallel clients.
func BenchmarkConnectorParallelCall(b *testing.B) {
	bb := bus.New()
	srv, err := bb.Attach("srv", 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := srv.Receive(ctx)
			if err != nil {
				return
			}
			_ = bb.Send(bus.Message{Kind: bus.Reply, Op: m.Op,
				Payload: connector.ReplyPayload{Results: []any{"v"}},
				Src:     "srv", Dst: m.Src, Corr: m.Corr})
		}
	}()
	conn, err := connector.New("cpar", adl.KindRPC, bb, []bus.Address{"srv"})
	if err != nil {
		b.Fatal(err)
	}
	conn.Start(ctx)
	defer func() {
		cancel()
		conn.Stop()
		<-done
	}()
	target := connector.Address("cpar")

	var id atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cli, err := bb.Attach(bus.Address(fmt.Sprintf("cli-%d", id.Add(1))), 1<<12)
		if err != nil {
			b.Error(err)
			return
		}
		var corr uint64
		for pb.Next() {
			corr++
			if err := bb.Send(bus.Message{Kind: bus.Request, Op: "get",
				Payload: connector.CallPayload{Args: []any{"k"}},
				Src:     cli.Addr(), Dst: target, Corr: corr}); err != nil {
				b.Error(err)
				return
			}
			for {
				m, err := cli.Receive(ctx)
				if err != nil {
					b.Error(err)
					return
				}
				if m.Kind == bus.Reply && m.Corr == corr {
					break
				}
			}
		}
	})
}

// BenchmarkSystemCallParallel measures the platform edge: concurrent user
// requests entering through a handle fetched by name and fanning out over
// the bus.
func BenchmarkSystemCallParallel(b *testing.B) {
	sys, _ := startBenchSystem(b)
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.Client("Store").Call(context.Background(), "get", "k"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSystemCallParallelDistinctComps is the call-path analogue of
// BenchmarkBusParallelSend: every worker owns its own target component, so
// any remaining contention is shared call-path state — System.mu and the
// client correlation mutex before the refactor, atomic snapshots and a
// sharded waiter table after. A single shared component (see
// BenchmarkSystemCallParallel) is bounded by its one mailbox and serve
// loop; distinct components must scale with GOMAXPROCS.
func BenchmarkSystemCallParallelDistinctComps(b *testing.B) {
	const comps = 8
	reg := aas.NewRegistry()
	src := "system Many {\n"
	for i := 0; i < comps; i++ {
		name := fmt.Sprintf("Store%d", i)
		reg.MustRegister(name, "1.0", nil, func() any { return newBenchKV(64) })
		src += "  component " + name + " {\n    provide get(key) -> (value)\n    provide put(key, value) -> (status)\n  }\n"
	}
	src += "}\n"
	sys, err := aas.Load(src, aas.Options{Registry: reg.Registry})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Stop)
	for i := 0; i < comps; i++ {
		if _, err := sys.Client(fmt.Sprintf("Store%d", i)).Call(context.Background(), "put", "k", "v"); err != nil {
			b.Fatal(err)
		}
	}
	var id atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		target := fmt.Sprintf("Store%d", id.Add(1)%comps)
		for pb.Next() {
			if _, err := sys.Client(target).Call(context.Background(), "get", "k"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkMonitorRecordParallel measures the observation data plane: every
// served request records latency and throughput samples, so Record must be
// lock-free and allocation-free. Before the sharded-ring refactor this was
// a global mutex plus a slice append/trim per sample.
func BenchmarkMonitorRecordParallel(b *testing.B) {
	m := qos.NewMonitor(clock.Real{}, 10*time.Second, 1<<14)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Record(qos.Latency, 0.001)
		}
	})
}

// BenchmarkEventHubEmitParallel measures RAML stream emission from parallel
// serve loops with one (fast) subscriber attached — copy-on-write
// subscriber snapshot plus striped history vs the former global mutex.
func BenchmarkEventHubEmitParallel(b *testing.B) {
	h := core.NewEventHub(1024)
	ch, cancel := h.Subscribe(1 << 16)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
		}
	}()
	e := core.Event{Kind: core.EvRequestServed, Component: "c", Detail: "op"}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Emit(e)
		}
	})
	cancel()
	<-done
}

// benchFront forwards every fetch through its required get service.
type benchFront struct{ caller aas.Caller }

func (f *benchFront) SetCaller(c aas.Caller) { f.caller = c }

func (f *benchFront) Handle(op string, args []any) ([]any, error) {
	if op != "fetch" {
		return nil, fmt.Errorf("benchFront: unknown op %s", op)
	}
	return f.caller.Call("get", args...)
}

// dualADL is two disjoint chains; the reconfiguration benchmark hammers
// chain A while chain B is repeatedly reconfigured.
const dualADL = `
system Dual {
  component FrontA {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component StoreA {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
  }
  component StoreB {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
  }
  connector LinkA { kind rpc }
  bind FrontA.get -> StoreA.get via LinkA
}
`

// BenchmarkRegionReconfigDisjointTraffic measures E14 at micro scale: the
// per-call latency of traffic through an untouched region (FrontA->StoreA)
// while a disjoint region (StoreB) is continuously mid-Reconfigure. Compare
// with BenchmarkSystemCallParallel for the undisturbed baseline.
func BenchmarkRegionReconfigDisjointTraffic(b *testing.B) {
	reg := aas.NewRegistry()
	reg.MustRegister("FrontA", "1.0", nil, func() any { return &benchFront{} })
	reg.MustRegister("StoreA", "1.0", nil, func() any { return newBenchKV(64) })
	reg.MustRegister("StoreB", "1.0", nil, func() any { return newBenchKV(64) })
	sys, err := aas.Load(dualADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Stop)
	if _, err := sys.Client("StoreA").Call(context.Background(), "put", "k", "v"); err != nil {
		b.Fatal(err)
	}

	cfgB, err := adl.Parse(strings.Replace(dualADL, "component StoreB {",
		"component StoreB {\n    property tier = \"v2\"", 1))
	if err != nil {
		b.Fatal(err)
	}
	cfgA, err := adl.Parse(dualADL)
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	var reconfigs atomic.Uint64
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := cfgB
			if i%2 == 1 {
				cfg = cfgA
			}
			if _, err := sys.Reconfigure(cfg); err != nil {
				b.Error(err)
				return
			}
			reconfigs.Add(1)
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.Client("FrontA").Call(context.Background(), "fetch", "k"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-churnDone
	b.ReportMetric(float64(reconfigs.Load()), "reconfigs")
}

// BenchmarkBusMixedReconfigUnderLoad keeps the control plane busy while the
// data plane streams: each worker periodically pauses its destination (so
// traffic is parked), installs and removes a redirect rule, resumes (so the
// parked run is flushed in order), and verifies nothing was lost.
func BenchmarkBusMixedReconfigUnderLoad(b *testing.B) {
	bb := bus.New()
	var id atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		n := id.Add(1)
		dst := bus.Address(fmt.Sprintf("mix-dst-%d", n))
		alias := bus.Address(fmt.Sprintf("mix-alias-%d", n))
		ep, err := bb.Attach(dst, 1<<14)
		if err != nil {
			b.Error(err)
			return
		}
		m := bus.Message{Kind: bus.Event, Op: "tick",
			Src: bus.Address(fmt.Sprintf("mix-src-%d", n)), Dst: dst}
		var i, sent, recv uint64
		for pb.Next() {
			i++
			switch {
			case i%512 == 0:
				bb.Pause(dst)
				if err := bb.Send(m); err != nil { // parked on the paused channel
					b.Error(err)
					return
				}
				sent++
				if err := bb.Redirect(alias, dst); err != nil {
					b.Error(err)
					return
				}
				via := m
				via.Dst = alias // exercises redirect resolution
				if err := bb.Send(via); err != nil {
					b.Error(err)
					return
				}
				sent++
				if err := bb.Redirect(alias, ""); err != nil {
					b.Error(err)
					return
				}
				if _, err := bb.Resume(dst); err != nil {
					b.Error(err)
					return
				}
			default:
				if err := bb.Send(m); err != nil {
					b.Error(err)
					return
				}
				sent++
			}
			if i%256 == 0 {
				for {
					if _, ok := ep.TryReceive(); !ok {
						break
					}
					recv++
				}
			}
		}
		for {
			m, ok := ep.TryReceive()
			if !ok {
				break
			}
			_ = m
			recv++
		}
		if recv != sent {
			b.Errorf("lost traffic during reconfiguration: sent=%d received=%d", sent, recv)
		}
	})
}

// ---- Adaptation-pipeline benchmarks (compiled per-binding pipelines) ----
//
// These back the acceptance criterion that a connector-mediated call with
// >=2 filters and >=2 aspects attached takes no lock and performs zero
// allocations inside the filter/aspect evaluation stages.

// BenchmarkFilterEvalParallel measures the filter stage alone: a chain of
// four filters (two glob matchers, two literal) evaluated from parallel
// workers. Before the compiled-pipeline refactor every Eval took the set's
// RWMutex and re-parsed each glob with path.Match; after, it is one atomic
// snapshot load over precompiled matchers.
func BenchmarkFilterEvalParallel(b *testing.B) {
	var sink atomic.Uint64
	var set filters.Set
	for _, f := range []filters.Filter{
		filters.Transform{FilterName: "glob1",
			Match: filters.Matcher{Op: "get*"}, Fn: func(*bus.Message) { sink.Add(1) }},
		filters.Transform{FilterName: "glob2",
			Match: filters.Matcher{Op: "g?t*", Src: "cli*"}, Fn: func(*bus.Message) { sink.Add(1) }},
		filters.Transform{FilterName: "lit",
			Match: filters.Matcher{Op: "get"}, Fn: func(*bus.Message) { sink.Add(1) }},
		filters.Transform{FilterName: "any",
			Fn: func(*bus.Message) { sink.Add(1) }},
	} {
		if err := set.Attach(filters.Input, f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		m := &bus.Message{Kind: bus.Request, Op: "get", Src: "cli-1"}
		for pb.Next() {
			if r := set.Eval(filters.Input, m); r.Outcome != filters.Delivered {
				b.Error("unexpected outcome")
				return
			}
		}
	})
}

// BenchmarkAspectWovenInvokeParallel measures the aspect stage alone: a
// handler woven with two enabled aspects (glob pointcuts) invoked from
// parallel workers. Before the refactor every invocation resolved matching
// advice under the weaver's RWMutex and allocated the advice slice plus one
// closure per chain link; after, the chain is fused at interchange time.
func BenchmarkAspectWovenInvokeParallel(b *testing.B) {
	w := aspects.NewWeaver()
	var sink atomic.Uint64
	if err := w.Attach(aspects.Aspect{Name: "audit", Advice: []aspects.Advice{{
		Pointcut: aspects.Pointcut{Component: "Store*", Op: "get*"},
		Before:   func(*aspects.Invocation) error { sink.Add(1); return nil },
	}}}); err != nil {
		b.Fatal(err)
	}
	if err := w.Attach(aspects.Aspect{Name: "shape", Advice: []aspects.Advice{{
		Pointcut: aspects.Pointcut{Op: "*"},
		After: func(_ *aspects.Invocation, res any, err error) (any, error) {
			sink.Add(1)
			return res, err
		},
	}}}); err != nil {
		b.Fatal(err)
	}
	h := w.Weave(func(inv *aspects.Invocation) (any, error) { return inv.Args, nil })
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		inv := &aspects.Invocation{Component: "Store1", Op: "get", Args: 7}
		for pb.Next() {
			if _, err := h(inv); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// pipelineADL is one mediated chain used by the full-path pipeline
// benchmarks: Front.fetch -> (connector Link) -> Store.get.
const pipelineADL = `
system Pipe {
  component Front {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component Store {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
  }
  connector Link { kind rpc }
  bind Front.get -> Store.get via Link
}
`

func startPipelineSystem(b *testing.B) *aas.System {
	b.Helper()
	reg := aas.NewRegistry()
	reg.MustRegister("Front", "1.0", nil, func() any { return &benchFront{} })
	reg.MustRegister("Store", "1.0", nil, func() any { return newBenchKV(64) })
	sys, err := aas.Load(pipelineADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Stop)
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	return sys
}

// attachPipeline loads the mediated chain with two input filters (one glob,
// one literal matcher) on the connector and two aspects on the weaver — the
// acceptance-criterion configuration.
func attachPipeline(b *testing.B, sys *aas.System) {
	b.Helper()
	conn, err := sys.Connector("Front", "get")
	if err != nil {
		b.Fatal(err)
	}
	var sink atomic.Uint64
	if err := conn.Filters().Attach(filters.Input, filters.Transform{FilterName: "tag",
		Match: filters.Matcher{Op: "g*"}, Fn: func(*bus.Message) { sink.Add(1) }}); err != nil {
		b.Fatal(err)
	}
	if err := conn.Filters().Attach(filters.Input, filters.Transform{FilterName: "count",
		Match: filters.Matcher{Op: "get"}, Fn: func(*bus.Message) { sink.Add(1) }}); err != nil {
		b.Fatal(err)
	}
	if err := sys.Weaver().Attach(aspects.Aspect{Name: "audit", Advice: []aspects.Advice{{
		Pointcut: aspects.Pointcut{Component: "Store*", Op: "get*"},
		Before:   func(*aspects.Invocation) error { sink.Add(1); return nil },
	}}}); err != nil {
		b.Fatal(err)
	}
	if err := sys.Weaver().Attach(aspects.Aspect{Name: "shape", Advice: []aspects.Advice{{
		Pointcut: aspects.Pointcut{Op: "*"},
		After: func(_ *aspects.Invocation, res any, err error) (any, error) {
			sink.Add(1)
			return res, err
		},
	}}}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelineCallParallel drives the full adaptation hot path in
// parallel: external call -> connector (2 filters) -> component woven with 2
// aspects -> reply. Compare with BenchmarkPipelineCallBare for the overhead
// of the loaded pipeline.
func BenchmarkPipelineCallParallel(b *testing.B) {
	sys := startPipelineSystem(b)
	attachPipeline(b, sys)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.Client("Front").Call(context.Background(), "fetch", "k"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPipelineCallBare is the same mediated chain with no filters and
// no aspects attached — the empty-pipeline baseline.
func BenchmarkPipelineCallBare(b *testing.B) {
	sys := startPipelineSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.Client("Front").Call(context.Background(), "fetch", "k"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPipelineInterchangeUnderLoad keeps the adaptation control plane
// busy while the data plane serves: a churn goroutine toggles one aspect and
// swaps one connector filter in a loop (each toggle recompiles and atomically
// republishes the affected pipelines) while parallel callers drive the
// mediated chain. The reported reconfigs metric counts completed interchange
// cycles.
func BenchmarkPipelineInterchangeUnderLoad(b *testing.B) {
	sys := startPipelineSystem(b)
	attachPipeline(b, sys)
	conn, err := sys.Connector("Front", "get")
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	var cycles atomic.Uint64
	go func() {
		defer close(churnDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sys.Weaver().SetEnabled("audit", false); err != nil {
				b.Error(err)
				return
			}
			if err := sys.Weaver().SetEnabled("audit", true); err != nil {
				b.Error(err)
				return
			}
			if err := conn.Filters().Attach(filters.Input, filters.Transform{
				FilterName: "churn", Match: filters.Matcher{Op: "g*"},
				Fn: func(*bus.Message) {}}); err != nil {
				b.Error(err)
				return
			}
			conn.Filters().Detach(filters.Input, "churn")
			cycles.Add(1)
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.Client("Front").Call(context.Background(), "fetch", "k"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-churnDone
	b.ReportMetric(float64(cycles.Load()), "interchanges")
}
