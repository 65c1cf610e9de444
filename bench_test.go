// Micro-benchmarks backing the experiment index in EXPERIMENTS.md; one
// Benchmark family per experiment (E2–E12; E1 is the quickstart example).
// The scenario-level versions with full tables live in cmd/aasbench.
package aas_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	aas "repro"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/control"
	"repro/internal/deploy"
	"repro/internal/filters"
	"repro/internal/flo"
	"repro/internal/inject"
	"repro/internal/lts"
	"repro/internal/metaobj"
	"repro/internal/netsim"
	"repro/internal/registry"
)

// ---- E2: connector overhead -------------------------------------------------

// benchBus builds a bus with an echo server and returns (bus, client
// endpoint, target address, cleanup).
func benchBus(b *testing.B, viaConnector bool, nFilters int) (*bus.Bus, *bus.Endpoint, bus.Address, func()) {
	b.Helper()
	bb := bus.New()
	srv, err := bb.Attach("srv", 4096)
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
	cli, err := bb.Attach("cli", 4096)
	if err != nil {
		b.Fatal(err)
	}
	target := bus.Address("srv")
	var conn *connector.Connector
	if viaConnector {
		conn, err = connector.New("c", adl.KindRPC, bb, []bus.Address{"srv"})
		if err != nil {
			b.Fatal(err)
		}
		var sink uint64
		for i := 0; i < nFilters; i++ {
			if err := conn.Filters().Attach(filters.Input, filters.Transform{
				FilterName: fmt.Sprintf("f%d", i), Fn: func(*bus.Message) { sink++ }}); err != nil {
				b.Fatal(err)
			}
		}
		conn.Start(ctx)
		target = connector.Address("c")
	}
	cleanup := func() {
		cancel()
		if conn != nil {
			conn.Stop()
		}
		<-done
	}
	return bb, cli, target, cleanup
}

func runCalls(b *testing.B, bb *bus.Bus, cli *bus.Endpoint, target bus.Address) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr := uint64(i + 1)
		if err := bb.Send(bus.Message{Kind: bus.Request, Op: "get",
			Payload: connector.CallPayload{Args: []any{"k"}},
			Src:     "cli", Dst: target, Corr: corr}); err != nil {
			b.Fatal(err)
		}
		for {
			m, err := cli.Receive(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if m.Kind == bus.Reply && m.Corr == corr {
				break
			}
		}
	}
}

func BenchmarkE2_DirectCall(b *testing.B) {
	bb, cli, target, cleanup := benchBus(b, false, 0)
	defer cleanup()
	runCalls(b, bb, cli, target)
}

func BenchmarkE2_ConnectorCall(b *testing.B) {
	bb, cli, target, cleanup := benchBus(b, true, 0)
	defer cleanup()
	runCalls(b, bb, cli, target)
}

func BenchmarkE2_ConnectorCall16Filters(b *testing.B) {
	bb, cli, target, cleanup := benchBus(b, true, 16)
	defer cleanup()
	runCalls(b, bb, cli, target)
}

// ---- E3/E4/E5: adaptation vs reconfiguration, quiescence, state transfer ----

func BenchmarkE3_AdaptationFilterSwap(b *testing.B) {
	var set filters.Set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := set.Attach(filters.Input, filters.Transform{FilterName: "a", Fn: func(*bus.Message) {}}); err != nil {
			b.Fatal(err)
		}
		set.Detach(filters.Input, "a")
	}
}

func BenchmarkE4_PauseResume(b *testing.B) {
	for _, inflight := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			bb := bus.New()
			dst, err := bb.Attach("dst", inflight+16)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bb.Pause("dst")
				for j := 0; j < inflight; j++ {
					if err := bb.Send(bus.Message{Kind: bus.Event, Payload: j, Src: "s", Dst: "dst"}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := bb.Resume("dst"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for {
					if _, ok := dst.TryReceive(); !ok {
						break
					}
				}
				b.StartTimer()
			}
		})
	}
}

func BenchmarkE5_StateSnapshotRestore(b *testing.B) {
	for _, keys := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			kv := newBenchKV(keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := kv.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if err := kv.Restore(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E6: placement planning ---------------------------------------------------

func benchTopo(b *testing.B) *netsim.Topology {
	b.Helper()
	topo := netsim.New(1, time.Millisecond, 0)
	for _, r := range []netsim.Region{"eu", "us", "ap"} {
		for i := 0; i < 4; i++ {
			if _, err := topo.AddNode(netsim.NodeID(fmt.Sprintf("%s-%d", r, i)), r, 16, i == 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	topo.SetRegionLatency("eu", "us", 80*time.Millisecond)
	topo.SetRegionLatency("eu", "ap", 120*time.Millisecond)
	topo.SetRegionLatency("us", "ap", 100*time.Millisecond)
	return topo
}

func benchReqs() []deploy.Requirement {
	return []deploy.Requirement{
		{Component: "gw", CPU: 2, Region: "eu"},
		{Component: "session", CPU: 4},
		{Component: "store", CPU: 4, Colocate: []string{"session"}},
		{Component: "auth", CPU: 1, Secure: true},
		{Component: "backup", CPU: 4, Anti: []string{"store"}},
	}
}

func BenchmarkE6_GreedyPlanner(b *testing.B) {
	topo := benchTopo(b)
	reqs := benchReqs()
	obj := deploy.Objective{Edges: []deploy.Edge{{A: "session", B: "gw", Weight: 10}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (deploy.Greedy{}).Plan(topo, reqs, obj); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_LocalSearchPlanner(b *testing.B) {
	topo := benchTopo(b)
	reqs := benchReqs()
	obj := deploy.Objective{Edges: []deploy.Edge{{A: "session", B: "gw", Weight: 10}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (deploy.LocalSearch{Seed: int64(i), Budget: 500}).Plan(topo, reqs, obj); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: controllers ----------------------------------------------------------

func BenchmarkE7_PIDStep(b *testing.B) {
	pid := &control.PID{Kp: 0.5, Ki: 0.2, IntMax: 2000, OutMin: 60, OutMax: 400}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pid.Update(28.6, 20, time.Second)
	}
}

func BenchmarkE7_FuzzyStep(b *testing.B) {
	fz := &control.Fuzzy{ErrScale: 30, DErrScale: 60, OutScale: 25, OutMin: 60, OutMax: 400}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fz.Update(28.6, 20, time.Second)
	}
}

// ---- E8: interception scaling ---------------------------------------------------

func BenchmarkE8_FilterChain(b *testing.B) {
	for _, n := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			var set filters.Set
			var sink uint64
			for i := 0; i < n; i++ {
				if err := set.Attach(filters.Input, filters.Transform{
					FilterName: fmt.Sprintf("f%d", i), Fn: func(*bus.Message) { sink++ }}); err != nil {
					b.Fatal(err)
				}
			}
			m := &bus.Message{Op: "op", Kind: bus.Request}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set.Eval(filters.Input, m)
			}
		})
	}
}

func BenchmarkE8_Injector(b *testing.B) {
	bb := bus.New()
	dst, err := bb.Attach("dst", 1024)
	if err != nil {
		b.Fatal(err)
	}
	inj, err := inject.New("i", inject.Scope{Dst: []bus.Address{"dst"}},
		inject.Behavior{TransformFn: func(*bus.Message) {}})
	if err != nil {
		b.Fatal(err)
	}
	inject.Install(bb, inj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bb.Send(bus.Message{Kind: bus.Event, Src: "s", Dst: "dst"}); err != nil {
			b.Fatal(err)
		}
		if _, ok := dst.TryReceive(); !ok {
			b.Fatal("lost message")
		}
	}
}

func BenchmarkE8_MetaObjectChain(b *testing.B) {
	objs := make([]*metaobj.MetaObject, 8)
	for i := range objs {
		objs[i] = &metaobj.MetaObject{
			Name: fmt.Sprintf("w%d", i), Props: metaobj.Modificatory,
			Invoke: func(m *bus.Message, next func(*bus.Message) error) error { return next(m) },
		}
	}
	chain, err := metaobj.Compose(objs...)
	if err != nil {
		b.Fatal(err)
	}
	m := &bus.Message{Op: "op"}
	base := func(*bus.Message) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chain.Execute(m, base); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E9: LTS checking -----------------------------------------------------------

func chain(name string, n int) *lts.LTS {
	bl := lts.NewBuilder(name).Initial("s0")
	for i := 0; i < n; i++ {
		req, rsp := lts.Recv("req"), lts.SendAct("rsp")
		if name == "client" {
			req, rsp = lts.SendAct("req"), lts.Recv("rsp")
		}
		bl.Trans(fmt.Sprintf("s%d", 2*i), req, fmt.Sprintf("s%d", 2*i+1))
		bl.Trans(fmt.Sprintf("s%d", 2*i+1), rsp, fmt.Sprintf("s%d", (2*i+2)%(2*n)))
	}
	return bl.MustBuild()
}

func BenchmarkE9_CompatCheck(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("states=%d", 2*n), func(b *testing.B) {
			client, server := chain("client", n), chain("server", n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := lts.CheckCompat(client, server); !rep.Compatible {
					b.Fatal("should be compatible")
				}
			}
		})
	}
}

func BenchmarkE9_Bisimulation(b *testing.B) {
	l1, l2 := chain("client", 64), chain("client", 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !lts.Bisimilar(l1, l2) {
			b.Fatal("identical chains must be bisimilar")
		}
	}
}

// ---- E10: FLO rules ---------------------------------------------------------------

func BenchmarkE10_RuleObserve(b *testing.B) {
	for _, n := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			rules := make([]flo.Rule, 0, n)
			for i := 0; i < n; i++ {
				rules = append(rules, flo.Rule{Trigger: fmt.Sprintf("op%d", i),
					Op: flo.ImpliesLater, Target: fmt.Sprintf("ack%d", i)})
			}
			eng, err := flo.NewEngine(rules)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Observe("op0")
				eng.Observe("ack0")
			}
		})
	}
}

func BenchmarkE10_CycleCheck(b *testing.B) {
	var rules []flo.Rule
	for i := 0; i < 128; i++ {
		rules = append(rules, flo.Rule{Trigger: fmt.Sprintf("op%d", i),
			Op: flo.Implies, Target: fmt.Sprintf("op%d", i+1)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flo.CheckRules(rules); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E11: compliance checking -----------------------------------------------------

func BenchmarkE11_ComplianceCheck(b *testing.B) {
	old := registry.Interface{Name: "svc", Version: registry.Version{Major: 1}}
	for i := 0; i < 32; i++ {
		old.Ops = append(old.Ops, registry.Signature{
			Name:   fmt.Sprintf("op%d", i),
			Params: []registry.TypeName{"a", "b"}, Results: []registry.TypeName{"r"}})
	}
	newer := old
	newer.Ops = append(append([]registry.Signature{}, old.Ops...),
		registry.Signature{Name: "extra"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := registry.CheckCompliance(old, newer); !rep.Compliant {
			b.Fatal("should be compliant")
		}
	}
}

// ---- E12 / end-to-end: full system call + hot swap --------------------------------

type benchKV struct {
	Data map[string]string
}

func newBenchKV(keys int) *benchKV {
	kv := &benchKV{Data: map[string]string{}}
	for i := 0; i < keys; i++ {
		kv.Data[fmt.Sprintf("key-%08d", i)] = "payload-payload-payload-payload"
	}
	return kv
}

func (k *benchKV) Handle(op string, args []any) ([]any, error) {
	switch op {
	case "get":
		return []any{k.Data[args[0].(string)]}, nil
	case "put":
		k.Data[args[0].(string)] = args[1].(string)
		return []any{"ok"}, nil
	}
	return nil, fmt.Errorf("unknown op %s", op)
}

// HandleTyped serves typed-handle calls in place: request and response
// travel as pointers, no []any boxing on either side (DESIGN.md §8).
func (k *benchKV) HandleTyped(op string, req, resp any) error {
	switch op {
	case "get":
		if r, ok := req.(*string); ok {
			*resp.(*string) = k.Data[*r]
			return nil
		}
	case "put":
		if r, ok := req.(*kvPut); ok {
			k.Data[r.Key] = r.Val
			*resp.(*string) = "ok"
			return nil
		}
	}
	return aas.ErrUntypedOp
}

func (k *benchKV) Snapshot() ([]byte, error) {
	out := make([]byte, 0, len(k.Data)*48)
	for key, v := range k.Data {
		out = append(out, key...)
		out = append(out, '=')
		out = append(out, v...)
		out = append(out, '\n')
	}
	return out, nil
}

func (k *benchKV) Restore(b []byte) error {
	k.Data = map[string]string{}
	start := 0
	for i := 0; i < len(b); i++ {
		if b[i] != '\n' {
			continue
		}
		line := b[start:i]
		start = i + 1
		for j := 0; j < len(line); j++ {
			if line[j] == '=' {
				k.Data[string(line[:j])] = string(line[j+1:])
				break
			}
		}
	}
	return nil
}

const benchADL = `
system Bench {
  component Store {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
    property statefulness = "stateful"
  }
}
`

func startBenchSystem(b *testing.B) (*aas.System, *aas.Registry) {
	b.Helper()
	reg := aas.NewRegistry()
	reg.MustRegister("Store", "1.0", nil, func() any { return newBenchKV(64) })
	sys, err := aas.Load(benchADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Stop)
	return sys, reg
}

// BenchmarkE12_SystemCall is the call by name: the handle is fetched from the
// system's table on every call.
func BenchmarkE12_SystemCall(b *testing.B) {
	sys, _ := startBenchSystem(b)
	if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Client("Store").Call(context.Background(), "get", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12_HotSwap(b *testing.B) {
	sys, reg := startBenchSystem(b)
	entry, err := reg.Lookup("Store")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SwapImplementation("Store", entry, true); err != nil {
			b.Fatal(err)
		}
	}
}
