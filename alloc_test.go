// Allocation-regression tests (DESIGN.md §8): the typed call surface and
// the QoS hot counters have hard per-call allocation ceilings, enforced with
// testing.AllocsPerRun so a regression fails in CI rather than surfacing as
// a slow drift in benchmark numbers. AllocsPerRun counts allocations across
// all goroutines, so the serving side of a call is included in the budget —
// and so stray background work from earlier tests in the package can inflate
// a single batch. minAllocsPerRun takes the best of several batches: the
// floor is the path's own cost, the outliers are the interference.
package aas_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	aas "repro"

	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

func minAllocsPerRun(batches, runs int, f func()) float64 {
	best := testing.AllocsPerRun(runs, f)
	for i := 1; i < batches; i++ {
		if a := testing.AllocsPerRun(runs, f); a < best {
			best = a
		}
	}
	return best
}

// minBytesPerRun is minAllocsPerRun for bytes: runtime.MemStats.TotalAlloc
// over each batch of runs, taken as testing.AllocsPerRun takes Mallocs (one
// P, one warm-up run per batch), and the best batch.
func minBytesPerRun(batches, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	best := -1.0
	for i := 0; i < batches; i++ {
		f()
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs); best < 0 || b < best {
			best = b
		}
	}
	return best
}

// TestTypedCallAllocs pins the synchronous typed local call at ≤2
// allocations per call (measured: 1 — the aspect-invocation frame; the
// envelope, reply channel, waiter slot and timer are all pooled or reused).
func TestTypedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	// Warm the envelope pool and the serve workers before measuring.
	for i := 0; i < 64; i++ {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("typed call allocates %.1f/op, budget 2", allocs)
	}
}

// TestTypedAsyncAllocs pins the asynchronous typed call at what the
// synchronous one allocates plus the future, the one thing the caller holds:
// the future leases its envelope — reply channel and lapser included —
// from the handle's pool, and gives it back when it collects the reply. It measures 3; the budget is that plus one.
func TestTypedAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	for i := 0; i < 64; i++ {
		if _, err := g.Async(ctx, "greet", "world").Wait(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := g.Async(ctx, "greet", "world").Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("typed async call allocates %.1f/op, budget 4", allocs)
	}
	t.Logf("typed async call: %.1f allocs/op", allocs)
}

// TestAdmissionEstimatorAllocs pins the admission estimator's hot methods —
// one Observe per served call, one Admit per deadline-budgeted call — at
// zero allocations.
func TestAdmissionEstimatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	a := qos.NewAdmission(4)
	a.Observe(int64(2 * time.Millisecond))
	allocs := minAllocsPerRun(3, 1000, func() {
		a.Observe(int64(time.Millisecond))
		if a.Admit(3, int64(time.Second)) != qos.Admitted {
			t.Fatal("healthy admission rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Admission hot path allocates %.1f/op, budget 0", allocs)
	}
}

// TestOverloadRejectAllocs pins the end-to-end shed path at zero: a typed
// call rejected by admission control exits with the bare ErrOverloaded
// sentinel before the envelope lease, so a caller retry-looping against an
// overloaded component costs no garbage at all.
func TestOverloadRejectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	_, short, cleanup := startSaturated(t)
	defer cleanup()
	ctx := context.Background()
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := short.Call(ctx, "work", "x"); !errors.Is(err, aas.ErrOverloaded) {
			t.Fatalf("err = %v, want ErrOverloaded", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rejected call allocates %.1f/op, budget 0", allocs)
	}
}

// TestAdmittedDeadlineCallAllocs pins the accept side: the admission check
// plus the deadline stamp must not lift the synchronous typed call above its
// existing 2-allocation ceiling.
func TestAdmittedDeadlineCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter").With(aas.WithDeadline(time.Second))
	for i := 0; i < 64; i++ {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("admitted deadline call allocates %.1f/op, budget 2", allocs)
	}
}

// TestRemoteTypedCallAllocs pins location transparency's allocation cost: a
// typed call with a deadline budget to a component on the other node of a
// two-node cluster, counted across both nodes (they share this process) —
// gateway, egress, wire codec, the peer link's bus endpoint, the serve and
// the way back. Arguments and results cross both nodes as bytes, and a
// TypedComponent serves the call typed from them, so against one what is
// left is three sites (DESIGN.md §8): the response string on the caller
// node, the key string and the aspects.Invocation on the callee node
// (TestRemoteTypedStoreCallAllocs). This store only implements Handle, so
// the callee also builds what the Handle([]any) convention wants — the
// argument list, its key's box, the result list boxed into the advice
// chain's any, the handler's own result slice and box. It measures 5 here,
// where the key and the value are the one-byte "k" (a one-byte string is not
// allocated) and the smallest boxes share tiny-allocator blocks; the budget is
// that plus one. Nothing is allocated just to wait or to carry: no
// goroutine, context, timer, waiter channel, continuation closure, boxed
// payload or argument buffer per call on either node.
func TestRemoteTypedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL:       benchClusterADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  benchClusterRegistry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()
	store := aas.ClientOf[string, string](h.System("n1"), "Store").With(aas.WithDeadline(5 * time.Second))
	// Warm the envelope pool, the link's tables and both egress queues.
	for i := 0; i < 256; i++ {
		if _, err := store.Call(ctx, "get", "k"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if v, err := store.Call(ctx, "get", "k"); err != nil || v != "k" {
			t.Fatalf("get = %q, %v", v, err)
		}
	})
	if allocs > 6 {
		t.Fatalf("remote typed call allocates %.1f/op across both nodes, budget 6", allocs)
	}
	t.Logf("remote typed call: %.1f allocs/op", allocs)
}

// clTypedStore is clStore serving get typed as well.
type clTypedStore struct{ clStore }

func (s *clTypedStore) HandleTyped(op string, req, resp any) error {
	key, ok := req.(*string)
	out, okOut := resp.(*string)
	if !ok || !okOut {
		return aas.ErrUntypedOp
	}
	s.gets.Add(1)
	*out = *key
	return nil
}

// TestRemoteTypedStoreCallAllocs is TestRemoteTypedCallAllocs against a
// TypedComponent, with the ledger's 5-byte keys: the relayed call is served
// typed from the argument bytes and the reply written from the response slot,
// so the three sites left are the callee's key string, its
// aspects.Invocation and the caller's response string. It measures 3; the
// budget is that plus one.
func TestRemoteTypedStoreCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	store := startTypedStoreCluster(t)
	ctx := context.Background()
	for i := 0; i < 256; i++ {
		if _, err := store.Call(ctx, "get", "k0001"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if v, err := store.Call(ctx, "get", "k0001"); err != nil || v != "k0001" {
			t.Fatalf("get = %q, %v", v, err)
		}
	})
	if allocs > 4 {
		t.Fatalf("remote typed call to a TypedComponent allocates %.1f/op across both nodes, budget 4", allocs)
	}
	t.Logf("remote typed call to a TypedComponent: %.1f allocs/op", allocs)
}

// startTypedStoreCluster starts the two-node cluster of
// TestRemoteTypedStoreCallAllocs — Front on n1, a TypedComponent Store on n2
// — and returns n1's handle to Store with the ledger's 5 s budget.
func startTypedStoreCluster(t *testing.T) *aas.TypedClient[string, string] {
	t.Helper()
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL:       benchClusterADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry: func(string) *registry.Registry {
			reg := benchClusterRegistry("")
			if err := reg.Register(registry.Entry{Name: "Store", Version: registry.Version{Major: 2},
				New: func() any { return &clTypedStore{} }}); err != nil {
				panic(err)
			}
			return reg
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return aas.ClientOf[string, string](h.System("n1"), "Store").With(aas.WithDeadline(5 * time.Second))
}

// TestRemotePipelinedAllocs is TestRemoteTypedStoreCallAllocs with sixteen
// Async calls in flight, the ledger's remote_pipelined shape, counted per
// call on both nodes. Each future leases its envelope from the handle's
// pool and returns it when Wait collects the reply, so a call costs the three
// sites of the unary call plus the future the caller holds. It measures 4;
// the budget is that plus one. The future is a handle — the call it stands
// for lives in the envelope — so it is the 64-byte size class, and the call
// measures 122.7 bytes: 64 for the future, the rest the unary call's three
// sites. The bytes budget is that
// rounded up to the next size class, 128, so the future cannot grow back
// into a larger class unnoticed.
func TestRemotePipelinedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const window = 16
	store := startTypedStoreCluster(t)
	ctx := context.Background()
	futs := make([]*aas.TypedFuture[string, string], window)
	round := func() {
		for i := range futs {
			futs[i] = store.Async(ctx, "get", "k0001")
		}
		for _, f := range futs {
			if v, err := f.Wait(); err != nil || v != "k0001" {
				t.Fatalf("get = %q, %v", v, err)
			}
		}
	}
	for i := 0; i < 32; i++ {
		round()
	}
	allocs := minAllocsPerRun(5, 20, round) / window
	if allocs > 5 {
		t.Fatalf("pipelined remote typed call allocates %.2f/call across both nodes, budget 5", allocs)
	}
	bytes := minBytesPerRun(5, 20, round) / window
	if bytes > 128 {
		t.Fatalf("pipelined remote typed call allocates %.1f B/call across both nodes, budget 128", bytes)
	}
	t.Logf("pipelined remote typed call: %.2f allocs/call, %.1f B/call", allocs, bytes)
}

// TestClusterBeaconAllocs pins what an idle cluster allocates per beacon
// interval once a node's QoS windows are full. Each beacon asks the load
// meter for the node's loads, and the meter reads the admission counters
// (core.System.Admission), never the windows: a beacon costs its gossip frame
// and the meter's few small maps, not a gather and sort of two 16 Ki-sample
// windows (about 1.8 MB per meter sample). Both nodes are counted; the budget
// is 64 KiB per interval.
func TestClusterBeaconAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const heartbeat = 25 * time.Millisecond
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL:       benchClusterADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  benchClusterRegistry,
		Cluster: func(string) aas.ClusterOptions {
			return aas.ClusterOptions{Heartbeat: heartbeat, FailAfter: 2 * time.Second}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Store lives on n2, so these typed calls are served locally there and
	// fill n2's latency and throughput windows to the core cap.
	ctx := context.Background()
	store := aas.ClientOf[string, string](h.System("n2"), "Store")
	for i := 0; i < 1<<14; i++ {
		if _, err := store.Call(ctx, "get", "k"); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.System("n2").Monitor().Count(qos.Latency); n < 1<<14 {
		t.Fatalf("n2's latency window holds %d samples, want %d", n, 1<<14)
	}
	const intervals = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	time.Sleep(intervals * heartbeat)
	runtime.ReadMemStats(&after)
	perInterval := (after.TotalAlloc - before.TotalAlloc) / intervals
	if perInterval >= 64<<10 {
		t.Fatalf("idle cluster allocates %d B per %v beacon interval, budget 64 KiB", perInterval, heartbeat)
	}
	t.Logf("idle cluster with full windows: %d B per beacon interval", perInterval)
}

// TestMonitorRecordAllocs pins the QoS hot counter at zero allocations.
func TestMonitorRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	m := qos.NewMonitor(nil, 0, 64)
	m.Record(qos.Latency, 0.001)
	allocs := minAllocsPerRun(3, 1000, func() {
		m.Record(qos.Latency, 0.001)
		m.Record(qos.Throughput, 1)
	})
	if allocs != 0 {
		t.Fatalf("Monitor.Record allocates %.1f/op, budget 0", allocs)
	}
}

// TestSpanRecordAllocs pins the telemetry record path at zero allocations:
// one span write is an atomic claim plus plain word stores into a
// preallocated ring slot (DESIGN.md §11).
func TestSpanRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	r := telemetry.NewRecorder(0)
	s := telemetry.Span{Trace: 1, ID: 1, Start: 100, End: 200, Op: "op", Comp: "C"}
	allocs := minAllocsPerRun(3, 1000, func() {
		r.Record(s)
		if !r.SampleRoot() {
			t.Fatal("rate-1 recorder must sample")
		}
	})
	if allocs != 0 {
		t.Fatalf("span record allocates %.1f/op, budget 0", allocs)
	}
}

// TestTracedCallAllocsSamplingOff proves tracing costs nothing when turned
// off: the same typed call path that holds the 2-allocation budget with
// sampling on (TestTypedCallAllocs) holds it with sampling off too —
// tracing on ≈ tracing off, the span machinery adds no per-call garbage
// either way.
func TestTracedCallAllocsSamplingOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry, TraceSampling: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	for i := 0; i < 64; i++ {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("untraced typed call allocates %.1f/op, budget 2", allocs)
	}
	if spans := sys.Spans(); len(spans) != 0 {
		t.Fatalf("sampling off recorded %d spans", len(spans))
	}
}

// TestStreamRecvAllocs pins the stream plane's per-item receive cost at ≤1
// allocation per item, producer side included (the handler sends pre-boxed
// items, so the measurement is the plane: credit acquire, pooled chunk
// envelope, bus push, ring insert, Recv, auto-grant). The pooled envelope
// and the ring make the steady-state path allocation-free; the budget of 1
// absorbs scheduling jitter attributing a producer-side allocation into a
// measured run.
func TestStreamRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	f := newFeed()
	reg := aas.NewRegistry()
	reg.MustRegister("Feed", "1.0", nil, func() any { return f })
	sys, err := aas.Load(feedADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	st, err := sys.Client("Feed").Stream(ctx, "pump")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Warm the chunk-envelope pool and fill the ring before measuring.
	for i := 0; i < 64; i++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("stream receive allocates %.1f/item, budget 1", allocs)
	}
}

// mediatedStore answers get from a fixed table, so each reply boxes a fresh
// string the way a real lookup does (the ledger benchmark's Store).
type mediatedStore struct{ table map[string]string }

func (s *mediatedStore) Handle(op string, args []any) ([]any, error) {
	key, _ := args[0].(string)
	return []any{s.table[key]}, nil
}

// startMediated builds the mediated call path of the ledger's local_reconfig
// workload: Front.fetch → connector Link carrying two input filters → Store
// behind one meta-object and two aspects.
func startMediated(tb testing.TB) *aas.System {
	tb.Helper()
	reg := aas.NewRegistry()
	reg.MustRegister("Front", "1.0", nil, func() any { return &clFront{} })
	reg.MustRegister("Store", "1.0", nil, func() any {
		return &mediatedStore{table: map[string]string{"k": "v:k:0001"}}
	})
	sys, err := aas.Load(benchClusterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Stop)
	var seen atomic.Uint64
	for _, f := range []aas.Filter{
		aas.TransformFilter{FilterName: "stamp", Match: aas.FilterMatcher{Op: "get"},
			Fn: func(*bus.Message) { seen.Add(1) }},
		aas.ErrorFilter{FilterName: "deny-admin", Match: aas.FilterMatcher{Op: "admin*"}, Reason: "closed"},
	} {
		if err := sys.AttachFilter("Front", "get", aas.FilterInput, f); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sys.InsertMetaObject("Store", &aas.MetaObject{Name: "meter", Props: aas.MetaModificatory,
		Invoke: func(m *bus.Message, next func(*bus.Message) error) error {
			seen.Add(1)
			return next(m)
		}}); err != nil {
		tb.Fatal(err)
	}
	cut := aas.Pointcut{Component: "Store", Op: "get"}
	for _, a := range []aas.Aspect{
		{Name: "audit", Advice: []aas.Advice{{Pointcut: cut,
			Before: func(*aas.Invocation) error { seen.Add(1); return nil }}}},
		{Name: "guard", Advice: []aas.Advice{{Pointcut: cut,
			Around: func(inv *aas.Invocation, next aspects.Handler) (any, error) { return next(inv) }}}},
	} {
		if err := sys.AttachAspect(a); err != nil {
			tb.Fatal(err)
		}
	}
	return sys
}

// TestMediatedCallAllocs pins the mediated call — client edge, Front's
// serve and outcall, the connector both ways, Store's serve through its
// meta-object and aspects, counted across every goroutine involved — at 8
// allocations. AllocsPerRun rounds down, so the budget is the measurement.
// What is left is the values themselves: the caller's argument list and
// boxed key, Store's result list and boxed value, and per serve (two of
// them) the container's result list boxed into the aspect chain's `any` and
// the aspect-invocation record. Both hops carry their arguments and results
// in a pooled call envelope, so nothing is allocated to box a request or a
// reply, to wait, to mediate or to run the meta-object chain.
func TestMediatedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys := startMediated(t)
	front := sys.Client("Front")
	ctx := context.Background()
	key := string([]byte{'k'}) // not a constant: boxing it allocates, as a caller's key does
	call := func() {
		if res, err := front.Call(ctx, "fetch", key); err != nil || len(res) != 1 || res[0] != "v:k:0001" {
			t.Fatalf("fetch = %v, %v", res, err)
		}
	}
	for i := 0; i < 64; i++ {
		call()
	}
	allocs := minAllocsPerRun(5, 200, call)
	if allocs > 8 {
		t.Fatalf("mediated call allocates %.1f/op, budget 8", allocs)
	}
	t.Logf("mediated call: %.1f allocs/op", allocs)
}

// TestUntypedCallAllocs pins Client.Call straight to a component (Store,
// behind its meta-object and aspects) at 5 allocations: the argument list,
// the aspect-invocation record, the result list, its value and its box into
// `any`. The request and the reply ride the same pooled envelope a typed call
// uses, so neither is boxed.
func TestUntypedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys := startMediated(t)
	store := sys.Client("Store")
	ctx := context.Background()
	call := func() {
		if res, err := store.Call(ctx, "get", "k"); err != nil || len(res) != 1 || res[0] != "v:k:0001" {
			t.Fatalf("get = %v, %v", res, err)
		}
	}
	for i := 0; i < 64; i++ {
		call()
	}
	allocs := minAllocsPerRun(5, 200, call)
	if allocs > 5 {
		t.Fatalf("untyped call allocates %.1f/op, budget 5", allocs)
	}
	t.Logf("untyped call: %.1f allocs/op", allocs)
}

// TestUntypedAsyncAllocs is TestUntypedCallAllocs through Client.Async, the
// same engine at []any: what the call allocates plus the future. It measures
// 6; the budget is the measurement, as for the synchronous call.
func TestUntypedAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys := startMediated(t)
	store := sys.Client("Store")
	ctx := context.Background()
	call := func() {
		if res, err := store.Async(ctx, "get", "k").Wait(); err != nil || len(res) != 1 || res[0] != "v:k:0001" {
			t.Fatalf("get = %v, %v", res, err)
		}
	}
	for i := 0; i < 64; i++ {
		call()
	}
	allocs := minAllocsPerRun(5, 200, call)
	if allocs > 6 {
		t.Fatalf("untyped async call allocates %.1f/op, budget 6", allocs)
	}
	t.Logf("untyped async call: %.1f allocs/op", allocs)
}

// BenchmarkMediatedCall is the mediated path of TestMediatedCallAllocs as a
// benchmark: profile it with -memprofilerate=1 to attribute what is left.
func BenchmarkMediatedCall(b *testing.B) {
	sys := startMediated(b)
	front := sys.Client("Front")
	ctx := context.Background()
	key := string([]byte{'k'})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := front.Call(ctx, "fetch", key); err != nil {
			b.Fatal(err)
		}
	}
}
