// Tests of the byte-level relay (DESIGN.md §8, "Arguments stay bytes"): the
// read pump validates the value blocks it no longer decodes, a reply's result
// block reaches its caller in whatever shape the caller's handle wants, and
// the pooled envelope an inbound call travels in is never live twice.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/wire"
)

// logfArgs records a log line with its arguments filled in.
func (l *logLines) logfArgs(format string, args ...any) { l.logf(fmt.Sprintf(format, args...)) }

// relayCluster starts the given nodes with Front on n1 and Store — whatever
// store makes, per node — on n2, every node's log captured in full.
func relayCluster(t *testing.T, nodes []string, store func() any) (*Harness, *logLines) {
	t.Helper()
	logs := &logLines{}
	h, err := StartHarness(context.Background(), Spec{
		ADL:       clusterADL,
		Nodes:     nodes,
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry: func(string) *registry.Registry {
			reg := &registry.Registry{}
			for name, impl := range map[string]func() any{"Front": func() any { return &front{} }, "Store": store} {
				if err := reg.Register(registry.Entry{Name: name, Version: registry.Version{Major: 1}, New: impl}); err != nil {
					panic(err)
				}
			}
			return reg
		},
		Cluster: func(node string) Options {
			o := fastCluster(node)
			o.Logf = logs.logfArgs
			return o
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h, logs
}

// TestMalformedValueBlockTakesLinkDown: the read pump hands argument and
// result blocks on as bytes, but it still walks them. A block that is cut
// short, holds an unknown tag or nests past the bound is a protocol error
// there — the link goes down with a protocol reason — and not a surprise on a
// serve worker later: nothing was put on the bus for it.
func TestMalformedValueBlockTakesLinkDown(t *testing.T) {
	logs := &logLines{}
	h, err := StartHarness(context.Background(), Spec{
		ADL:      clusterADL,
		Nodes:    []string{"n1"},
		Registry: testRegistry,
		// The ghost sends no beacons; keep the watchdog off its links.
		Cluster: func(string) Options {
			return Options{Heartbeat: 20 * time.Millisecond, FailAfter: time.Minute, Logf: logs.logfArgs}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	n := h.Node("n1")

	whole, err := wire.AppendValues(nil, []any{"a-key-long-enough-to-cut"})
	if err != nil {
		t.Fatal(err)
	}
	level, err := wire.AppendValue(nil, []any{nil}) // slice tag, count 1, nil
	if err != nil {
		t.Fatal(err)
	}
	deep := []byte{1}
	for i := 0; i <= wire.MaxDepth; i++ {
		deep = append(deep, level[:2]...)
	}
	deep = append(deep, level[2])
	blocks := map[string][]byte{
		"truncated":   whole[:len(whole)-20],
		"unknown tag": {1, 0x7F},
		"too deep":    deep,
	}
	for name, block := range blocks {
		call, err := wire.AppendCall(nil, wire.Call{Corr: 1, Component: "Store", Op: "get", RawArgs: block}, wire.MaxVersion)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := wire.AppendReply(nil, wire.Reply{Corr: 1, RawResults: block}, wire.MaxVersion)
		if err != nil {
			t.Fatal(err)
		}
		for _, frame := range []struct {
			kind wire.FrameType
			body []byte
		}{{wire.FrameCall, call}, {wire.FrameReply, reply}} {
			t.Run(fmt.Sprintf("%s %v", name, frame.kind), func(t *testing.T) {
				conn, _ := ghostLink(t, n)
				defer conn.Close()
				sent, downs := n.System().Bus().Stats().Sent, logs.count("(protocol: ")
				if _, err := conn.Write(rawFrame(wire.MaxVersion, frame.kind, frame.body)); err != nil {
					t.Fatal(err)
				}
				eventually(t, "the link to go down", func() bool { return len(n.Peers()) == 0 })
				if got := logs.count("(protocol: "); got != downs+1 {
					t.Fatalf("%d links lost to a protocol error, want 1", got-downs)
				}
				if got := n.System().Bus().Stats().Sent; got != sent {
					t.Fatalf("%d bus messages sent for a malformed frame", got-sent)
				}
				if got := n.ServedCalls(); got != 0 {
					t.Fatalf("%d served-call records for a malformed frame", got)
				}
			})
		}
	}
}

// shapeStore answers get(what) with the result list what names.
type shapeStore struct{}

func (shapeStore) Handle(op string, args []any) ([]any, error) {
	switch what, _ := args[0].(string); what {
	case "int":
		return []any{7}, nil
	case "none":
		return nil, nil
	case "pair":
		return []any{"left", 2}, nil
	case "boom":
		return nil, errors.New("store: boom")
	default:
		return []any{what}, nil
	}
}

// pairResp decodes itself from a two-element result list (core.TypedResponse).
type pairResp struct {
	S string
	N int
}

func (p *pairResp) FromResults(results []any) error {
	if len(results) != 2 {
		return fmt.Errorf("pair: %d results", len(results))
	}
	p.S, _ = results[0].(string)
	p.N, _ = results[1].(int)
	return nil
}

// TestRawReplyShapes: a reply's result block crosses the caller node as
// bytes and is decoded by the envelope it answers — a scalar response read in
// place, everything else through the boxed list — with the outcomes, and the
// error texts, a boxed reply gave.
func TestRawReplyShapes(t *testing.T) {
	h, _ := relayCluster(t, []string{"n1", "n2"}, func() any { return shapeStore{} })
	sys1 := h.System("n1")
	ctx := context.Background()

	str := core.ClientOf[string, string](sys1, "Store")
	for i := 0; i < 3; i++ { // repeat: pooled envelopes on both nodes come round again
		if got, err := str.Call(ctx, "get", "echo"); err != nil || got != "echo" {
			t.Fatalf("scalar reply = %q, %v", got, err)
		}
	}
	if got, err := core.ClientOf[string, int](sys1, "Store").Call(ctx, "get", "int"); err != nil || got != 7 {
		t.Fatalf("int reply = %d, %v", got, err)
	}
	if _, err := core.ClientOf[string, struct{}](sys1, "Store").Call(ctx, "get", "none"); err != nil {
		t.Fatalf("empty reply: %v", err)
	}
	if got, err := core.ClientOf[string, pairResp](sys1, "Store").Call(ctx, "get", "pair"); err != nil || got != (pairResp{"left", 2}) {
		t.Fatalf("TypedResponse reply = %+v, %v", got, err)
	}
	if res, err := sys1.Client("Store").Call(ctx, "get", "pair"); err != nil || len(res) != 2 || res[0] != "left" || res[1] != 2 {
		t.Fatalf("untyped reply = %v, %v", res, err)
	}
	// The mismatches fail the way they fail against a local component.
	for what, want := range map[string]string{
		"int":  "result is int, want string",
		"none": "want 1 result, got 0",
		"pair": "want 1 result, got 2",
		"boom": "store: boom",
	} {
		if _, err := str.Call(ctx, "get", what); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("string handle, %s reply: %v, want %q", what, err, want)
		}
	}
	assertQuiescent(t, h)
}

// parkingStore echoes its argument; a key "park-<gate>-<i>" first waits for
// that gate to open. parked counts the handlers that have got that far.
type parkingStore struct {
	gates  map[string]chan struct{}
	parked atomic.Int64
}

func newParkingStore(gates ...string) *parkingStore {
	s := &parkingStore{gates: map[string]chan struct{}{}}
	for _, g := range gates {
		s.gates[g] = make(chan struct{})
	}
	return s
}

func (s *parkingStore) Handle(op string, args []any) ([]any, error) {
	key, _ := args[0].(string)
	s.park(key)
	return []any{key}, nil
}

func (s *parkingStore) park(key string) {
	if part := strings.Split(key, "-"); part[0] == "park" {
		s.parked.Add(1)
		<-s.gates[part[1]]
	}
}

// typedParkingStore also serves get typed, parking the same way before it
// writes the response in place.
type typedParkingStore struct{ *parkingStore }

func (s typedParkingStore) HandleTyped(op string, req, resp any) error {
	key, ok := req.(*string)
	out, okOut := resp.(*string)
	if !ok || !okOut {
		return container.ErrUntypedOp
	}
	s.park(*key)
	*out = *key
	return nil
}

// echoFlow calls get with a fresh key per call from workers goroutines until
// stopped. A reply that is not its own call's echo is the failure this file
// is about — an envelope two calls held at once — so it fails the test;
// errors are counted and left to the caller to judge.
type echoFlow struct {
	ok, failed atomic.Int64
	stop       func()
}

func startEchoFlow(t *testing.T, cl *core.Client, workers int) *echoFlow {
	return startFlow(t, workers, func(key string) (any, error) {
		res, err := cl.Call(context.Background(), "get", key)
		if err != nil || len(res) != 1 {
			return res, err
		}
		return res[0], nil
	})
}

// startTypedEchoFlow is startEchoFlow through a typed handle.
func startTypedEchoFlow(t *testing.T, cl *core.TypedClient[string, string], workers int) *echoFlow {
	return startFlow(t, workers, func(key string) (any, error) { return cl.Call(context.Background(), "get", key) })
}

// startFlow runs an echo flow of get calls.
func startFlow(t *testing.T, workers int, get func(key string) (any, error)) *echoFlow {
	f := &echoFlow{}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := fmt.Sprintf("fresh-%d-%d", w, i)
				res, err := get(key)
				switch {
				case err != nil:
					f.failed.Add(1)
					time.Sleep(time.Millisecond) // a link is down: do not spin
				case res != key:
					t.Errorf("call %s answered %v: another call's envelope", key, res)
					return
				default:
					f.ok.Add(1)
				}
			}
		}(w)
	}
	f.stop = sync.OnceFunc(func() { close(done); wg.Wait() })
	t.Cleanup(f.stop)
	return f
}

// more waits for n further calls of the flow to succeed.
func (f *echoFlow) more(t *testing.T, n int64) {
	t.Helper()
	from := f.ok.Load()
	eventually(t, "fresh calls to keep flowing", func() bool { return f.ok.Load() >= from+n })
}

// TestRelayEnvelopeRecycle: an inbound call travels in a pooled envelope that
// the serving side completes in place, and settleServed alone returns it to
// the pool, when the answer arrives. Everything else that ends a call on the
// link — a cancel, the deadline sweep, the link's death — must leave the
// envelope with the serve worker that may still write it. So handlers are
// parked, their calls ended each of those ways while fresh calls keep leasing
// envelopes, and then released: every late SetResults and Finish has to land
// in an envelope no newer call holds. A fresh call answered with another
// call's key, a reply whose envelope carries another lease's tag, or — under
// -race — a write racing a lease is the envelope live twice.
func TestRelayEnvelopeRecycle(t *testing.T) {
	const each = 8
	wait := func(t *testing.T, futs []*core.Future, want error) {
		t.Helper()
		for i, f := range futs {
			if _, err := f.Wait(); err == nil || (want != nil && !errors.Is(err, want)) {
				t.Fatalf("parked call %d ended with %v, want %v", i, err, want)
			}
		}
	}
	mistagged := func(t *testing.T, logs *logLines) {
		t.Helper()
		if n := logs.count("carries the envelope of"); n != 0 {
			t.Fatalf("%d replies came back in an envelope leased to another call", n)
		}
	}

	t.Run("revoked, swept and cut while parked", func(t *testing.T) {
		st := newParkingStore("cancel", "sweep", "cut", "held", "relinked")
		h, logs := relayCluster(t, []string{"n1", "n2"}, func() any { return st })
		n1, n2 := h.Node("n1"), h.Node("n2")
		cl := h.System("n1").Client("Store")
		flow := startEchoFlow(t, cl, 2)
		flow.more(t, 50)
		park := func(cl *core.Client, ctx context.Context, gate string) []*core.Future {
			t.Helper()
			from := st.parked.Load()
			futs := make([]*core.Future, each)
			for i := range futs {
				futs[i] = cl.Async(ctx, "get", fmt.Sprintf("park-%s-%d", gate, i))
			}
			eventually(t, gate+": the handlers to park", func() bool { return st.parked.Load() == from+each })
			return futs
		}
		echoed := func(futs []*core.Future, gate string) {
			t.Helper()
			for i, f := range futs {
				if res, err := f.Wait(); err != nil || len(res) != 1 || res[0] != fmt.Sprintf("park-%s-%d", gate, i) {
					t.Fatalf("call park-%s-%d answered %v, %v", gate, i, res, err)
				}
			}
		}

		// Sixteen handlers park; their calls are revoked by their callers and
		// swept by their deadlines. Eight more calls then park in whatever
		// envelopes the pool hands out: had a revocation or the sweep released
		// one, a late answer lands in it — under another call's tag.
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := park(cl, ctx, "cancel")
		cancel()
		wait(t, cancelled, context.Canceled)
		swept := park(cl.With(core.WithDeadline(60*time.Millisecond)), context.Background(), "sweep")
		wait(t, swept, context.DeadlineExceeded)
		eventually(t, "the revoked and swept records to go", func() bool { return n2.ServedCalls() <= 2 })
		held := park(cl, context.Background(), "held")
		close(st.gates["cancel"])
		close(st.gates["sweep"])
		flow.more(t, 100)
		close(st.gates["held"])
		echoed(held, "held")

		// The same across a link's death, where the late answers find no link
		// to arrive on: the calls that park next, over the new link, are
		// released together with them, so a shared envelope is written from
		// both sides at once.
		cut := park(cl, context.Background(), "cut")
		n2.Block("n1")
		wait(t, cut, nil)
		n2.Unblock("n1")
		eventually(t, "the nodes to relink", func() bool {
			if len(n1.Peers()) == 0 {
				_ = n1.Join(n2.Addr())
			}
			return len(n1.Peers()) == 1 && len(n2.Peers()) == 1
		})
		flow.more(t, 50)
		relinked := park(cl, context.Background(), "relinked")
		close(st.gates["cut"])
		close(st.gates["relinked"])
		echoed(relinked, "relinked")

		flow.more(t, 100)
		flow.stop()
		mistagged(t, logs)
		assertQuiescent(t, h)
	})

	// The same for handlers serving typed, whose late write is into the
	// envelope's response slot: fresh calls, typed and untyped, lease
	// envelopes all along, and a slot released early is one they reuse.
	t.Run("typed handlers revoked and swept while parked", func(t *testing.T) {
		st := newParkingStore("cancel", "sweep", "held")
		h, logs := relayCluster(t, []string{"n1", "n2"}, func() any { return typedParkingStore{st} })
		n2 := h.Node("n2")
		str := core.ClientOf[string, string](h.System("n1"), "Store")
		flow, typedFlow := startEchoFlow(t, h.System("n1").Client("Store"), 1), startTypedEchoFlow(t, str, 1)
		flow.more(t, 50)
		typedFlow.more(t, 50)
		park := func(cl *core.TypedClient[string, string], ctx context.Context, gate string) []*core.TypedFuture[string, string] {
			t.Helper()
			from := st.parked.Load()
			futs := make([]*core.TypedFuture[string, string], each)
			for i := range futs {
				futs[i] = cl.Async(ctx, "get", fmt.Sprintf("park-%s-%d", gate, i))
			}
			eventually(t, gate+": the handlers to park", func() bool { return st.parked.Load() == from+each })
			return futs
		}
		ended := func(futs []*core.TypedFuture[string, string], want error) {
			t.Helper()
			for i, f := range futs {
				if got, err := f.Wait(); !errors.Is(err, want) {
					t.Fatalf("parked call %d ended with %q, %v, want %v", i, got, err, want)
				}
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancelled := park(str, ctx, "cancel")
		cancel()
		ended(cancelled, context.Canceled)
		swept := park(str.With(core.WithDeadline(60*time.Millisecond)), context.Background(), "sweep")
		ended(swept, context.DeadlineExceeded)
		eventually(t, "the revoked and swept records to go", func() bool { return n2.ServedCalls() <= 2 })
		held := park(str, context.Background(), "held")
		close(st.gates["cancel"])
		close(st.gates["sweep"])
		flow.more(t, 100)
		typedFlow.more(t, 100)
		close(st.gates["held"])
		for i, f := range held {
			if got, err := f.Wait(); err != nil || got != fmt.Sprintf("park-held-%d", i) {
				t.Fatalf("call park-held-%d answered %q, %v", i, got, err)
			}
		}
		flow.stop()
		typedFlow.stop()
		mistagged(t, logs)
		assertQuiescent(t, h)
	})

	// A request that reaches the container after it quiesced goes back onto
	// the bus in the envelope it came in, to be served by the new
	// implementation: still one holder.
	t.Run("requeued during a swap", func(t *testing.T) {
		h, logs := relayCluster(t, []string{"n1", "n2"}, func() any { return &store{} })
		flow := startEchoFlow(t, h.System("n1").Client("Store"), 4)
		entry, err := testRegistry("").Lookup("Store")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			flow.more(t, 20)
			if _, err := h.System("n2").SwapImplementation("Store", entry, true); err != nil {
				t.Fatal(err)
			}
		}
		flow.more(t, 20)
		flow.stop()
		if n := flow.failed.Load(); n != 0 {
			t.Fatalf("%d calls failed across the swaps", n)
		}
		mistagged(t, logs)
		assertQuiescent(t, h)
	})

	// Calls parked on n2 when their component moves to n3 are forwarded on in
	// the envelope they arrived in: AppendArgs splices the argument block it
	// holds, n3's reply completes it, and n2's link to n1 releases it.
	t.Run("re-forwarded after migration", func(t *testing.T) {
		h, logs := relayCluster(t, []string{"n1", "n2", "n3"}, func() any { return &store{} })
		sys2 := h.System("n2")
		cl := h.System("n1").Client("Store").With(core.WithDeadline(10 * time.Second))
		if _, err := cl.Call(context.Background(), "get", "warm"); err != nil {
			t.Fatal(err)
		}
		sys2.Bus().PauseRequests(core.ComponentAddress("Store"))
		futs := make([]*core.Future, each)
		for i := range futs {
			futs[i] = cl.Async(context.Background(), "get", fmt.Sprintf("moved-%d", i))
		}
		eventually(t, "the calls to park on n2", func() bool { return h.Node("n2").ServedCalls() == each })
		if err := sys2.Migrate("Store", netsim.NodeID("n3")); err != nil {
			t.Fatal(err)
		}
		for i, f := range futs {
			if res, err := f.Wait(); err != nil || len(res) != 1 || res[0] != fmt.Sprintf("moved-%d", i) {
				t.Fatalf("call %d across the migration = %v, %v", i, res, err)
			}
		}
		if got := h.Node("n3").ServedCalls(); got != 0 {
			t.Fatalf("n3 holds %d served-call records", got)
		}
		if got, err := h.System("n3").Client("Store").Call(context.Background(), "count"); err != nil || got[0] != 1+each {
			t.Fatalf("Store on n3 counts %v gets (%v), want the warm-up and the %d forwarded", got, err, each)
		}
		mistagged(t, logs)
		assertQuiescent(t, h)
	})
}
