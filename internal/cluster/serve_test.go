// Tests of the goroutine-free remote call path (DESIGN.md §6, "The hops of a
// remote call"): the peer link as a bus participant on the callee node, the
// gateway as a direct endpoint on the caller node. What a per-call goroutine
// with its own context used to guarantee — a revoked call is never answered,
// an abandoned one leaves its tables, a dead link's calls are neither served
// nor left waiting — is now the job of two small tables and the bus's own
// cancel and deadline plane, so each guarantee is pinned here.
package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/wire"
)

// eventually polls cond until it holds or the deadline fails the test.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// forwardedCalls counts the caller-side records of a node: pending entries of
// every link plus the inflight table.
func forwardedCalls(n *Node) int {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	total := 0
	for _, p := range peers {
		p.pmu.Lock()
		total += len(p.pending)
		p.pmu.Unlock()
	}
	n.imu.Lock()
	total += len(n.inflight)
	n.imu.Unlock()
	return total
}

// assertQuiescent checks the acceptance invariants at rest on every node: no
// waiter slot, no forwarded or served record, no stream handle and no stream
// producer, and the bus ledger balanced.
func assertQuiescent(t *testing.T, h *Harness) {
	t.Helper()
	for _, id := range h.Nodes() {
		n := h.Node(id)
		eventually(t, id+" to hold no call record", func() bool {
			return n.System().PendingCalls() == 0 && forwardedCalls(n) == 0 && n.ServedCalls() == 0
		})
		eventually(t, id+" to hold no stream", func() bool {
			return n.System().ActiveStreams() == 0 && n.System().PendingStreams() == 0
		})
		eventually(t, id+"'s bus ledger to balance", func() bool {
			st := n.System().Bus().Stats()
			return st.Sent == st.Delivered+st.Dropped+st.Held
		})
	}
}

// gatedStore serves "get": a key with a gate blocks until the gate closes,
// then every key is echoed. served counts handler entries.
type gatedStore struct {
	mu     sync.Mutex
	gates  map[string]chan struct{}
	served atomic.Int64
}

func (g *gatedStore) gate(key string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gates == nil {
		g.gates = map[string]chan struct{}{}
	}
	ch := make(chan struct{})
	g.gates[key] = ch
	return ch
}

func (g *gatedStore) Handle(op string, args []any) ([]any, error) {
	g.served.Add(1)
	key, _ := args[0].(string)
	g.mu.Lock()
	ch := g.gates[key]
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
	return []any{key}, nil
}

// streamStore is a gatedStore that also streams, the way stream_test.go's
// feedComp does.
type streamStore struct {
	gatedStore
	feed feedComp
}

func (s *streamStore) HandleStream(op string, args []any, sink container.StreamSink) error {
	return s.feed.HandleStream(op, args, sink)
}

// logLines collects what a node's Logf is handed.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, _ ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, format)
	l.mu.Unlock()
}

func (l *logLines) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// storeCluster starts n1 (caller) and n2 hosting the given Store, with n1's
// log captured.
func storeCluster(t *testing.T, st any, opts func(string) core.Options) (*Harness, *logLines) {
	t.Helper()
	logs := &logLines{}
	h, err := StartHarness(context.Background(), Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry: func(string) *registry.Registry {
			reg := &registry.Registry{}
			for name, impl := range map[string]func() any{
				"Front": func() any { return &front{} },
				"Store": func() any { return st },
			} {
				if err := reg.Register(registry.Entry{Name: name, Version: registry.Version{Major: 1}, New: impl}); err != nil {
					panic(err)
				}
			}
			return reg
		},
		Options: opts,
		Cluster: func(node string) Options {
			o := fastCluster(node)
			if node == "n1" {
				o.Logf = logs.logf
			}
			return o
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	if _, err := h.System("n1").Client("Store").Call(context.Background(), "get", "warm"); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	return h, logs
}

// goroutineStacks returns the stack of every live goroutine, other than the
// tests' own, with a frame (or a creator) whose name contains frame.
func goroutineStacks(frame string) []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var stacks []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame) && !strings.Contains(g, "testing.tRunner") {
			stacks = append(stacks, g)
		}
	}
	return stacks
}

// goroutinesIn lists the ids of the goroutines goroutineStacks finds.
func goroutinesIn(frame string) []string {
	var ids []string
	for _, g := range goroutineStacks(frame) {
		ids = append(ids, strings.Fields(g)[1]) // "goroutine 12 [select]:"
	}
	sort.Strings(ids)
	return ids
}

// platformGoroutines lists, sorted, the function that started each goroutine
// running platform code: what is running, by where it came from rather than
// by id. A serve worker is one whether the component's start or a busy worker
// started it.
func platformGoroutines() []string {
	var creators []string
	for _, g := range goroutineStacks("repro/internal/") {
		creator := "?"
		if i := strings.LastIndex(g, "created by "); i >= 0 {
			creator = strings.Fields(g[i+len("created by "):])[0]
		}
		if strings.HasSuffix(creator, "core.(*runtimeComponent).start") || strings.HasSuffix(creator, "core.(*runtimeComponent).work") {
			creator = "serve worker"
		}
		creators = append(creators, creator)
	}
	sort.Strings(creators)
	return creators
}

// TestRemoteCallStartsNoGoroutine: a steady-state remote unary call starts
// and ends no goroutine on either node. Both nodes share this process, so
// the goroutines running platform code are listed once, before and after
// 2000 calls, and must be the very same ones: read pumps, beacons, egress
// writers, gateway loops, serve workers — nothing per call.
func TestRemoteCallStartsNoGoroutine(t *testing.T) {
	const pkg = "repro/internal/"
	// One P, as in core's TestStartStopClientEdgeGoroutines: the hard case
	// for the serve workers' "a request finds a parked worker" accounting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h, _ := storeCluster(t, &store{}, nil)
	cl := h.System("n1").Client("Store").With(core.WithDeadline(5 * time.Second))
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := cl.Call(ctx, "get", "k"); err != nil {
			t.Fatal(err)
		}
	}
	started := goroutinesIn(pkg)
	for i := 0; i < 2000; i++ {
		if _, err := cl.Call(ctx, "get", "k"); err != nil {
			t.Fatal(err)
		}
	}
	if now := goroutinesIn(pkg); !slices.Equal(now, started) {
		t.Fatalf("steady-state remote calls changed the goroutines running platform code: %d now %v; were %d %v",
			len(now), now, len(started), started)
	}
	assertQuiescent(t, h)
}

// TestPeerDownBetweenPickAndRegisterFailsFast: a call forwarded while its
// link dies must fail at once. forward picks a live peer, then registers the
// call with it; a link that goes down in between has already failed
// everything it knew of, and its egress writer has exited — so a call
// registered after that would wait out its whole budget. The test orders the
// two steps by hand: the link is down before forwardVia runs against it.
func TestPeerDownBetweenPickAndRegisterFailsFast(t *testing.T) {
	h, _ := storeCluster(t, &store{}, nil)
	n1, sys1 := h.Node("n1"), h.System("n1")
	n1.mu.Lock()
	p, g := n1.peers["n2"], n1.gateways["Store"]
	n1.mu.Unlock()
	if p == nil || g == nil {
		t.Fatal("n1 has no link or gateway toward Store on n2")
	}
	// Block severs the link through peerDown and refuses the re-dial, so the
	// end-to-end half below still meets a dead link.
	n1.Block("n2")

	m := bus.Message{
		Kind: bus.Request, Op: "get", Payload: connector.CallPayload{Args: []any{"k"}},
		Src: "test:caller", Dst: g.addr, Corr: 1,
		Deadline: time.Now().Add(5 * time.Second).UnixNano(),
	}
	kind, reason := n1.forwardVia(p, g, &m)
	if kind != connector.ErrKindApp || !strings.Contains(reason, "down") {
		t.Fatalf("forwardVia over a dead link = %v %q, want an immediate peer-down refusal", kind, reason)
	}
	p.pmu.Lock()
	pending := len(p.pending)
	p.pmu.Unlock()
	n1.imu.Lock()
	inflight := len(n1.inflight)
	n1.imu.Unlock()
	if pending != 0 || inflight != 0 {
		t.Fatalf("refused call left records behind: pending=%d inflight=%d", pending, inflight)
	}

	// End to end: the gateway's direct path declines what forward refuses and
	// the loop answers it, long before the 5 s budget.
	t0 := time.Now()
	_, err := sys1.Client("Store").With(core.WithDeadline(5*time.Second)).Call(context.Background(), "get", "k")
	if err == nil || time.Since(t0) > time.Second {
		t.Fatalf("call over a dead link: err=%v after %v, want an error at once", err, time.Since(t0))
	}
	if n := sys1.PendingCalls(); n != 0 {
		t.Fatalf("caller holds %d waiter slots", n)
	}
	if n := forwardedCalls(n1); n != 0 {
		t.Fatalf("caller node holds %d forwarded-call records", n)
	}
}

// awaitRejection waits for the component to reject a request unserved for the
// given reason.
func awaitRejection(t *testing.T, events <-chan core.Event, reason string) {
	t.Helper()
	for deadline := time.After(5 * time.Second); ; {
		select {
		case e := <-events:
			if e.Kind == core.EvRequestFailed && strings.Contains(e.Detail, reason) {
				return
			}
		case <-deadline:
			t.Fatalf("no request was rejected at the component with %q", reason)
		}
	}
}

// TestCancelBeforeServiceIsNeverAnswered: a call revoked while it still
// queues at the serving component is answered by nobody. The cancel frame
// becomes the bus's own OpCancel, the component's revocation set rejects the
// request when it surfaces, and the rejection — addressed to the link — finds
// no record and goes nowhere: the callee writes no frame, the caller logs no
// late reply, and nothing is left in any table.
func TestCancelBeforeServiceIsNeverAnswered(t *testing.T) {
	st := &gatedStore{}
	h, logs := storeCluster(t, st, nil)
	sys1, sys2, n2 := h.System("n1"), h.System("n2"), h.Node("n2")
	events, unsub := sys2.Events().Subscribe(256)
	defer unsub()
	addr := core.ComponentAddress("Store")
	sys2.Bus().PauseRequests(addr)
	base := st.served.Load()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := sys1.Client("Store").Call(ctx, "get", "parked")
		done <- err
	}()
	eventually(t, "the call to cross the wire and park", func() bool { return n2.ServedCalls() == 1 })
	_, framesBefore := n2.BatchStats()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call err = %v, want context.Canceled", err)
	}
	eventually(t, "the cancel to cross the wire", func() bool { return n2.ServedCalls() == 0 })

	if _, err := sys2.Bus().Resume(addr); err != nil {
		t.Fatal(err)
	}
	// The component consumed its revocation entry: the request surfaced and
	// was rejected unserved.
	awaitRejection(t, events, "canceled before service")
	if got := st.served.Load(); got != base {
		t.Fatalf("revoked request reached the handler (%d extra serves)", got-base)
	}
	assertQuiescent(t, h)
	if _, frames := n2.BatchStats(); frames != framesBefore {
		t.Fatalf("callee wrote %d data frames for a revoked call, want none", frames-framesBefore)
	}
	if n := logs.count("late reply"); n != 0 {
		t.Fatalf("caller saw %d late replies for a revoked call", n)
	}
}

// TestCancelStormRacingReplies: cancels timed to land around the reply. Each
// call ends exactly one way — its reply is delivered, or it is revoked and
// whatever the callee still says is suppressed — so successes never exceed
// the frames the callee wrote, and once the storm is over no record of any
// call is left on either node and both bus ledgers balance.
func TestCancelStormRacingReplies(t *testing.T) {
	served := new(atomic.Int64)
	h, _ := storeCluster(t, &slowComp{delay: 300 * time.Microsecond, served: served}, nil) // every op is its "work"
	sys1, n2 := h.System("n1"), h.Node("n2")
	cl := sys1.Client("Store")
	_, framesBefore := n2.BatchStats()

	const callers, rounds = 8, 60
	var ok, cancelled atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				// Spread the cancel from well before the reply to just after.
				timer := time.AfterFunc(time.Duration((c*rounds+i)%12)*100*time.Microsecond, cancel)
				_, err := cl.Call(ctx, "get", "x")
				timer.Stop()
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					t.Errorf("call: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	if ok.Load()+cancelled.Load() != callers*rounds {
		t.Fatalf("%d ok + %d cancelled of %d calls", ok.Load(), cancelled.Load(), callers*rounds)
	}
	if ok.Load() == 0 || cancelled.Load() == 0 {
		t.Logf("storm did not straddle the reply: %d ok, %d cancelled", ok.Load(), cancelled.Load())
	}
	assertQuiescent(t, h)
	_, frames := n2.BatchStats()
	if wrote := int64(frames - framesBefore); wrote < ok.Load() || wrote > callers*rounds {
		t.Fatalf("callee wrote %d reply frames for %d delivered replies of %d calls", wrote, ok.Load(), callers*rounds)
	}
}

// TestServedRecordSweptAfterDeadline: a call whose budget lapses while it is
// parked at the component, and for which no cancel comes (a caller sends none
// once its deadline has passed), still leaves the callee's table: the
// heartbeat tick sweeps it by its stored deadline and answers with the
// deadline kind, which in turn releases the caller node's record. The parked
// request itself is discarded at resume.
func TestServedRecordSweptAfterDeadline(t *testing.T) {
	st := &gatedStore{}
	h, _ := storeCluster(t, st, nil)
	sys1, sys2, n1, n2 := h.System("n1"), h.System("n2"), h.Node("n1"), h.Node("n2")
	addr := core.ComponentAddress("Store")
	sys2.Bus().PauseRequests(addr)
	base := st.served.Load()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, err := sys1.Client("Store").Call(ctx, "get", "parked"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked call err = %v, want deadline exceeded", err)
	}
	// Still paused: nothing but the sweep can release the records.
	eventually(t, "the sweep to release the callee's record", func() bool { return n2.ServedCalls() == 0 })
	eventually(t, "the deadline reply to release the caller node's record", func() bool { return forwardedCalls(n1) == 0 })
	if _, err := sys2.Bus().Resume(addr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := st.served.Load(); got != base {
		t.Fatalf("expired parked request reached the handler (%d extra serves)", got-base)
	}
	assertQuiescent(t, h)
}

// TestPeerDownRevokesQueuedInboundCalls: when a link dies, every call it had
// put on the local bus and not yet seen answered is revoked — 100 of them
// parked behind a request pause are all rejected unserved at resume, none
// reaches the handler — while their callers on the other node fail at once.
func TestPeerDownRevokesQueuedInboundCalls(t *testing.T) {
	const calls = 100
	st := &gatedStore{}
	h, _ := storeCluster(t, st, nil)
	sys1, sys2, n2 := h.System("n1"), h.System("n2"), h.Node("n2")
	addr := core.ComponentAddress("Store")
	sys2.Bus().PauseRequests(addr)
	base := st.served.Load()

	cl := sys1.Client("Store").With(core.WithDeadline(10 * time.Second))
	futs := make([]*core.Future, calls)
	for i := range futs {
		futs[i] = cl.Async(context.Background(), "get", "parked")
	}
	eventually(t, "every call to cross the wire and park", func() bool { return n2.ServedCalls() == calls })

	t0 := time.Now()
	n2.Block("n1") // the link dies on n2; n1 sees the connection close
	for i, f := range futs {
		if _, err := f.Wait(); err == nil {
			t.Fatalf("call %d over a dead link succeeded", i)
		}
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("callers waited %v for a dead link, want an error at once", took)
	}
	if n := n2.ServedCalls(); n != 0 {
		t.Fatalf("dead link left %d served-call records", n)
	}
	if _, err := sys2.Bus().Resume(addr); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the revoked requests to drain", func() bool { return sys2.Bus().Stats().Held == 0 })
	time.Sleep(50 * time.Millisecond)
	if got := st.served.Load(); got != base {
		t.Fatalf("%d revoked requests were served after resume", got-base)
	}
	assertQuiescent(t, h)
}

// saturate makes st's component one that deadline-aware admission sheds
// short-budget requests from: the estimator learns a 20 ms service time, then
// 32 deadline-less calls — never shed themselves — block in their handlers
// and hold the depth the estimator multiplies by. release unblocks them and
// waits for their replies.
func saturate(t *testing.T, st *gatedStore, cl *core.Client, callee *Node) (release func()) {
	t.Helper()
	ctx := context.Background()
	slow := st.gate("slow")
	go func() {
		for range 16 {
			time.Sleep(20 * time.Millisecond)
			slow <- struct{}{}
		}
		close(slow)
	}()
	for range 16 {
		if _, err := cl.Call(ctx, "get", "slow"); err != nil {
			t.Fatal(err)
		}
	}
	const backlog = 32
	block := st.gate("block")
	futs := make([]*core.Future, backlog)
	for i := range futs {
		futs[i] = cl.Async(ctx, "get", "block")
	}
	eventually(t, "the backlog to build on the callee", func() bool { return callee.ServedCalls() == backlog })
	return func() {
		close(block)
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInboundCallsPassAdmission: a peer link's calls enter through the
// component's compiled binding, not around it. With the component saturated,
// an inbound call whose shipped budget cannot cover the estimated wait is
// shed by deadline-aware admission and the caller gets ErrOverloaded's text
// back.
func TestInboundCallsPassAdmission(t *testing.T) {
	st := &gatedStore{}
	h, _ := storeCluster(t, st, nil)
	sys1, n2 := h.System("n1"), h.Node("n2")
	cl := sys1.Client("Store")
	ctx := context.Background()
	release := saturate(t, st, cl, n2)

	short := cl.With(core.WithDeadline(15 * time.Millisecond))
	eventually(t, "an inbound call to be shed by admission", func() bool {
		_, err := short.Call(ctx, "get", "k")
		return errors.Is(err, core.ErrOverloaded)
	})
	rejected := uint64(0)
	for _, a := range n2.Telemetry().Admission {
		if a.Component == "Store" {
			rejected = a.Rejected
		}
	}
	if rejected == 0 {
		t.Fatal("n2's admission estimator rejected nothing")
	}
	release()
	assertQuiescent(t, h)
}

// TestInboundPrincipalAuthorised: the principal shipped in the call frame is
// the one the callee's container authorises — an anonymous remote call is
// refused by the auth-requiring container, the same call with a principal is
// served.
func TestInboundPrincipalAuthorised(t *testing.T) {
	const authADL = `
system Cluster {
  component Front {
    provide fetch(key) -> (value)
  }
  component Store {
    provide get(key) -> (value)
    property auth = "required"
  }
}
`
	h, err := StartHarness(context.Background(), Spec{
		ADL:       authADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  testRegistry,
		Cluster:   fastCluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	cl := h.System("n1").Client("Store")
	ctx := context.Background()
	if _, err := cl.Call(ctx, "get", "k"); err == nil || !strings.Contains(err.Error(), "unauthorized") {
		t.Fatalf("anonymous remote call err = %v, want the container's refusal", err)
	}
	res, err := cl.With(core.WithPrincipal("alice")).Call(ctx, "get", "k")
	if err != nil || len(res) != 1 || res[0] != "k" {
		t.Fatalf("authorised remote call = %v, %v", res, err)
	}
}

// ghostLink dials the node as peer "ghost" over raw TCP and completes the
// handshake.
func ghostLink(t *testing.T, n *Node) (net.Conn, *wire.Decoder) {
	t.Helper()
	var (
		conn net.Conn
		dec  *wire.Decoder
	)
	// A previous ghost link may still be on its way down; the node refuses a
	// duplicate peer by closing the connection, so retry until it links.
	eventually(t, "the node to link the ghost", func() bool {
		c, err := net.Dial("tcp", n.Addr())
		if err != nil {
			return false
		}
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Write(rawFrame(wire.MinVersion, wire.FrameHello, helloBody(wire.MaxVersion))); err != nil {
			c.Close()
			return false
		}
		d := wire.NewDecoder(c)
		if ft, _, err := d.Next(); err != nil || ft != wire.FrameWelcome {
			c.Close()
			return false
		}
		// Linked only if the node kept the connection: a gossip beacon
		// arrives within a heartbeat.
		if _, _, err := d.Next(); err != nil {
			c.Close()
			return false
		}
		conn, dec = c, d
		return true
	})
	return conn, dec
}

// TestRelinkIsolatesOldLinkReplies: a peer that relinks restarts its
// correlation counter, so the new link reuses the old link's corrs. The old
// link's call is still in its handler when the new link ships a call under
// the same corr; when the old handler finally answers, its reply must not
// settle the new link's call. Each link incarnation has its own bus address,
// so the old answer finds no destination.
func TestRelinkIsolatesOldLinkReplies(t *testing.T) {
	st := &gatedStore{}
	h, err := StartHarness(context.Background(), Spec{
		ADL:   clusterADL,
		Nodes: []string{"n1"},
		Registry: func(string) *registry.Registry {
			reg := testRegistry("")
			if err := reg.Register(registry.Entry{Name: "Store", Version: registry.Version{Major: 2},
				New: func() any { return st }}); err != nil {
				panic(err)
			}
			return reg
		},
		// The ghost sends no beacons; keep the watchdog off its links.
		Cluster: func(string) Options {
			return Options{Heartbeat: 20 * time.Millisecond, FailAfter: time.Minute}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	n := h.Node("n1")
	first, second := st.gate("first"), st.gate("second")
	call := func(conn net.Conn, key string) {
		t.Helper()
		body, err := wire.AppendCall(nil, wire.Call{Corr: 1, Component: "Store", Op: "get", Args: []any{key}}, wire.MaxVersion)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(rawFrame(wire.MaxVersion, wire.FrameCall, body)); err != nil {
			t.Fatal(err)
		}
	}

	old, _ := ghostLink(t, n)
	call(old, "first")
	eventually(t, "the old link's call to enter its handler", func() bool { return st.served.Load() == 1 })
	old.Close()
	eventually(t, "the old link to go down", func() bool { return len(n.Peers()) == 0 })

	conn, dec := ghostLink(t, n)
	defer conn.Close()
	call(conn, "second")
	eventually(t, "the new link's call to enter its handler", func() bool { return st.served.Load() == 2 })

	// The old handler answers now. Give its reply every chance to be
	// misdelivered before the new handler is released.
	close(first)
	time.Sleep(100 * time.Millisecond)
	if got := n.ServedCalls(); got != 1 {
		t.Fatalf("new link holds %d served-call records after the old link's reply, want 1: the old reply settled it", got)
	}
	close(second)
	for {
		ft, body, err := dec.Next()
		if err != nil {
			t.Fatalf("waiting for the reply: %v", err)
		}
		if ft != wire.FrameReply {
			continue
		}
		rep, err := wire.ParseReply(body, wire.MaxVersion)
		if err != nil || rep.Corr != 1 || rep.Err != "" || len(rep.Results) != 1 || rep.Results[0] != "second" {
			t.Fatalf("reply on the new link: %+v %v, want the new call's own answer", rep, err)
		}
		break
	}
	eventually(t, "the served-call table to empty", func() bool { return n.ServedCalls() == 0 })
}

// TestRelayedStreamLifecycle pins, for a stream relayed over a peer link, the
// guarantees the unary tests above pin for a call — a stream open takes the
// call's path (one served record on the callee, one pending record on the
// caller, the bus's own cancel and credit controls), so it owes the same ones.
func TestRelayedStreamLifecycle(t *testing.T) {
	storeAddr := core.ComponentAddress("Store")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// drain consumes st until it ends and returns the terminal error.
	drain := func(st *core.Stream) error {
		for {
			if _, err := st.Recv(ctx); err != nil {
				return err
			}
		}
	}

	t.Run("cancel before service is never answered", func(t *testing.T) {
		st := &streamStore{}
		h, logs := storeCluster(t, st, nil)
		sys1, sys2, n2 := h.System("n1"), h.System("n2"), h.Node("n2")
		events, unsub := sys2.Events().Subscribe(256)
		defer unsub()
		sys2.Bus().PauseRequests(storeAddr)

		s, err := sys1.Client("Store").Stream(context.Background(), "pump")
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "the open to cross the wire and park", func() bool { return n2.ServedCalls() == 1 })
		_, framesBefore := n2.BatchStats()
		s.Close()
		eventually(t, "the cancel to cross the wire", func() bool { return n2.ServedCalls() == 0 })
		if _, err := sys2.Bus().Resume(storeAddr); err != nil {
			t.Fatal(err)
		}
		awaitRejection(t, events, "canceled before service")
		if got := st.feed.entered.Load(); got != 0 {
			t.Fatalf("revoked open reached the handler (%d entries)", got)
		}
		assertQuiescent(t, h)
		if _, frames := n2.BatchStats(); frames != framesBefore {
			t.Fatalf("callee wrote %d data frames for a revoked stream, want none", frames-framesBefore)
		}
		if n := logs.count("late reply"); n != 0 {
			t.Fatalf("caller saw %d late answers for a revoked stream", n)
		}
	})

	t.Run("link death mid-stream reclaims the producer and ends the consumer", func(t *testing.T) {
		st := &streamStore{}
		h, _ := storeCluster(t, st, nil)
		sys1, sys2, n2 := h.System("n1"), h.System("n2"), h.Node("n2")
		s, err := sys1.Client("Store").With(core.WithStreamWindow(8)).Stream(context.Background(), "pump")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 20; i++ {
			if _, err := s.Recv(ctx); err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
		}
		t0 := time.Now()
		n2.Block("n1") // the link dies on n2; n1 sees the connection close
		if err := drain(s); err == io.EOF || ctx.Err() != nil || !strings.Contains(err.Error(), "peer n2 down") {
			t.Fatalf("stream over a dead link ended with %v, want the link's failure", err)
		}
		eventually(t, "the producer to be reclaimed", func() bool { return sys2.ActiveStreams() == 0 })
		if took := time.Since(t0); took > 2*time.Second {
			t.Fatalf("a dead link's stream took %v to settle on both nodes, want at once", took)
		}
		if st.feed.cancelled.Load() != 1 {
			t.Fatalf("the handler saw %d cancels, want 1", st.feed.cancelled.Load())
		}
		assertQuiescent(t, h)
	})

	t.Run("a queued open whose budget lapses is swept with a deadline stream end", func(t *testing.T) {
		st := &streamStore{}
		h, _ := storeCluster(t, st, nil)
		sys1, sys2, n1, n2 := h.System("n1"), h.System("n2"), h.Node("n1"), h.Node("n2")
		sys2.Bus().PauseRequests(storeAddr)

		// End to end: the consumer waits under Recv's context, not the open's
		// budget, so the identity of what ends its wait is the sweep's.
		s, err := sys1.Client("Store").With(core.WithDeadline(60*time.Millisecond)).Stream(context.Background(), "pump")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := drain(s); !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "while serving") {
			t.Fatalf("lapsed open ended with %v, want the sweep's deadline end", err)
		}
		eventually(t, "the sweep to release both nodes' records", func() bool {
			return n2.ServedCalls() == 0 && forwardedCalls(n1) == 0
		})

		// On the wire: what the sweep writes for a stream corr is a stream end
		// frame, not a reply frame. The ghost answers every beacon with a
		// cancel for a corr nobody holds, so its link outlives FailAfter.
		conn, dec := ghostLink(t, n2)
		defer conn.Close()
		if _, err := conn.Write(bodyFrame(t, wire.FrameStreamOpen, &wire.StreamOpen{Corr: 7, Component: "Store", Op: "pump",
			DeadlineNanos: int64(40 * time.Millisecond), Window: 4})); err != nil {
			t.Fatal(err)
		}
		for swept := false; !swept; {
			ft, body, err := dec.Next()
			if err != nil {
				t.Fatalf("waiting for the stream end: %v", err)
			}
			switch ft {
			case wire.FrameGossip:
				if _, err := conn.Write(bodyFrame(t, wire.FrameCancel, &wire.Cancel{Corr: 1 << 40})); err != nil {
					t.Fatal(err)
				}
			case wire.FrameStreamEnd:
				var end wire.StreamEnd
				if err := wire.Parse(body, &end); err != nil || end.Corr != 7 || end.Kind != wire.KindDeadline {
					t.Fatalf("stream end on the wire: %+v %v, want corr 7 with the deadline kind", end, err)
				}
				swept = true
			case wire.FrameReply:
				t.Fatal("the sweep answered a stream open with a reply frame")
			}
		}
		conn.Close()
		eventually(t, "the ghost's link to go", func() bool { return len(n2.Peers()) == 1 })

		if _, err := sys2.Bus().Resume(storeAddr); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		if got := st.feed.entered.Load(); got != 0 {
			t.Fatalf("expired parked opens reached the handler (%d entries)", got)
		}
		assertQuiescent(t, h)
	})

	t.Run("an un-encodable item yields a typed end and a reclaimed producer", func(t *testing.T) {
		st := &streamStore{}
		h, _ := storeCluster(t, st, nil)
		sys1, sys2 := h.System("n1"), h.System("n2")
		s, err := sys1.Client("Store").Stream(context.Background(), "bad")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := drain(s); err == io.EOF || ctx.Err() != nil || !strings.Contains(err.Error(), "not wire-encodable") {
			t.Fatalf("stream with an unshippable item ended with %v, want the typed end naming it", err)
		}
		eventually(t, "the producer to be reclaimed", func() bool { return sys2.ActiveStreams() == 0 })
		if st.feed.cancelled.Load() != 1 {
			t.Fatalf("the handler saw %d cancels, want 1", st.feed.cancelled.Load())
		}
		assertQuiescent(t, h)
	})

	t.Run("credit after end is dropped", func(t *testing.T) {
		h, _ := storeCluster(t, &streamStore{}, nil)
		sys1, sys2, n1, n2 := h.System("n1"), h.System("n2"), h.Node("n1"), h.Node("n2")
		s, err := sys1.Client("Store").Stream(context.Background(), "list", 5)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// The wire corr n1 minted last toward n2 is the open's.
		n1.mu.Lock()
		corr := n1.peers["n2"].corr.Load()
		n1.mu.Unlock()
		if err := drain(s); err != io.EOF {
			t.Fatalf("stream ended with %v, want io.EOF", err)
		}
		assertQuiescent(t, h)
		n2.mu.Lock()
		p := n2.peers["n1"]
		n2.mu.Unlock()
		sent := sys2.Bus().Stats().Sent
		p.handleCredit(wire.StreamCredit{Corr: corr, Credit: 4})
		if got := sys2.Bus().Stats().Sent; got != sent {
			t.Fatalf("credit for an ended stream put %d messages on the callee's bus, want none", got-sent)
		}
	})

	t.Run("a callee-side admission shed of the open arrives as ErrOverloaded", func(t *testing.T) {
		st := &streamStore{}
		h, _ := storeCluster(t, st, nil)
		sys1, n2 := h.System("n1"), h.Node("n2")
		cl := sys1.Client("Store")
		bg := context.Background()
		release := saturate(t, &st.gatedStore, cl, n2)

		short := cl.With(core.WithDeadline(15 * time.Millisecond))
		eventually(t, "an inbound stream open to be shed by admission", func() bool {
			s, err := short.Stream(bg, "pump")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			return errors.Is(drain(s), core.ErrOverloaded)
		})
		release()
		assertQuiescent(t, h)
	})
}

// TestRemoteStreamStartsNoGoroutine: a remote stream runs on no goroutine of
// its own on either node. Eight streams open with their producers parked on
// credit leave exactly the goroutines eight unary calls parked in their
// handlers leave — the serve workers the handlers run on — and nothing
// started by the link; and while they flow the callee's client edge holds no
// stream of its own in between.
func TestRemoteStreamStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const parked = 8
	st := &streamStore{}
	h, _ := storeCluster(t, st, nil)
	sys1, sys2, n2 := h.System("n1"), h.System("n2"), h.Node("n2")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	idle := platformGoroutines()

	block := st.gate("block")
	base := st.served.Load()
	futs := make([]*core.Future, parked)
	for i := range futs {
		futs[i] = sys1.Client("Store").Async(ctx, "get", "block")
	}
	eventually(t, "the calls to park in their handlers", func() bool { return st.served.Load() == base+parked })
	unary := platformGoroutines()
	close(block)
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the serve pool to return to its floor", func() bool { return slices.Equal(platformGoroutines(), idle) })

	cl := sys1.Client("Store").With(core.WithStreamWindow(4))
	streams := make([]*core.Stream, parked)
	for i := range streams {
		s, err := cl.Stream(ctx, "pump")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		streams[i] = s
		for j := 0; j < 10; j++ {
			if _, err := s.Recv(ctx); err != nil {
				t.Fatalf("stream %d recv %d: %v", i, j, err)
			}
			if got := sys2.PendingStreams(); got != 0 {
				t.Fatalf("callee's client edge holds %d streams while a relayed one flows, want none", got)
			}
		}
	}
	// Nobody consumes any more: every producer runs its window out and parks.
	eventually(t, "the producers to park on credit", func() bool {
		if sys2.ActiveStreams() != parked || n2.ServedCalls() != parked {
			return false
		}
		before := sys2.Bus().Stats().Sent
		time.Sleep(20 * time.Millisecond)
		return sys2.Bus().Stats().Sent == before
	})
	if streaming := platformGoroutines(); !slices.Equal(streaming, unary) {
		t.Fatalf("%d parked remote streams run on other goroutines than %d parked remote calls:\nstreams: %v\ncalls:   %v",
			parked, parked, streaming, unary)
	}
	for _, s := range streams {
		s.Close()
	}
	assertQuiescent(t, h)
}
