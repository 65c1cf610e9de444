package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

var origin = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func attach(t *testing.T, b *Bus, addr Address) *Endpoint {
	t.Helper()
	e, err := b.Attach(addr, 0)
	if err != nil {
		t.Fatalf("attach %s: %v", addr, err)
	}
	return e
}

func TestSendDeliver(t *testing.T) {
	b := New()
	dst := attach(t, b, "dst")
	if err := b.Send(Message{Kind: Event, Op: "ping", Src: "src", Dst: "dst"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := dst.Receive(context.Background())
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	if m.Op != "ping" || m.ID == 0 || m.Seq != 1 {
		t.Fatalf("got %+v", m)
	}
}

// TestSentAtStampsTracedRequestsOnly: the send stamp's one reader is a
// traced request's server span, so Send reads the clock for a request whose
// Trace is set and for nothing else.
func TestSentAtStampsTracedRequestsOnly(t *testing.T) {
	sim := clock.NewSim(origin)
	b := New(WithClock(sim))
	dst := attach(t, b, "dst")
	for _, tc := range []struct {
		name  string
		m     Message
		stamp bool
	}{
		{"traced request", Message{Kind: Request, Trace: 7, Span: 1}, true},
		{"untraced request", Message{Kind: Request}, false},
		{"reply of a traced call", Message{Kind: Reply, Trace: 7, Span: 1}, false},
		{"untraced reply", Message{Kind: Reply}, false},
	} {
		tc.m.Src, tc.m.Dst = "src", "dst"
		if err := b.Send(tc.m); err != nil {
			t.Fatalf("%s: send: %v", tc.name, err)
		}
		m, err := dst.Receive(context.Background())
		if err != nil {
			t.Fatalf("%s: receive: %v", tc.name, err)
		}
		want := int64(0)
		if tc.stamp {
			want = origin.UnixNano() // the bus clock's reading
		}
		if m.SentAt != want {
			t.Fatalf("%s: SentAt = %d, want %d", tc.name, m.SentAt, want)
		}
	}
}

func TestUnknownDestination(t *testing.T) {
	b := New()
	err := b.Send(Message{Dst: "nowhere"})
	if !errors.Is(err, ErrUnknownDst) {
		t.Fatalf("err = %v, want ErrUnknownDst", err)
	}
}

func TestDuplicateAttach(t *testing.T) {
	b := New()
	attach(t, b, "a")
	if _, err := b.Attach("a", 0); !errors.Is(err, ErrAddressTaken) {
		t.Fatalf("err = %v, want ErrAddressTaken", err)
	}
}

func TestFIFOPerPair(t *testing.T) {
	b := New()
	dst := attach(t, b, "dst")
	for i := 0; i < 100; i++ {
		if err := b.Send(Message{Kind: Event, Op: "e", Payload: i, Src: "s", Dst: "dst"}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		m, _ := dst.Receive(context.Background())
		if m.Payload.(int) != i {
			t.Fatalf("out of order: got %v at %d", m.Payload, i)
		}
	}
	dups, reorders := dst.Anomalies()
	if dups != 0 || reorders != 0 {
		t.Fatalf("anomalies dups=%d reorders=%d", dups, reorders)
	}
}

func TestPauseHoldsAndResumeFlushesInOrder(t *testing.T) {
	b := New()
	dst := attach(t, b, "dst")
	b.Pause("dst")
	for i := 0; i < 10; i++ {
		if err := b.Send(Message{Kind: Event, Payload: i, Src: "s", Dst: "dst"}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if dst.Len() != 0 {
		t.Fatalf("paused endpoint received %d messages", dst.Len())
	}
	if got := b.HeldCount("dst"); got != 10 {
		t.Fatalf("held = %d, want 10", got)
	}
	n, err := b.Resume("dst")
	if err != nil || n != 10 {
		t.Fatalf("resume = %d, %v", n, err)
	}
	for i := 0; i < 10; i++ {
		m, _ := dst.Receive(context.Background())
		if m.Payload.(int) != i {
			t.Fatalf("flush out of order at %d: %v", i, m.Payload)
		}
	}
}

func TestRedirect(t *testing.T) {
	b := New()
	attach(t, b, "old")
	newEp := attach(t, b, "new")
	if err := b.Redirect("old", "new"); err != nil {
		t.Fatalf("redirect: %v", err)
	}
	if err := b.Send(Message{Kind: Request, Op: "q", Src: "c", Dst: "old"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, _ := newEp.Receive(context.Background())
	if m.Dst != "new" {
		t.Fatalf("dst = %s, want new", m.Dst)
	}
	if b.Stats().Redirects != 1 {
		t.Fatalf("redirects = %d, want 1", b.Stats().Redirects)
	}
	// Removing the rule restores direct routing.
	if err := b.Redirect("old", ""); err != nil {
		t.Fatalf("clear redirect: %v", err)
	}
	if err := b.Send(Message{Dst: "old", Src: "c"}); err != nil {
		t.Fatalf("send to old after clear: %v", err)
	}
}

func TestRedirectCycleRejected(t *testing.T) {
	b := New()
	attach(t, b, "a")
	attach(t, b, "b")
	if err := b.Redirect("a", "b"); err != nil {
		t.Fatalf("redirect a->b: %v", err)
	}
	if err := b.Redirect("b", "a"); !errors.Is(err, ErrRedirectCycle) {
		t.Fatalf("err = %v, want ErrRedirectCycle", err)
	}
}

func TestTransferHeld(t *testing.T) {
	b := New()
	attach(t, b, "old")
	newEp := attach(t, b, "new")
	b.Pause("old")
	for i := 0; i < 5; i++ {
		_ = b.Send(Message{Kind: Event, Payload: i, Src: "s", Dst: "old"})
	}
	if n := b.TransferHeld("old", "new"); n != 5 {
		t.Fatalf("transferred = %d, want 5", n)
	}
	if _, err := b.Resume("new"); err != nil {
		t.Fatalf("resume new: %v", err)
	}
	for i := 0; i < 5; i++ {
		m, _ := newEp.Receive(context.Background())
		if m.Payload.(int) != i || m.Dst != "new" {
			t.Fatalf("transfer order/dst wrong: %+v", m)
		}
	}
}

func TestDetachParksInsteadOfLosing(t *testing.T) {
	b := New()
	attach(t, b, "gone")
	b.Pause("gone") // simulate reconfiguration: block, then detach
	b.Detach("gone")
	if err := b.Send(Message{Kind: Event, Src: "s", Dst: "gone"}); err != nil {
		t.Fatalf("send to paused+detached: %v", err)
	}
	if got := b.HeldCount("gone"); got != 1 {
		t.Fatalf("held = %d, want 1 (no silent loss)", got)
	}
}

type dropEven struct{ n int }

func (d *dropEven) Name() string { return "dropEven" }
func (d *dropEven) Intercept(m *Message) Verdict {
	d.n++
	if d.n%2 == 0 {
		return Drop
	}
	return Pass
}

func TestInterceptorDrop(t *testing.T) {
	b := New()
	dst := attach(t, b, "dst")
	b.AddInterceptor(&dropEven{})
	for i := 0; i < 10; i++ {
		_ = b.Send(Message{Kind: Event, Src: "s", Dst: "dst"})
	}
	st := b.Stats()
	if st.Dropped != 5 || dst.Received() != 5 {
		t.Fatalf("dropped=%d received=%d, want 5/5", st.Dropped, dst.Received())
	}
	if !b.RemoveInterceptor("dropEven") {
		t.Fatal("remove failed")
	}
	if b.RemoveInterceptor("dropEven") {
		t.Fatal("double remove succeeded")
	}
}

type rerouter struct{ to Address }

func (r rerouter) Name() string { return "reroute" }
func (r rerouter) Intercept(m *Message) Verdict {
	m.Dst = r.to
	return Redirected
}

func TestInterceptorRedirect(t *testing.T) {
	b := New()
	attach(t, b, "a")
	bEp := attach(t, b, "b")
	b.AddInterceptor(rerouter{to: "b"})
	_ = b.Send(Message{Kind: Event, Src: "s", Dst: "a"})
	if bEp.Received() != 1 {
		t.Fatalf("b received %d, want 1", bEp.Received())
	}
}

func TestDelayedDeliveryWithSimClock(t *testing.T) {
	sim := clock.NewSim(origin)
	b := New(WithClock(sim), WithDelay(func(src, dst Address) time.Duration {
		return 10 * time.Millisecond
	}))
	dst := attach(t, b, "dst")
	_ = b.Send(Message{Kind: Event, Src: "s", Dst: "dst"})
	if b.InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", b.InFlight())
	}
	if dst.Len() != 0 {
		t.Fatal("delivered before delay elapsed")
	}
	sim.Advance(10 * time.Millisecond)
	if dst.Len() != 1 || b.InFlight() != 0 {
		t.Fatalf("len=%d inflight=%d, want 1/0", dst.Len(), b.InFlight())
	}
}

func TestWaitIdle(t *testing.T) {
	sim := clock.NewSim(origin)
	b := New(WithClock(sim), WithDelay(func(_, _ Address) time.Duration { return time.Second }))
	attach(t, b, "dst")
	for i := 0; i < 50; i++ {
		_ = b.Send(Message{Kind: Event, Src: "s", Dst: "dst"})
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- b.WaitIdle(ctx)
	}()
	// Give the waiter a moment to park, then advance simulated time.
	time.Sleep(10 * time.Millisecond)
	sim.Advance(time.Second)
	if err := <-done; err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
}

func TestWaitIdleContextCancel(t *testing.T) {
	sim := clock.NewSim(origin)
	b := New(WithClock(sim), WithDelay(func(_, _ Address) time.Duration { return time.Hour }))
	attach(t, b, "dst")
	_ = b.Send(Message{Kind: Event, Src: "s", Dst: "dst"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.WaitIdle(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestMailboxFull(t *testing.T) {
	b := New()
	if _, err := b.Attach("tiny", 2); err != nil {
		t.Fatal(err)
	}
	_ = b.Send(Message{Kind: Event, Src: "s", Dst: "tiny"})
	_ = b.Send(Message{Kind: Event, Src: "s", Dst: "tiny"})
	err := b.Send(Message{Kind: Event, Src: "s", Dst: "tiny"})
	if !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("err = %v, want ErrMailboxFull", err)
	}
}

// TestRefusedSendKeepsTheLedgerBalanced: a Send refused with ErrMailboxFull
// was not sent — it used to count as Sent and as nothing else, after which
// Sent == Delivered + Dropped + Held never balanced again. The same on the two
// other roads into a full mailbox: a Resume that cannot flush everything
// leaves the rest Held, and a delayed message refused on arrival, which
// nobody can be handed back, is Dropped.
func TestRefusedSendKeepsTheLedgerBalanced(t *testing.T) {
	balanced := func(b *Bus, want Stats) {
		t.Helper()
		st := b.Stats()
		if st.Sent != st.Delivered+st.Dropped+st.Held {
			t.Fatalf("ledger does not balance: %+v", st)
		}
		if st.Sent != want.Sent || st.Delivered != want.Delivered || st.Dropped != want.Dropped || st.Held != want.Held {
			t.Fatalf("ledger %+v, want sent=%d delivered=%d dropped=%d held=%d",
				st, want.Sent, want.Delivered, want.Dropped, want.Held)
		}
	}
	ev := Message{Kind: Event, Src: "s", Dst: "tiny"}

	b := New()
	if _, err := b.Attach("tiny", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Send(ev); (i >= 2) != errors.Is(err, ErrMailboxFull) {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	balanced(b, Stats{Sent: 2, Delivered: 2})

	// Resume into a mailbox that takes only part of what parked.
	b = New()
	tiny, err := b.Attach("tiny", 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Pause("tiny")
	for i := 0; i < 5; i++ {
		if err := b.Send(ev); err != nil {
			t.Fatal(err)
		}
	}
	balanced(b, Stats{Sent: 5, Held: 5})
	if n, err := b.Resume("tiny"); n != 2 || !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("resume flushed %d, %v", n, err)
	}
	balanced(b, Stats{Sent: 5, Delivered: 2, Held: 3})
	for i := 0; i < 2; i++ {
		if _, ok := tiny.TryReceive(); !ok {
			t.Fatal("mailbox empty")
		}
	}
	b.Pause("tiny") // what stayed parked is flushed by the next resume
	if n, err := b.Resume("tiny"); n != 2 || !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("second resume flushed %d, %v", n, err)
	}
	balanced(b, Stats{Sent: 5, Delivered: 4, Held: 1})

	// A delayed message that finds the mailbox full when it lands.
	sim := clock.NewSim(origin)
	b = New(WithClock(sim), WithDelay(func(_, _ Address) time.Duration { return time.Millisecond }))
	if _, err := b.Attach("tiny", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Send(ev); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(time.Millisecond)
	balanced(b, Stats{Sent: 3, Delivered: 2, Dropped: 1})
}

// parked reports the receivers parked on e.
func parked(e *Endpoint) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.waiting
}

// waitParked waits until n receivers are parked on e.
func waitParked(t *testing.T, e *Endpoint, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); parked(e) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d receivers parked, want %d", parked(e), n)
		}
	}
}

// receiveResult is what one parked receiver returned, and under which
// context.
type receiveResult struct {
	ctx string
	m   Message
	err error
}

func receiveWithin(t *testing.T, results <-chan receiveResult, what string) receiveResult {
	t.Helper()
	select {
	case r := <-results:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned", what)
		return receiveResult{}
	}
}

// TestReceiveContextCancel: receivers parked under two contexts. Cancelling
// one returns every receiver parked under it with the context's error — its
// wake reaches one, and each passes it on — while the other context's
// receivers stay parked and still receive. A context done before Receive is
// refused at once.
func TestReceiveContextCancel(t *testing.T) {
	const n = 4
	b := New()
	dst := attach(t, b, "dst")
	cancelled, cancel := context.WithCancel(context.Background())
	live, stop := context.WithCancel(context.Background())
	defer stop()
	results := make(chan receiveResult, 2*n)
	for i := 0; i < n; i++ {
		for name, ctx := range map[string]context.Context{"cancelled": cancelled, "live": live} {
			go func() {
				m, err := dst.Receive(ctx)
				results <- receiveResult{name, m, err}
			}()
		}
	}
	waitParked(t, dst, 2*n)
	cancel()
	for i := 0; i < n; i++ {
		r := receiveWithin(t, results, fmt.Sprintf("receiver %d of %d under the cancelled context", i+1, n))
		if r.ctx != "cancelled" || !errors.Is(r.err, context.Canceled) {
			t.Fatalf("a receiver under the %s context returned %+v, want context.Canceled", r.ctx, r)
		}
	}
	waitParked(t, dst, n)
	for i := 1; i <= n; i++ {
		if err := b.Send(Message{Kind: Event, Op: "ping", Src: "src", Dst: "dst", Corr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if r := receiveWithin(t, results, "a receiver under the live context"); r.ctx != "live" || r.err != nil || r.m.Op != "ping" {
			t.Fatalf("a receiver under the %s context returned %+v, want a message", r.ctx, r)
		}
	}
	if _, err := dst.Receive(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Receive under a done context: err = %v, want context.Canceled", err)
	}
}

// TestDetachWakesReceivers: closing an endpoint returns every receiver
// parked on it with ErrClosed — one wake, passed on by each receiver that
// leaves.
func TestDetachWakesReceivers(t *testing.T) {
	const n = 8
	b := New()
	dst := attach(t, b, "dst")
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = dst.Receive(context.Background())
		}(i)
	}
	waitParked(t, dst, n)
	b.Detach("dst")
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d receivers still parked after Detach", parked(dst), n)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("receiver %d err = %v, want ErrClosed", i, err)
		}
	}
}

// TestSendReceiveAllocs: a steady-state Send→Receive round trip allocates
// nothing, with both ends parked under a context that can end: a receiver
// registers its context's cancellation wake once, not on every Receive.
func TestSendReceiveAllocs(t *testing.T) {
	b := New()
	srv, cli := attach(t, b, "srv"), attach(t, b, "cli")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			m, err := srv.Receive(ctx)
			if err != nil {
				return
			}
			_ = b.Send(Message{Kind: Reply, Op: m.Op, Src: "srv", Dst: "cli", Corr: m.Corr})
		}
	}()
	corr := uint64(0)
	roundTrip := func() {
		corr++
		if err := b.Send(Message{Kind: Request, Op: "get", Src: "cli", Dst: "srv", Corr: corr}); err != nil {
			t.Fatal(err)
		}
		if m, err := cli.Receive(ctx); err != nil || m.Corr != corr {
			t.Fatalf("round trip %d: %+v, %v", corr, m, err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip() // warm both rings, the sequence tables and the watches
	}
	if avg := testing.AllocsPerRun(1000, roundTrip); avg != 0 {
		t.Fatalf("a Send→Receive round trip allocates %.2f/op, want 0", avg)
	}
	cancel()
	<-served
}

func TestConservationInvariant(t *testing.T) {
	// Property: when the bus is idle, Sent == Delivered + Dropped + Held.
	f := func(ops []uint8) bool {
		b := New()
		ep, _ := b.Attach("a", 1<<16)
		_ = ep
		if _, err := b.Attach("b", 1<<16); err != nil {
			return false
		}
		b.AddInterceptor(&dropEven{})
		paused := false
		for _, op := range ops {
			switch op % 4 {
			case 0:
				_ = b.Send(Message{Kind: Event, Src: "x", Dst: "a"})
			case 1:
				_ = b.Send(Message{Kind: Event, Src: "x", Dst: "b"})
			case 2:
				if !paused {
					b.Pause("a")
					paused = true
				}
			case 3:
				if paused {
					_, _ = b.Resume("a")
					paused = false
				}
			}
		}
		st := b.Stats()
		return st.Sent == st.Delivered+st.Dropped+st.Held
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNoLossNoDupAcrossPauseResumeCycles(t *testing.T) {
	// E4 core invariant at the bus level: unique payloads sent across many
	// pause/resume cycles are all received exactly once, in order.
	b := New()
	dst, _ := b.Attach("dst", 1<<15)
	const total = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if i%97 == 0 {
				b.Pause("dst")
			}
			if err := b.Send(Message{Kind: Event, Payload: i, Src: "s", Dst: "dst"}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if i%97 == 53 {
				_, _ = b.Resume("dst")
			}
		}
		_, _ = b.Resume("dst")
	}()
	wg.Wait()
	seen := make(map[int]bool, total)
	for len(seen) < total {
		m, ok := dst.TryReceive()
		if !ok {
			t.Fatalf("ran dry after %d messages", len(seen))
		}
		v := m.Payload.(int)
		if seen[v] {
			t.Fatalf("duplicate payload %d", v)
		}
		seen[v] = true
	}
	dups, reorders := dst.Anomalies()
	if dups != 0 || reorders != 0 {
		t.Fatalf("anomalies dups=%d reorders=%d", dups, reorders)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Request: "request", Reply: "reply", Event: "event", Control: "control", Kind(99): "unknown"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestConcurrentSendersManyReceivers(t *testing.T) {
	b := New()
	dst, _ := b.Attach("dst", 1<<15)
	const senders, per = 8, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.Send(Message{Kind: Event, Src: Address(fmt.Sprintf("s%d", s)), Dst: "dst", Payload: i}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()
	if got := dst.Received(); got != senders*per {
		t.Fatalf("received %d, want %d", got, senders*per)
	}
	dups, reorders := dst.Anomalies()
	if dups != 0 || reorders != 0 {
		t.Fatalf("anomalies under concurrency: dups=%d reorders=%d", dups, reorders)
	}
}
