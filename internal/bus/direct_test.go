package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// directLog is a DirectFunc that consumes everything and records, per
// source, the payloads it saw in the order it saw them. It needs no lock of
// its own: a direct function runs under the destination's route lock.
type directLog struct {
	seen map[Address][]int
	n    int
}

func (d *directLog) deliver(m Message) bool {
	if d.seen == nil {
		d.seen = map[Address][]int{}
	}
	d.seen[m.Src] = append(d.seen[m.Src], m.Payload.(int))
	d.n++
	return true
}

func checkConservation(t *testing.T, b *Bus) {
	t.Helper()
	st := b.Stats()
	if st.Sent != st.Delivered+st.Dropped+st.Held {
		t.Fatalf("conservation violated: sent=%d delivered=%d dropped=%d held=%d",
			st.Sent, st.Delivered, st.Dropped, st.Held)
	}
}

// TestDirectConservationUnderConcurrentSenders: a direct endpoint racing
// pause/resume cycles loses nothing, reorders nothing per source, queues
// nothing, and keeps the ledger exact.
func TestDirectConservationUnderConcurrentSenders(t *testing.T) {
	b := New()
	var log directLog
	dst, err := b.AttachDirect("dst", 1, log.deliver)
	if err != nil {
		t.Fatal(err)
	}
	const senders, per = 8, 2000
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := Address(fmt.Sprintf("s%d", s))
			for i := 0; i < per; i++ {
				if err := b.Send(Message{Kind: Reply, Payload: i, Src: src, Dst: "dst"}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			b.Pause("dst")
			if _, err := b.Resume("dst"); err != nil {
				t.Errorf("resume: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if _, err := b.Resume("dst"); err != nil {
		t.Fatal(err)
	}
	if log.n != senders*per || dst.Received() != senders*per || dst.Len() != 0 {
		t.Fatalf("direct saw %d, received %d, queued %d; want %d, %d, 0",
			log.n, dst.Received(), dst.Len(), senders*per, senders*per)
	}
	for src, got := range log.seen {
		for i, v := range got {
			if v != i {
				t.Fatalf("source %s: position %d holds %d", src, i, v)
			}
		}
	}
	if dups, reorders := dst.Anomalies(); dups != 0 || reorders != 0 {
		t.Fatalf("anomalies: dups=%d reorders=%d", dups, reorders)
	}
	if st := b.Stats(); st.Held != 0 || st.Delivered != senders*per {
		t.Fatalf("stats = %+v, want %d delivered and nothing held", st, senders*per)
	}
	checkConservation(t, b)
}

// TestDirectPauseHoldsResumeFlushesInOrder: a paused channel parks before
// the direct function is consulted, and Resume runs the held messages
// through it in per-source order.
func TestDirectPauseHoldsResumeFlushesInOrder(t *testing.T) {
	b := New()
	var log directLog
	if _, err := b.AttachDirect("dst", 1, log.deliver); err != nil {
		t.Fatal(err)
	}
	b.Pause("dst")
	for i := 0; i < 10; i++ {
		for _, src := range []Address{"a", "b", "c"} {
			if err := b.Send(Message{Kind: Reply, Payload: i, Src: src, Dst: "dst"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if log.n != 0 || b.HeldCount("dst") != 30 {
		t.Fatalf("paused: direct saw %d, held %d; want 0, 30", log.n, b.HeldCount("dst"))
	}
	checkConservation(t, b)
	if n, err := b.Resume("dst"); err != nil || n != 30 {
		t.Fatalf("resume = %d, %v", n, err)
	}
	for _, src := range []Address{"a", "b", "c"} {
		got := log.seen[src]
		if len(got) != 10 {
			t.Fatalf("source %s flushed %d, want 10", src, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("source %s flushed out of order: %v", src, got)
			}
		}
	}
	if st := b.Stats(); st.Held != 0 || st.Delivered != 30 {
		t.Fatalf("stats = %+v", st)
	}
	checkConservation(t, b)
}

// TestDirectSelectsByKind: the function declines requests, which queue for
// Receive exactly as on a plain endpoint, and a request-only pause parks
// those while replies keep settling inline.
func TestDirectSelectsByKind(t *testing.T) {
	b := New()
	replies := 0
	dst, err := b.AttachDirect("dst", 0, func(m Message) bool {
		if m.Kind == Request {
			return false
		}
		replies++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	b.PauseRequests("dst")
	for i := 0; i < 3; i++ {
		if err := b.Send(Message{Kind: Request, Payload: i, Src: "s", Dst: "dst"}); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(Message{Kind: Reply, Payload: i, Src: "s", Dst: "dst"}); err != nil {
			t.Fatal(err)
		}
	}
	if replies != 3 || b.HeldCount("dst") != 3 || dst.Len() != 0 {
		t.Fatalf("request-paused: %d replies settled, %d held, %d queued; want 3, 3, 0",
			replies, b.HeldCount("dst"), dst.Len())
	}
	if n, err := b.Resume("dst"); err != nil || n != 3 {
		t.Fatalf("resume = %d, %v", n, err)
	}
	for i := 0; i < 3; i++ {
		m, err := dst.Receive(context.Background())
		if err != nil || m.Kind != Request || m.Payload.(int) != i {
			t.Fatalf("receive %d = %+v, %v", i, m, err)
		}
	}
	if replies != 3 {
		t.Fatalf("resume ran %d requests through the reply path", replies-3)
	}
	checkConservation(t, b)
}

// TestDirectDetach: a detached direct endpoint is as gone as a plain one.
func TestDirectDetach(t *testing.T) {
	b := New()
	var log directLog
	if _, err := b.AttachDirect("dst", 1, log.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Message{Kind: Reply, Payload: 0, Src: "s", Dst: "dst"}); err != nil {
		t.Fatal(err)
	}
	b.Detach("dst")
	if err := b.Send(Message{Kind: Reply, Payload: 1, Src: "s", Dst: "dst"}); !errors.Is(err, ErrUnknownDst) {
		t.Fatalf("send after detach: err = %v, want ErrUnknownDst", err)
	}
	if log.n != 1 {
		t.Fatalf("direct saw %d messages, want 1", log.n)
	}
	checkConservation(t, b)
}

// TestDirectDeliveryAllocs: the inline path allocates nothing — neither the
// message (passed by value, so Send's copy stays on the stack) nor the
// per-source accounting once the source is known.
func TestDirectDeliveryAllocs(t *testing.T) {
	b := New()
	n := 0
	if _, err := b.AttachDirect("dst", 1, func(Message) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	m := Message{Kind: Reply, Op: "get", Src: "s", Dst: "dst", Corr: 1}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := b.Send(m); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("direct delivery allocates %.1f/op, want 0", avg)
	}
	if n == 0 {
		t.Fatal("direct function never ran")
	}
}
