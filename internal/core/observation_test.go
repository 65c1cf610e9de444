package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestEventHubDropAccounting drives a slow subscriber past its buffer and
// checks that drops are counted while other subscribers are unaffected.
func TestEventHubDropAccounting(t *testing.T) {
	h := NewEventHub(64)
	slow, cancelSlow := h.Subscribe(1) // fills after one event
	defer cancelSlow()
	fast, cancelFast := h.Subscribe(64)
	defer cancelFast()

	const n = 10
	for i := 0; i < n; i++ {
		h.Emit(Event{Kind: EvRequestServed, Component: "c"})
	}

	if got := h.Dropped(); got != n-1 {
		t.Fatalf("dropped = %d, want %d (slow subscriber holds 1 of %d)", got, n-1, n)
	}
	got := 0
	for {
		select {
		case <-fast:
			got++
			continue
		default:
		}
		break
	}
	if got != n {
		t.Fatalf("fast subscriber received %d events, want all %d", got, n)
	}
	if len(slow) != 1 {
		t.Fatalf("slow subscriber buffer = %d, want 1", len(slow))
	}
	if hist := h.History(EvRequestServed); len(hist) != n {
		t.Fatalf("history = %d events, want %d (drops must not affect retention)", len(hist), n)
	}
}

// TestEventHubEmitAfterUnsubscribe checks emit races no closed channel.
func TestEventHubEmitAfterUnsubscribe(t *testing.T) {
	h := NewEventHub(16)
	_, cancel := h.Subscribe(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			h.Emit(Event{Kind: EvRequestServed})
		}
	}()
	cancel()
	<-done
}

// TestEventHubHistoryOrderAndCap checks the striped history preserves
// emission order and the retention cap.
func TestEventHubHistoryOrderAndCap(t *testing.T) {
	h := NewEventHub(32)
	for i := 0; i < 100; i++ {
		h.Emit(Event{Kind: EvRequestServed, Detail: string(rune('a' + i%26))})
	}
	hist := h.History(0)
	if len(hist) != 32 {
		t.Fatalf("history length = %d, want cap 32", len(hist))
	}
	// The retained window is the last 32 emits, in order.
	for i, e := range hist {
		want := string(rune('a' + (100-32+i)%26))
		if e.Detail != want {
			t.Fatalf("history[%d] = %q, want %q", i, e.Detail, want)
		}
	}
}

// TestTriggerCooldownSuppressesRefire floods the system with activity (each
// served request now schedules a coalesced event-driven evaluation) and
// checks the cooldown still limits the rule to one firing in the window.
func TestTriggerCooldownSuppressesRefire(t *testing.T) {
	sys := startKV(t, Options{})
	fired := make(chan struct{}, 64)
	err := sys.AddTrigger(TriggerRule{
		Name:     "hot",
		When:     func(map[string]float64) bool { return true },
		Action:   func(*System) error { fired <- struct{}{}; return nil },
		Cooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.StartTriggers(5 * time.Millisecond)
	for i := 0; i < 50; i++ {
		if _, err := sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("trigger never fired")
	}
	time.Sleep(100 * time.Millisecond) // several coalesce windows and ticks
	select {
	case <-fired:
		t.Fatal("cooldown ignored: rule refired inside the window")
	default:
	}
}

// TestTriggerActionFailureKind checks failing trigger actions are reported
// as EvTriggerActionFailed, not conflated with guard failures.
func TestTriggerActionFailureKind(t *testing.T) {
	sys := startKV(t, Options{})
	err := sys.AddEventTrigger(EventTrigger{
		Name:   "broken-recovery",
		Kind:   EvRequestFailed,
		Action: func(*System, Event) error { return errors.New("recovery exploded") },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = sys.Client("Store").Call(context.Background(), "get", "missing") // fails, fires the trigger

	deadline := time.Now().Add(2 * time.Second)
	for {
		hist := sys.Events().History(EvTriggerActionFailed)
		if len(hist) > 0 {
			if hist[0].Detail == "" || hist[0].Kind != EvTriggerActionFailed {
				t.Fatalf("event = %+v", hist[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no trigger-action-failed event observed")
		}
		time.Sleep(time.Millisecond)
	}
	if len(sys.Events().History(EvGuardFailed)) != 0 {
		t.Fatal("action failure must not be reported as a guard failure")
	}
}
