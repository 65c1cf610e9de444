package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
)

// replyWaiters correlates outstanding requests with their reply channels.
// Correlation ids are drawn from an atomic counter, so consecutive calls
// land on consecutive shards and concurrent callers almost never share a
// lock — the call path pays one short sharded critical section instead of a
// process-wide mutex.
const waiterShards = 16 // power of two

type replyWaiters struct {
	shards [waiterShards]waiterShard
}

type waiterShard struct {
	mu sync.Mutex
	m  map[uint64]chan connector.ReplyPayload
	_  [6]uint64 // pad to 64 bytes: neighbouring shards' locks must not share a cache line
}

func (w *replyWaiters) shard(corr uint64) *waiterShard {
	return &w.shards[corr&(waiterShards-1)]
}

// add registers the reply channel for corr.
func (w *replyWaiters) add(corr uint64, ch chan connector.ReplyPayload) {
	s := w.shard(corr)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[uint64]chan connector.ReplyPayload{}
	}
	s.m[corr] = ch
	s.mu.Unlock()
}

// outstanding counts registered waiters across all shards — the number of
// in-flight calls still awaiting replies. Diagnostic only (PendingCalls and
// the cancellation-storm leak regression); the shards are locked one at a
// time, so the count is a consistent-per-shard snapshot, exact when idle.
func (w *replyWaiters) outstanding() int {
	n := 0
	for i := range w.shards {
		s := &w.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// settle hands a reply's payload to the waiter registered for corr, if it is
// still there (the caller may have given up and taken the slot itself). The
// channel has capacity 1 and a slot is taken once, so the send never blocks
// — which is what lets replies settle inside a bus.DirectFunc. A typed
// call's reply carries its envelope, not a ReplyPayload: the waiter gets the
// zero payload as a pure completion signal.
func (w *replyWaiters) settle(corr uint64, payload any) {
	if ch, ok := w.take(corr); ok {
		p, _ := payload.(connector.ReplyPayload)
		ch <- p
	}
}

// take removes and returns the reply channel for corr, if present.
func (w *replyWaiters) take(corr uint64) (chan connector.ReplyPayload, bool) {
	s := w.shard(corr)
	s.mu.Lock()
	ch, ok := s.m[corr]
	if ok {
		delete(s.m, corr)
	}
	s.mu.Unlock()
	return ch, ok
}

// errFallbackElapsed is the cause of a wait its envelope's lapser ended; the
// other cause is the context's own error. It stays private: the system
// fallback's expiry reads "timed out" and has no identity a caller can match
// (see lapse), but its span closes as a deadline (outcomeOf).
var errFallbackElapsed = errors.New("timed out")

// abandon is what a caller does when it stops waiting: it takes its waiter
// entry back and, if the entry was still there (no reply beat it), revokes the
// request. It reports whether it was.
func (a *admitted) abandon() bool {
	_, ok := a.waiters.take(a.corr)
	if ok {
		a.revoke()
	}
	return ok
}

// revoke tells dst that the caller gave up on the call, so queued or
// in-service work for it can be reclaimed at once: by the callee, and by
// whatever mediates on the way — a connector drops its pending entry and
// passes the cancel on under its own correlation id, the gateway relays it as
// a wire cancel frame. Best-effort: a lost cancel only costs the reclamation,
// never correctness. Deadline expiry needs no cancel — the lapsed deadline
// itself revokes the work at every queueing point.
func (a *admitted) revoke() {
	if a.dl != 0 && time.Now().UnixNano() >= a.dl {
		return
	}
	_ = a.sys.bus.Send(bus.Message{Kind: bus.Control, Op: bus.OpCancel, Src: a.src, Dst: a.dst, Corr: a.corr})
}

// lapse is the error of a call whose wait ended without a reply — cause is
// the context's error or errFallbackElapsed (see admitted.budget for which
// identity the timer's expiry carries).
func (a *admitted) lapse(cause error) error {
	switch {
	case cause != errFallbackElapsed: // the context's own error
	case a.budget > 0:
		cause = context.DeadlineExceeded
	default:
		return fmt.Errorf("core: call %s.%s %w", a.name, a.op, cause) // "… timed out"
	}
	return fmt.Errorf("core: call %s.%s: %w", a.name, a.op, cause)
}
