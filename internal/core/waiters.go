package core

import (
	"context"
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

// waitSlot is what a synchronous caller parks on: the reply channel its
// waiter-table entry points at, and the fallback timer that bounds the wait
// when the call's context carries no deadline (created on first use, reset
// afterwards — go1.23 timers need no drain). Client.Call and a component's
// CallContext lease one from waitSlots; a typed envelope embeds its own. A
// slot goes back to where it was leased from only on the clean reply path:
// its channel then held exactly the one signal the waiter table routed and
// is empty again. A caller that gave up abandons the slot to the collector —
// a reply may still be on its way into the channel, and the next call must
// not read it.
type waitSlot struct {
	w     chan connector.ReplyPayload
	timer *time.Timer
}

var waitSlots = sync.Pool{New: func() any {
	return &waitSlot{w: make(chan connector.ReplyPayload, 1)}
}}

// waitEnd says how a wait ended.
type waitEnd uint8

const (
	waitReplied  waitEnd = iota
	waitCtxDone          // the call's context was cancelled or hit its deadline
	waitTimedOut         // the fallback elapsed (context without a deadline)
)

// await parks the caller until the reply arrives, ctx is done or — armed only
// when ctx has no deadline of its own to cover the wait — fallback elapses.
// The timer is stoppable and reused, never time.After: a high-QPS caller
// must not leave a pending timer behind per request.
func (ws *waitSlot) await(ctx context.Context, fallback time.Duration) (connector.ReplyPayload, waitEnd) {
	var timerC <-chan time.Time
	if _, ok := ctx.Deadline(); !ok {
		if ws.timer == nil {
			ws.timer = time.NewTimer(fallback)
		} else {
			ws.timer.Reset(fallback)
		}
		timerC = ws.timer.C
	}
	select {
	case payload := <-ws.w:
		if timerC != nil {
			ws.timer.Stop()
		}
		return payload, waitReplied
	case <-ctx.Done():
		if timerC != nil {
			ws.timer.Stop()
		}
		return connector.ReplyPayload{}, waitCtxDone
	case <-timerC:
		return connector.ReplyPayload{}, waitTimedOut
	}
}

// abandon is what a synchronous caller does when it stops waiting for corr:
// it takes its waiter entry back and, if the entry was still there (no reply
// beat it), tells dst that src gave up, so queued or in-service work for the
// call can be reclaimed at once — by the callee, and by whatever mediates on
// the way: a connector drops its pending entry and passes the cancel on
// under its own correlation id, the gateway relays it as a wire cancel
// frame. Best-effort: a lost cancel only costs the reclamation, never
// correctness. Deadline expiry needs no cancel — the lapsed deadline dl
// (unix nanos, 0 for none) itself revokes the work at every queueing point.
func abandon(b *bus.Bus, waiters *replyWaiters, src, dst bus.Address, corr uint64, dl int64) {
	if _, ok := waiters.take(corr); ok {
		sendCancel(b, src, dst, corr, dl)
	}
}

// sendCancel sends the revocation abandon describes, for callers that have
// already taken their waiter entry (futures).
func sendCancel(b *bus.Bus, src, dst bus.Address, corr uint64, dl int64) {
	if dl != 0 && time.Now().UnixNano() >= dl {
		return
	}
	_ = b.Send(bus.Message{Kind: bus.Control, Op: bus.OpCancel, Src: src, Dst: dst, Corr: corr})
}
