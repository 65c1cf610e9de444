package core

import (
	"sync"

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
