package bus

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint is a component's mailbox on the bus. Receivers consume messages
// in delivery order; the endpoint also keeps per-source sequence accounting
// so tests and the RAML guard can verify FIFO preservation across
// reconfigurations.
//
// The mailbox is a growable ring buffer: it starts small, doubles up to the
// configured capacity, and reuses slots afterwards, so steady-state
// enqueue/dequeue allocates nothing. The endpoint shares its mutex with the
// bus route that owns it: sequence assignment, the paused check and the
// enqueue are one critical section, and a delivery pays for one lock, not
// two.
//
// Deadline-carrying requests take a second lane (DESIGN.md §9): a bounded
// binary heap keyed on Message.Deadline, served earliest-deadline-first with
// lazy shedding of already-expired entries. Everything else — deadline-less
// requests, replies, events, control — keeps the FIFO ring, so the
// zero-alloc steady-state path is unchanged. Both lanes share the one
// capacity bound.
//
// An endpoint attached with a DirectFunc (Bus.AttachDirect) offers every
// delivery to that function first and queues only what it declines.
//
// A receiver parks on one channel, notify, whatever it waits for (DESIGN.md
// §2). A delivery wakes one receiver; the endpoint closing, or a context
// receivers park under ending, sweeps them all: one wake, passed on by each
// receiver it reaches.
type Endpoint struct {
	addr Address

	mu      *sync.Mutex // shared with the owning route
	buf     []Message   // ring storage; len(buf) is the current allocation
	head    int         // index of the oldest message
	count   int         // messages currently queued in the ring
	cap     int         // hard mailbox capacity (both lanes combined)
	closed  bool
	waiting int           // receivers parked on notify, guarded by mu
	notify  chan struct{} // capacity 1: wake one waiting receiver
	// sweep counts sweeps; stale counts receivers parked before the latest
	// one and not woken since — while any is left, every wake is passed on.
	sweep uint64
	stale int
	// watches holds one entry per live context receivers park under;
	// unwatched is the Done channel of the last one a Receive released.
	watches   []*ctxWatch
	unwatched <-chan struct{}

	edfq      []Message     // deadline lane: min-heap on (Deadline, ID)
	fifoOnly  bool          // disable the EDF lane (seed-comparison mode)
	stats     *busStats     // owning bus counters, for expired-discard accounting
	depth     atomic.Int64  // lock-free mirror of count+len(edfq) for admission
	expired   uint64        // messages shed because their deadline lapsed
	onExpired func(Message) // optional shed hook; runs under mu, must be fast
	direct    DirectFunc    // optional inline consumer; immutable after attach

	received  uint64
	arrivals  seqTable // last seen per-source sequence; the dst is fixed
	reordered uint64
	duplicate uint64
}

const initialRing = 16

func newEndpoint(addr Address, capacity int, mu *sync.Mutex, stats *busStats, fifoOnly bool) *Endpoint {
	ring := initialRing
	if capacity < ring {
		ring = capacity
	}
	return &Endpoint{
		addr:     addr,
		mu:       mu,
		buf:      make([]Message, ring),
		cap:      capacity,
		fifoOnly: fifoOnly,
		stats:    stats,
		notify:   make(chan struct{}, 1),
		arrivals: newSeqTable(),
	}
}

// Addr returns the endpoint's bus address.
func (e *Endpoint) Addr() Address { return e.addr }

// pushLocked appends m to the ring, growing it if allowed; callers hold
// e.mu and have checked count < cap.
func (e *Endpoint) pushLocked(m *Message) {
	if e.count == len(e.buf) {
		grown := len(e.buf) * 2
		if grown > e.cap {
			grown = e.cap
		}
		next := make([]Message, grown)
		n := copy(next, e.buf[e.head:])
		copy(next[n:], e.buf[:e.head])
		e.buf = next
		e.head = 0
	}
	e.buf[(e.head+e.count)%len(e.buf)] = *m
	e.count++
}

// popLocked removes and returns the oldest message; callers hold e.mu and
// have checked count > 0. The slot is zeroed so the ring does not retain
// payload references.
func (e *Endpoint) popLocked() Message {
	m := e.buf[e.head]
	e.buf[e.head] = Message{}
	e.head = (e.head + 1) % len(e.buf)
	e.count--
	return m
}

// pendingLocked reports queued messages across both lanes; callers hold e.mu.
func (e *Endpoint) pendingLocked() int { return e.count + len(e.edfq) }

// syncDepthLocked refreshes the lock-free depth mirror; callers hold e.mu.
func (e *Endpoint) syncDepthLocked() { e.depth.Store(int64(e.pendingLocked())) }

// noteExpiredLocked records one shed message (deadline lapsed before
// delivery) and fires the hook; callers hold e.mu. Bus-level stat
// adjustment is the caller's job — the right adjustment differs between a
// message shed out of the mailbox (already counted delivered) and one shed
// out of a held queue (still counted held).
func (e *Endpoint) noteExpiredLocked(m *Message) {
	e.expired++
	if e.onExpired != nil {
		e.onExpired(*m)
	}
}

// dequeueLocked pops the next message to serve under the EDF policy,
// lazily shedding deadline lane entries that expired before now (unix
// nanoseconds). Priority: ring head when it is not a Request (replies,
// events and control never starve behind deadlined work), then the
// earliest future deadline, then the ring. It reports false when every
// queued message was shed and nothing remains. Callers hold e.mu.
func (e *Endpoint) dequeueLocked(now int64) (Message, bool) {
	for {
		if e.count > 0 && e.buf[e.head].Kind != Request {
			m := e.popLocked()
			e.syncDepthLocked()
			return m, true
		}
		if len(e.edfq) > 0 {
			var m Message
			m, e.edfq = edfPop(e.edfq)
			if m.Deadline <= now {
				// Shed: the caller's budget lapsed while the request queued.
				// It was counted delivered at enqueue; reclassify as dropped
				// so Sent == Delivered + Dropped + Held stays exact.
				e.noteExpiredLocked(&m)
				if e.stats != nil {
					e.stats.delivered.Add(^uint64(0))
					e.stats.dropped.Add(1)
				}
				continue
			}
			e.syncDepthLocked()
			return m, true
		}
		if e.count > 0 {
			m := e.popLocked()
			e.syncDepthLocked()
			return m, true
		}
		e.syncDepthLocked()
		return Message{}, false
	}
}

// nowIfDeadlined returns the wall clock in unix nanoseconds when the
// deadline lane is non-empty, 0 otherwise — the FIFO-only fast path never
// touches the clock. Callers hold e.mu.
func (e *Endpoint) nowIfDeadlined() int64 {
	if len(e.edfq) == 0 {
		return 0
	}
	return time.Now().UnixNano()
}

// acceptLocked delivers m: the direct function consumes it inline, or —
// when there is none, or it declines — the message queues. It reports false
// when the message had to queue and the mailbox is full or closed. Callers
// hold e.mu (the route lock).
func (e *Endpoint) acceptLocked(m *Message) bool {
	if e.direct != nil && e.direct(*m) {
		e.noteArrivalLocked(m)
		return true
	}
	return e.enqueueLocked(m)
}

// enqueueLocked appends m and wakes a parked receiver if one is waiting; it
// reports false when the mailbox is full or closed. Deadline-carrying
// requests go to the EDF lane, everything else to the FIFO ring; both lanes
// share the capacity bound. Callers hold e.mu (the route lock).
func (e *Endpoint) enqueueLocked(m *Message) bool {
	if e.closed || e.pendingLocked() >= e.cap {
		return false
	}
	if m.Kind == Request && m.Deadline != 0 && !e.fifoOnly {
		e.edfq = edfPush(e.edfq, m)
	} else {
		e.pushLocked(m)
	}
	e.syncDepthLocked()
	e.noteArrivalLocked(m)
	e.wakeLocked()
	return true
}

// wakeLocked wakes one parked receiver, if there is one and no wake is
// pending already; callers hold e.mu.
func (e *Endpoint) wakeLocked() {
	if e.waiting > 0 {
		select {
		case e.notify <- struct{}{}:
		default:
		}
	}
}

// sweepLocked wakes every receiver parked now: one directly, the others
// through the wake each passes on (see Receive). Callers hold e.mu.
func (e *Endpoint) sweepLocked() {
	e.sweep++
	e.stale = e.waiting
	e.wakeLocked()
}

// noteArrivalLocked counts one delivered message and checks its per-source
// sequence number against the last one seen; callers hold e.mu.
func (e *Endpoint) noteArrivalLocked(m *Message) {
	e.received++
	cell := e.arrivals.cell(m.Src)
	switch last := *cell; {
	case m.Seq == last && m.Seq != 0:
		e.duplicate++
	case m.Seq < last:
		e.reordered++
	default:
		*cell = m.Seq
	}
}

// Receive blocks until a message arrives, the endpoint closes, or ctx is
// done. It parks on notify alone: closing and ctx ending reach it as a
// sweep's wake. On its way out, or back to park, it passes on a wake owed to
// another receiver — one a sweep has not reached, or a queued message.
func (e *Endpoint) Receive(ctx context.Context) (m Message, err error) {
	done := ctx.Done()
	var w *ctxWatch
	e.mu.Lock()
	for {
		if e.pendingLocked() > 0 {
			var ok bool
			if m, ok = e.dequeueLocked(e.nowIfDeadlined()); ok {
				break
			}
			// Everything queued was shed as expired; fall through and wait.
		}
		if e.closed {
			err = ErrClosed
			break
		}
		if done != nil && w == nil {
			if w = e.watchLocked(done); w == nil {
				// Register outside the route lock: a context is the caller's
				// code. Everything is checked again once the lock is back.
				kept := done == e.unwatched
				e.mu.Unlock()
				w = e.watch(ctx, done, kept)
				e.mu.Lock()
				if !w.ended && !e.closed {
					e.watches = append(e.watches, w)
				}
				continue
			}
		}
		if w != nil && w.ended {
			err = ctx.Err()
			break
		}
		e.passLocked()
		// Register before releasing the lock: enqueueLocked and a sweep only
		// wake when they observe a waiter, and they observe under the same
		// lock.
		e.waiting++
		sweep := e.sweep
		e.mu.Unlock()
		<-e.notify
		e.mu.Lock()
		e.waiting--
		if sweep != e.sweep {
			e.stale--
		}
	}
	// A context only one Receive came with is most likely the caller's own,
	// about to be cancelled: release its registration now, so that its
	// cancellation does not start a goroutine to sweep nobody. On a closed
	// endpoint every registration goes.
	release := w != nil && !w.ended && (!w.kept || e.closed)
	if release {
		e.watches = slices.DeleteFunc(e.watches, func(x *ctxWatch) bool { return x == w })
		e.unwatched = done
	}
	e.passLocked()
	e.mu.Unlock()
	if release {
		w.stop()
	}
	return m, err
}

// passLocked passes a wake on when one is owed; callers hold e.mu.
func (e *Endpoint) passLocked() {
	if e.stale > 0 || e.pendingLocked() > 0 {
		e.wakeLocked()
	}
}

// ctxWatch is one context receivers park under: its context.AfterFunc,
// registered once per Done channel, marks it ended and sweeps the endpoint.
// kept says a second Receive came with the channel (or came back after the
// first released the watch), so the watch outlives each Receive. Fields
// other than done and stop are guarded by the endpoint's mu.
type ctxWatch struct {
	done        <-chan struct{}
	stop        func() bool
	ended, kept bool
}

// watchLocked returns the watch for done, or nil when there is none.
// Callers hold e.mu.
func (e *Endpoint) watchLocked(done <-chan struct{}) *ctxWatch {
	for _, w := range e.watches {
		if w.done == done {
			w.kept = true
			return w
		}
	}
	return nil
}

// watch makes a watch for ctx, whose Done channel is done, and registers it
// unless ctx has ended already. Callers do not hold e.mu.
func (e *Endpoint) watch(ctx context.Context, done <-chan struct{}, kept bool) *ctxWatch {
	w := &ctxWatch{done: done, kept: kept, ended: ctx.Err() != nil}
	if w.ended {
		return w
	}
	w.stop = context.AfterFunc(ctx, func() {
		e.mu.Lock()
		w.ended = true
		e.watches = slices.DeleteFunc(e.watches, func(x *ctxWatch) bool { return x == w })
		e.sweepLocked()
		e.mu.Unlock()
	})
	return w
}

// TryReceive pops a message without blocking; ok is false when empty (or
// when everything queued was shed as expired).
func (e *Endpoint) TryReceive() (Message, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pendingLocked() == 0 {
		return Message{}, false
	}
	return e.dequeueLocked(e.nowIfDeadlined())
}

// Len reports queued messages across both lanes.
func (e *Endpoint) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pendingLocked()
}

// Depth reports queued messages without taking the route lock: one atomic
// load of a mirror maintained by every enqueue/dequeue. Admission control
// reads this on every call, so it must never contend with delivery.
func (e *Endpoint) Depth() int64 { return e.depth.Load() }

// Expired reports messages shed because their deadline lapsed before
// delivery.
func (e *Endpoint) Expired() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.expired
}

// SetExpiredFunc installs a hook invoked for each message shed as expired.
// The hook runs under the route lock: it must be fast and must not call
// back into the bus.
func (e *Endpoint) SetExpiredFunc(f func(Message)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onExpired = f
}

// Received reports the total number of messages ever delivered, queued or
// direct.
func (e *Endpoint) Received() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.received
}

// Anomalies reports (duplicates, reorderings) observed in the per-source
// sequence numbers.
func (e *Endpoint) Anomalies() (dups, reorders uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.duplicate, e.reordered
}

// close marks the endpoint closed, sweeps its parked receivers and releases
// its context watches. Queued messages remain readable via TryReceive.
func (e *Endpoint) close() {
	e.mu.Lock()
	watches := e.watches
	if !e.closed {
		e.closed = true
		e.watches = nil
		e.sweepLocked()
	}
	e.mu.Unlock()
	for _, w := range watches {
		w.stop()
	}
}
