// Package bus implements the software bus underlying all component
// communication — the analogue of the Polylith software bus the paper builds
// its reconfiguration sequence on (§1): reaching reconfiguration points,
// "blocking communication channels (to manage the messages in transit)",
// redirecting calls to new components, and accounting for loss, duplication
// and delay so that experiment E4 can verify the channel-preservation
// guarantees.
//
// The bus is split into two planes (DESIGN.md §2):
//
//   - The data plane — Send and delivery — is sharded and lock-free where
//     possible: the routing table is a fixed array of shards, redirect rules
//     and the interceptor chain are atomically-swapped immutable snapshots,
//     counters are atomics, and per-(src,dst) sequence numbers live with the
//     destination's route so FIFO assignment and enqueueing stay atomic.
//     Two sends toward different destinations share no locks.
//   - The control plane — Attach, Detach, Pause, Resume, Redirect,
//     TransferHeld, interceptor (de)installation — serializes on one mutex.
//     Reconfiguration is rare; steady-state traffic must not pay for it.
//
// Pause/hold semantics stay exact because the paused flag and the held
// queue live inside the destination's route and every delivery decision is
// taken under that route's lock: a send either completes before Pause
// acquires the route or parks after it, never in between.
//
// A delivery ends in one of two places: the destination's mailbox, for a
// receiver goroutine to pick up, or — on an endpoint attached with a
// DirectFunc — that function, run inline by the deliverer. The second is
// for terminal consumers (reply waiter tables, cancel and credit controls)
// that would otherwise need a goroutine just to move the message on. Both
// sit behind the same paused check and count in the same ledger.
package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Address identifies an attached endpoint (a component port).
type Address string

// Kind classifies a message.
type Kind int

// Message kinds.
const (
	Request Kind = iota + 1
	Reply
	Event
	Control
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Request:
		return "request"
	case Reply:
		return "reply"
	case Event:
		return "event"
	case Control:
		return "control"
	default:
		return "unknown"
	}
}

// Message is the unit of communication. Payload stays untyped; typed
// contracts are enforced above the bus by connectors and the registry.
type Message struct {
	ID      uint64 // bus-unique, assigned on Send
	Kind    Kind
	Op      string // operation name, e.g. "encode"
	Payload any
	Src     Address
	Dst     Address
	Seq     uint64 // per (Src,Dst) FIFO sequence, assigned on Send
	Corr    uint64 // request/reply correlation
	// SentAt is a traced request's send stamp (unix nanoseconds, bus clock),
	// 0 on every other message: its one reader splits the request's server
	// span into queue wait and service (DESIGN.md §11). One int64 rather
	// than a time.Time (3 words) for the same size-class reason as Deadline.
	SentAt int64
	// Trace is the trace id of the call this message belongs to (0 when the
	// call is untraced): minted at the client-handle edge by head sampling,
	// forwarded unchanged by connectors, and carried across peer links in
	// the wire trace trailer. Span packs the current span id (high 32 bits) over its
	// parent span id (low 32 bits) — see telemetry.PackSpan. Together with
	// the SentAt shrink these two words keep Message inside the allocation
	// size class documented on Deadline.
	Trace int64
	Span  int64
	// Deadline is the caller's end-to-end deadline in unix nanoseconds (0
	// when none): stamped at the platform edge from the call context,
	// forwarded unchanged by connectors, carried across peer links in the
	// wire call frame, and checked by the serving component so a request
	// whose caller has already given up is answered with an error instead
	// of consuming capacity. Wall-clock (context) semantics, deliberately
	// not the bus clock: deadlines come from contexts and cross process
	// boundaries. 8 bytes rather than a time.Time keeps the Message at 128
	// bytes, which every copy — ring slot, held queue, DirectFunc argument —
	// pays for.
	Deadline int64
}

// OpCancel is the Op of a Control message asking the destination to abandon
// the request identified by (Src, Corr): the caller gave up (early cancel or
// fallback timeout), so queued or in-service work for that correlation can
// be shed. Control traffic passes pauseRequests barriers and skips the EDF
// lane, so a cancel overtakes the request it revokes.
const OpCancel = "cancel"

// OpStreamCredit is the Op of a Control message extending a stream
// producer's credit window: the consumer identified by (Src, Corr) has
// consumed Payload.(int) items, so the producer may push that many more.
// Control traffic passes pauseRequests barriers and skips the EDF lane, so
// credit keeps flowing to a producer even while its channel is blocked for
// reconfiguration — a paused stream drains instead of deadlocking.
const OpStreamCredit = "stream-credit"

// Verdict is an interceptor's decision about a message.
type Verdict int

// Interceptor verdicts.
const (
	Pass Verdict = iota + 1
	Drop
	Redirected // interceptor rewrote m.Dst
)

// Interceptor sees every message on the bus before routing. Injectors and
// bus-level filters are installed through this hook. Intercept may modify
// the message in place (transform), rewrite its destination (returning
// Redirected) or discard it (Drop).
//
// Interceptors run on the data plane: Intercept is called concurrently from
// every sending goroutine, so implementations must be safe for concurrent
// use (inject.Injector keeps its hit counter atomic, for example).
type Interceptor interface {
	Name() string
	Intercept(m *Message) Verdict
}

// DelayFunc returns the transmission delay from src to dst; the network
// simulator plugs in here. A zero or negative delay delivers synchronously.
// The function is called concurrently from sending goroutines.
type DelayFunc func(src, dst Address) time.Duration

// Bus errors.
var (
	ErrAddressTaken  = errors.New("bus: address already attached")
	ErrUnknownDst    = errors.New("bus: unknown destination")
	ErrClosed        = errors.New("bus: endpoint closed")
	ErrMailboxFull   = errors.New("bus: mailbox full")
	ErrRedirectCycle = errors.New("bus: redirect cycle")
)

// Stats are cumulative bus counters. Conservation invariant when idle:
// Sent == Delivered + Dropped + Held. A Send the bus refuses (ErrMailboxFull)
// was not sent and counts nowhere; a message the bus accepted and then could
// not deliver — a delayed one that met a full mailbox on arrival — is Dropped.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // discarded by interceptors
	Held      uint64 // currently parked on paused channels
	InFlight  uint64 // currently delayed in the "network"
	Redirects uint64
}

// busStats is the atomic backing store for Stats.
type busStats struct {
	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	held      atomic.Int64
	inFlight  atomic.Int64
	redirects atomic.Uint64
}

// pauseMode selects which message kinds a paused route parks.
type pauseMode uint8

// Pause modes.
const (
	pauseNone pauseMode = iota
	// pauseAll parks every message (the classic blocked channel of §1).
	pauseAll
	// pauseRequests parks only Request messages and lets Reply, Event and
	// Control traffic through. Region-scoped quiescence needs this: a
	// component can only reach its reconfiguration point if the replies its
	// in-flight work is waiting on still arrive while new work is barred.
	pauseRequests
)

// route is the per-address routing entry. Its lock orders everything that
// must be atomic per destination: sequence assignment, the paused check,
// parking on the held queue, and mailbox enqueueing. Routes are created on
// first Attach/Pause and never removed — Detach only clears ep, so messages
// still in flight toward a vanished address park instead of getting lost.
type route struct {
	mu     sync.Mutex
	ep     *Endpoint // nil while detached; shares mu
	paused pauseMode
	held   []Message
	seq    seqTable // per-source FIFO counters; the dst is fixed
}

// parksLocked reports whether a message of kind k parks on this route;
// callers hold r.mu.
func (r *route) parksLocked(k Kind) bool {
	switch r.paused {
	case pauseAll:
		return true
	case pauseRequests:
		return k == Request
	default:
		return false
	}
}

// seqTable is a per-source counter table with a hot-pair cache: most
// destinations see a dominant source, so the common case pays one string
// compare instead of a map round trip. Guarded by the owner's lock.
type seqTable struct {
	m       map[Address]*uint64
	lastSrc Address
	lastRef *uint64
}

func newSeqTable() seqTable { return seqTable{m: map[Address]*uint64{}} }

// cell returns the counter cell for src; callers hold the owner's lock.
func (t *seqTable) cell(src Address) *uint64 {
	if src == t.lastSrc && t.lastRef != nil {
		return t.lastRef
	}
	p := t.m[src]
	if p == nil {
		p = new(uint64)
		t.m[src] = p
	}
	t.lastSrc, t.lastRef = src, p
	return p
}

// Bus routes messages between attached endpoints.
type Bus struct {
	clk     clock.Clock
	delayFn DelayFunc // immutable after New

	// Data plane: copy-on-write snapshots read with a single atomic load.
	// Sending to one destination contends only on that destination's route.
	routes       atomic.Pointer[map[Address]*route]
	redirects    atomic.Pointer[map[Address]Address]
	interceptors atomic.Pointer[[]Interceptor]
	nextID       atomic.Uint64
	stats        busStats

	// fifoOnly disables the per-endpoint EDF deadline lane and the
	// expired-work shedding that rides on it (immutable after New). E19 uses
	// it to measure the seed behaviour against overload governance.
	fifoOnly bool

	// tblMu serializes route-table writers (Attach and the first Pause of a
	// fresh address). Separate from ctl so control-plane operations that
	// already hold ctl can still materialize routes.
	tblMu sync.Mutex

	// Control plane: serializes reconfiguration operations and idle waits.
	ctl         sync.Mutex
	idleWaiters []chan struct{}
}

// Option configures a Bus.
type Option func(*Bus)

// WithClock sets the clock used for delayed delivery timestamps.
func WithClock(c clock.Clock) Option { return func(b *Bus) { b.clk = c } }

// WithDelay installs the transmission-delay model.
func WithDelay(f DelayFunc) Option { return func(b *Bus) { b.delayFn = f } }

// WithFIFOOnly disables deadline-aware mailbox scheduling: every message
// queues on the FIFO ring and nothing is shed as expired. This is the
// pre-governance seed behaviour, kept for comparison runs (E19).
func WithFIFOOnly() Option { return func(b *Bus) { b.fifoOnly = true } }

// New creates an empty bus. Without options it uses the real clock and zero
// transmission delay.
func New(opts ...Option) *Bus {
	b := &Bus{clk: clock.Real{}}
	emptyRoutes := map[Address]*route{}
	b.routes.Store(&emptyRoutes)
	emptyRedirects := map[Address]Address{}
	b.redirects.Store(&emptyRedirects)
	for _, o := range opts {
		o(b)
	}
	return b
}

// route returns the routing entry for addr, or nil if none exists yet.
// Lock-free: one atomic load of the table snapshot.
func (b *Bus) route(addr Address) *route {
	return (*b.routes.Load())[addr]
}

// routeOrCreate returns the routing entry for addr, creating it (via a
// copy-on-write swap of the table) if needed.
func (b *Bus) routeOrCreate(addr Address) *route {
	if r := b.route(addr); r != nil {
		return r
	}
	b.tblMu.Lock()
	defer b.tblMu.Unlock()
	cur := *b.routes.Load()
	if r := cur[addr]; r != nil {
		return r
	}
	next := make(map[Address]*route, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	r := &route{seq: newSeqTable()}
	next[addr] = r
	b.routes.Store(&next)
	return r
}

// Attach registers addr and returns its endpoint. mailbox is the bounded
// queue capacity; values < 1 get the default of 4096.
func (b *Bus) Attach(addr Address, mailbox int) (*Endpoint, error) {
	return b.AttachDirect(addr, mailbox, nil)
}

// DirectFunc consumes a delivery inline instead of letting it queue on the
// mailbox. It runs on the goroutine that delivers — the sender's, or
// Resume's when the message was held, or the delay timer's — under the
// destination's route lock, which serialises it against every other delivery
// to that address: state only the function touches needs no lock of its own.
//
// Two rules keep that safe. It must never block: no channel operation that
// can wait, no sleep, no I/O. And it may call Send only toward a route that
// is not its own and whose own direct function, if it has one, does not
// send: route locks then nest one way and one deep, and cannot form a cycle.
// A connector forwards to a component, the cluster gateway or a peer link,
// and replies to a component or a client endpoint; none of those sends from
// its direct function. A direct function that sent to its own address, or
// two that sent to each other, would deadlock.
//
// Returning false declines the message, which then queues as on a plain
// endpoint, unmodified; that is how a direct function hands on what it
// cannot finish inline.
type DirectFunc func(m Message) bool

// AttachDirect is Attach with a direct function: every delivery to addr is
// offered to direct first, and only what it declines queues for Receive. A
// paused channel still parks first — direct sees held messages in order on
// Resume — so Pause, Resume, TransferHeld, Detach and the conservation
// invariant are the same for direct and queued deliveries. The consumer
// saves the mailbox hop and the goroutine that would only move the message
// on.
func (b *Bus) AttachDirect(addr Address, mailbox int, direct DirectFunc) (*Endpoint, error) {
	if mailbox < 1 {
		mailbox = 4096
	}
	r := b.routeOrCreate(addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ep != nil {
		return nil, fmt.Errorf("%w: %s", ErrAddressTaken, addr)
	}
	e := newEndpoint(addr, mailbox, &r.mu, &b.stats, b.fifoOnly)
	e.direct = direct
	r.ep = e
	return e, nil
}

// Detach closes and removes the endpoint at addr. Held and in-flight
// messages toward addr are kept until redirected or transferred.
func (b *Bus) Detach(addr Address) {
	r := b.route(addr)
	if r == nil {
		return
	}
	r.mu.Lock()
	e := r.ep
	r.ep = nil
	r.mu.Unlock()
	if e != nil {
		e.close()
	}
}

// AddInterceptor appends an interceptor to the chain (applied in order).
func (b *Bus) AddInterceptor(i Interceptor) {
	b.ctl.Lock()
	defer b.ctl.Unlock()
	var cur []Interceptor
	if p := b.interceptors.Load(); p != nil {
		cur = *p
	}
	next := make([]Interceptor, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = i
	b.interceptors.Store(&next)
}

// RemoveInterceptor removes the named interceptor; it reports success.
func (b *Bus) RemoveInterceptor(name string) bool {
	b.ctl.Lock()
	defer b.ctl.Unlock()
	p := b.interceptors.Load()
	if p == nil {
		return false
	}
	cur := *p
	for i, ic := range cur {
		if ic.Name() == name {
			next := make([]Interceptor, 0, len(cur)-1)
			next = append(next, cur[:i]...)
			next = append(next, cur[i+1:]...)
			b.interceptors.Store(&next)
			return true
		}
	}
	return false
}

// Send routes m toward m.Dst, applying redirects, interceptors and the
// delay model. It never blocks on the receiver: a full mailbox returns
// ErrMailboxFull (backpressure), a paused destination parks the message.
// Send takes no global lock: it reads immutable snapshots of the redirect
// and interceptor tables and serializes only on the destination's route.
func (b *Bus) Send(m Message) error {
	redirects := *b.redirects.Load()
	dst, err := resolveIn(redirects, m.Dst)
	if err != nil {
		return err
	}
	if dst != m.Dst {
		b.stats.redirects.Add(1)
		m.Dst = dst
	}

	if p := b.interceptors.Load(); p != nil && len(*p) > 0 {
		// Separate function: Intercept takes &m, which would otherwise force
		// every Send to heap-allocate the message, interceptors or not.
		return b.sendIntercepted(*p, redirects, m)
	}
	return b.deliver(m)
}

// sendIntercepted runs the interceptor chain, then delivers.
func (b *Bus) sendIntercepted(ics []Interceptor, redirects map[Address]Address, m Message) error {
	var err error
	for _, ic := range ics {
		switch ic.Intercept(&m) {
		case Drop:
			b.stats.dropped.Add(1)
			b.stats.sent.Add(1)
			return nil
		case Redirected:
			if m.Dst, err = resolveIn(redirects, m.Dst); err != nil {
				return err
			}
			b.stats.redirects.Add(1)
		}
	}
	return b.deliver(m)
}

// deliver stamps identity and sequence under the destination's route lock
// and either enqueues, parks, or schedules delayed delivery.
func (b *Bus) deliver(m Message) error {
	r := b.route(m.Dst)
	if r == nil {
		return fmt.Errorf("%w: %s", ErrUnknownDst, m.Dst)
	}

	r.mu.Lock()
	if r.ep == nil && r.paused == pauseNone {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownDst, m.Dst)
	}
	m.ID = b.nextID.Add(1)
	sp := r.seq.cell(m.Src)
	*sp++
	m.Seq = *sp
	if m.Kind == Request && m.Trace != 0 {
		m.SentAt = b.clk.Now().UnixNano()
	}
	b.stats.sent.Add(1)

	delay := time.Duration(0)
	if b.delayFn != nil {
		delay = b.delayFn(m.Src, m.Dst)
	}
	if delay > 0 {
		b.stats.inFlight.Add(1)
		r.mu.Unlock()
		b.sendDelayed(r, m, delay)
		return nil
	}
	err := b.deliverRouteLocked(r, &m)
	r.mu.Unlock()
	if err != nil {
		// Refused: the sender keeps the message, so it was not sent after all.
		// Un-counted here, on the refusal path, rather than counted late on
		// every path.
		b.stats.sent.Add(^uint64(0))
	}
	return err
}

// sendDelayed schedules delivery after the transmission delay. It lives in
// its own function (and must not be inlined) so the closure capture of m
// does not force the zero-delay fast path to heap-allocate the message.
//
//go:noinline
func (b *Bus) sendDelayed(r *route, m Message, delay time.Duration) {
	b.clk.AfterFunc(delay, func() {
		r.mu.Lock()
		err := b.deliverRouteLocked(r, &m)
		r.mu.Unlock()
		if err != nil {
			// Send accepted this message long ago; nobody is left to hand it
			// back to. A late delivery failure is counted, not returned.
			b.stats.dropped.Add(1)
		}
		if b.stats.inFlight.Add(-1) == 0 {
			b.notifyIdle()
		}
	})
}

// resolveIn follows the redirect chain of one snapshot with cycle
// protection. Cycles cannot normally be installed (Redirect validates), so
// the bound only guards against future bugs.
func resolveIn(redirects map[Address]Address, dst Address) (Address, error) {
	if len(redirects) == 0 {
		return dst, nil
	}
	seen := 0
	for {
		next, ok := redirects[dst]
		if !ok {
			return dst, nil
		}
		dst = next
		seen++
		if seen > len(redirects) {
			return dst, ErrRedirectCycle
		}
	}
}

// deliverRouteLocked parks m, hands it to the endpoint's direct function or
// enqueues it; callers hold r.mu. The pointer only avoids copying the
// message across the internal calls — the message is copied into the held
// queue, the direct function's argument or the mailbox ring, never retained.
func (b *Bus) deliverRouteLocked(r *route, m *Message) error {
	if r.parksLocked(m.Kind) || r.ep == nil {
		// Paused channel, or the destination vanished while the message was
		// in flight: park it so it can be transferred to a replacement (no
		// silent loss).
		r.held = append(r.held, *m)
		b.stats.held.Add(1)
		return nil
	}
	if !r.ep.acceptLocked(m) {
		return fmt.Errorf("%w: %s", ErrMailboxFull, m.Dst)
	}
	b.stats.delivered.Add(1)
	return nil
}

// Pause blocks the communication channel toward addr: subsequent and
// in-flight deliveries are parked in arrival order ("blocking communication
// channels to manage the messages in transit", §1).
func (b *Bus) Pause(addr Address) {
	b.pauseMode(addr, pauseAll)
}

// PauseRequests blocks only Request traffic toward addr; replies, events and
// control messages keep flowing. This is the admission barrier used by
// region-scoped reconfiguration: new work toward the region parks while the
// region's in-flight work drains through its pending replies.
func (b *Bus) PauseRequests(addr Address) {
	b.pauseMode(addr, pauseRequests)
}

func (b *Bus) pauseMode(addr Address, mode pauseMode) {
	b.ctl.Lock()
	defer b.ctl.Unlock()
	r := b.routeOrCreate(addr)
	r.mu.Lock()
	r.paused = mode
	r.mu.Unlock()
}

// Resume unblocks addr and flushes parked messages in order. It returns the
// number flushed. Requests whose deadline lapsed while the channel was
// paused are discarded instead of re-delivered — the caller already gave up
// — and move from the held count to the dropped count, preserving
// Sent == Delivered + Dropped + Held. Messages that no longer fit the
// mailbox stay parked and an ErrMailboxFull is returned alongside the
// flushed count.
func (b *Bus) Resume(addr Address) (int, error) {
	b.ctl.Lock()
	defer b.ctl.Unlock()
	r := b.routeOrCreate(addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = pauseNone
	if r.ep == nil {
		return 0, fmt.Errorf("%w: %s", ErrUnknownDst, addr)
	}
	var now int64
	if !b.fifoOnly {
		for i := range r.held {
			if m := &r.held[i]; m.Kind == Request && m.Deadline != 0 {
				now = time.Now().UnixNano()
				break
			}
		}
	}
	flushed, shed := 0, 0
	account := func() {
		b.stats.held.Add(-int64(flushed + shed))
		b.stats.delivered.Add(uint64(flushed))
		b.stats.dropped.Add(uint64(shed))
	}
	for i := range r.held {
		m := &r.held[i]
		if now != 0 && m.Kind == Request && m.Deadline != 0 && m.Deadline <= now {
			r.ep.noteExpiredLocked(m)
			shed++
			continue
		}
		if !r.ep.acceptLocked(m) {
			r.held = append([]Message(nil), r.held[i:]...)
			account()
			return flushed, fmt.Errorf("%w: %s", ErrMailboxFull, addr)
		}
		flushed++
	}
	r.held = nil
	account()
	return flushed, nil
}

// Redirect routes future traffic addressed to old toward new ("redirecting
// the calls to new components", §1). Passing new == "" removes the rule.
// The rule table is copy-on-write: in-progress sends finish against the
// snapshot they started with; later sends see the new rule.
func (b *Bus) Redirect(old, new Address) error {
	b.ctl.Lock()
	defer b.ctl.Unlock()
	cur := *b.redirects.Load()
	next := make(map[Address]Address, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if new == "" {
		delete(next, old)
	} else {
		next[old] = new
		if _, err := resolveIn(next, old); err != nil {
			return err
		}
	}
	b.redirects.Store(&next)
	return nil
}

// TransferHeld moves messages parked for old onto new (rewriting their
// destination), preserving order. Used when a replacement component takes
// over mid-reconfiguration. Returns the number of messages moved.
func (b *Bus) TransferHeld(old, new Address) int {
	b.ctl.Lock()
	defer b.ctl.Unlock()
	ro := b.route(old)
	if ro == nil {
		return 0
	}
	ro.mu.Lock()
	queue := ro.held
	ro.held = nil
	ro.mu.Unlock()
	if len(queue) == 0 {
		return 0
	}
	for i := range queue {
		queue[i].Dst = new
	}
	rn := b.routeOrCreate(new)
	rn.mu.Lock()
	rn.held = append(rn.held, queue...)
	rn.mu.Unlock()
	return len(queue)
}

// HeldCount reports how many messages are parked for addr.
func (b *Bus) HeldCount(addr Address) int {
	r := b.route(addr)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.held)
}

// Stats returns a snapshot of the counters. Each counter is individually
// atomic but the snapshot is not taken under a lock, so the conservation
// invariant Sent == Delivered + Dropped + Held is only guaranteed when the
// bus is quiescent; a concurrent reader can observe a send that has been
// counted but not yet delivered.
func (b *Bus) Stats() Stats {
	return Stats{
		Sent:      b.stats.sent.Load(),
		Delivered: b.stats.delivered.Load(),
		Dropped:   b.stats.dropped.Load(),
		Held:      uint64(b.stats.held.Load()),
		InFlight:  uint64(b.stats.inFlight.Load()),
		Redirects: b.stats.redirects.Load(),
	}
}

// InFlight reports messages currently delayed in the network.
func (b *Bus) InFlight() int {
	return int(b.stats.inFlight.Load())
}

// WaitIdle blocks until no message is in flight in the network (parked
// messages do not count: they are safely captured) or ctx is done.
func (b *Bus) WaitIdle(ctx context.Context) error {
	for {
		b.ctl.Lock()
		if b.stats.inFlight.Load() == 0 {
			b.ctl.Unlock()
			return nil
		}
		ch := make(chan struct{})
		b.idleWaiters = append(b.idleWaiters, ch)
		b.ctl.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// notifyIdle wakes WaitIdle callers after the in-flight count hits zero.
func (b *Bus) notifyIdle() {
	b.ctl.Lock()
	waiters := b.idleWaiters
	b.idleWaiters = nil
	b.ctl.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}
