package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/core"
	"repro/internal/wire"
)

// livenessReader wraps a peer connection and records the time of every
// successful read into the shared liveness cell. Counting partial reads —
// not just completed frames — matters: a migration frame can legitimately
// take longer than FailAfter to transmit (states up to wire.MaxFrame), and
// the bytes trickling in are proof of life the watchdog must see.
type livenessReader struct {
	r    io.Reader
	seen *atomic.Int64
}

func (l *livenessReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	if n > 0 {
		l.seen.Store(time.Now().UnixNano())
	}
	return n, err
}

// peer is one live link to another cluster node. The link carries four
// traffics multiplexed over the frame protocol: gossip beacons, remote calls
// and streams (and their replies), migration and replication payloads (and
// their acks), and ownership announcements. One goroutine reads, writers
// serialize on encMu, and every received byte counts as liveness.
//
// Toward the local system the link is a bus participant, not a client: it
// holds one direct endpoint (addr), puts each inbound call and stream open on
// the bus with that address as Src and the wire correlation as Corr, and what
// the serving component answers — a reply, a stream's items and its end —
// comes back to settleServed on the goroutine that sent it. No goroutine,
// context, waiter or buffer exists per inbound call or stream.
//
// Three correlation tables are all the link remembers: pending (what this
// node forwarded and the peer has yet to answer), served (what the peer
// forwarded and this node has yet to answer) and migs.
type peer struct {
	n    *Node
	id   string
	conn net.Conn
	// version is the negotiated wire protocol version of this link:
	// min(both sides' MaxVersion).
	version uint8
	// egress is the frame-coalescing writer every data frame goes through.
	egress *egress
	// addr is the link's bus address, unique to this incarnation of the
	// link: the remote side's correlation counter restarts at 1 on every
	// relink, so under a per-peer address a dead link's late reply could
	// settle a new link's call.
	addr bus.Address

	encMu sync.Mutex
	enc   *wire.Encoder
	dec   *wire.Decoder

	// lastSeen is shared with the link's livenessReader: unix nanos of the
	// last received byte.
	lastSeen *atomic.Int64
	down     atomic.Bool
	corr     atomic.Uint64

	// Per-link egress coalescing counters — the node-wide BatchStats split
	// by peer for the telemetry snapshot's link table.
	batchWrites atomic.Uint64
	batchFrames atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]pendingCall // forwarded calls awaiting replies, forwarded streams awaiting their end
	migs    map[uint64]chan string // migrations awaiting acks
	served  map[uint64]servedCall  // inbound calls and streams on the local bus awaiting their reply or end
}

// pendingCall is the caller-side record of one forwarded call or stream open:
// what it takes to re-emit the peer's answer — the reply, or a stream's
// chunks and end — as bus replies toward the original caller. Every
// completion path — reply or end frame, egress expiry, link death — settles
// through it (Node.settleForward); chunks look it up without taking it; a
// cancel just drops it.
type pendingCall struct {
	g       *gateway    // the gateway it entered through: component name and reply Src
	src     bus.Address // original caller
	srcCorr uint64      // original bus correlation id
	op      string
	// payload is the request's payload, which says what shape the answer
	// takes. A connector.TypedCall is completed in place by the reply and rides
	// back as the same boxed pointer; a connector.StreamOpenPayload is answered
	// by chunks and settled by a stream end.
	payload any
	// Forward span, recorded at settle time; fwdStart == 0 when untraced.
	trace      int64
	fwdStart   int64
	fwdSpan    uint32
	parentSpan uint32
}

// servedCall is the callee-side record of one inbound call or stream between
// its entry onto the local bus and its reply or end: where a cancel or a
// credit grant for it must go, when its caller's budget runs out (unix nanos,
// 0 for none), and whether the caller is owed a reply frame or a stream end.
// Its presence is what lets an answer out: a revoked corr has no record and
// nothing more is written for it.
type servedCall struct {
	dst      bus.Address
	deadline int64
	stream   bool
}

func newPeer(n *Node, id string, version uint8, conn net.Conn, enc *wire.Encoder, dec *wire.Decoder, seen *atomic.Int64) *peer {
	p := &peer{
		n: n, id: id, version: version, conn: conn, enc: enc, dec: dec, lastSeen: seen,
		addr:    bus.Address(fmt.Sprintf("peer:%s#%d", id, n.linkSeq.Add(1))),
		pending: map[uint64]pendingCall{},
		migs:    map[uint64]chan string{},
		served:  map[uint64]servedCall{},
	}
	p.egress = newEgress(p)
	p.lastSeen.Store(time.Now().UnixNano())
	return p
}

// start attaches the link's bus endpoint and launches the read pump, the
// gossip beacon and the egress writer.
func (p *peer) start() error {
	// Mailbox of 1: settleServed declines nothing, so nothing queues.
	if _, err := p.n.sys.Bus().AttachDirect(p.addr, 1, p.settleServed); err != nil {
		return err
	}
	p.n.wg.Add(3)
	go p.readLoop()
	go p.heartbeatLoop()
	go p.egress.flushLoop(p.n.ctx)
	return nil
}

// send serializes one link-control frame write (data frames go through the
// egress). Frames are assembled fully before any byte hits the socket (the
// encoder builds the body first), so a failed encode never desynchronizes
// the stream.
func (p *peer) send(encode func(*wire.Encoder) error) error {
	p.encMu.Lock()
	defer p.encMu.Unlock()
	_ = p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return encode(p.enc)
}

// countBatchWrite bumps the coalesced-write counters, node-wide and
// per-link.
func (p *peer) countBatchWrite() {
	p.n.batchWrites.Add(1)
	p.batchWrites.Add(1)
}

// countBatchFrame bumps the coalesced-frame counters, node-wide and
// per-link.
func (p *peer) countBatchFrame() {
	p.n.batchFrames.Add(1)
	p.batchFrames.Add(1)
}

// addPending registers the record of a forwarded call.
func (p *peer) addPending(corr uint64, pc pendingCall) {
	p.pmu.Lock()
	p.pending[corr] = pc
	p.pmu.Unlock()
}

// takePending removes and returns the record for corr.
func (p *peer) takePending(corr uint64) (pendingCall, bool) {
	p.pmu.Lock()
	pc, ok := p.pending[corr]
	if ok {
		delete(p.pending, corr)
	}
	p.pmu.Unlock()
	return pc, ok
}

// lookupPending returns the record for corr without removing it: a stream's
// chunks pass through it, only its end takes it.
func (p *peer) lookupPending(corr uint64) (pendingCall, bool) {
	p.pmu.Lock()
	pc, ok := p.pending[corr]
	p.pmu.Unlock()
	return pc, ok
}

// takeServed removes and returns the record of one inbound call or stream.
func (p *peer) takeServed(corr uint64) (servedCall, bool) {
	p.pmu.Lock()
	sc, ok := p.served[corr]
	if ok {
		delete(p.served, corr)
	}
	p.pmu.Unlock()
	return sc, ok
}

// lookupServed returns the record of one inbound call or stream without
// removing it.
func (p *peer) lookupServed(corr uint64) (servedCall, bool) {
	p.pmu.Lock()
	sc, ok := p.served[corr]
	p.pmu.Unlock()
	return sc, ok
}

// servedCalls reports how many inbound calls and streams are on the local bus
// awaiting their reply or end.
func (p *peer) servedCalls() int {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return len(p.served)
}

// handleCancel revokes one inbound call or stream by correlation id.
// Best-effort: one that already replied or ended (or never arrived) is
// silently ignored. The record leaves the table here, so whatever the
// component answers from now on is suppressed, and the revocation itself is
// the bus's: the same OpCancel control a local caller sends, which the
// component records — answering a still-queued request unserved when it
// surfaces — and which reclaims a running stream producer.
func (p *peer) handleCancel(c wire.Cancel) {
	if sc, ok := p.takeServed(c.Corr); ok {
		p.revoke(c.Corr, sc)
	}
}

// revoke tells the component serving an inbound call or stream that its
// caller is gone. Best-effort, like every cancel.
func (p *peer) revoke(corr uint64, sc servedCall) {
	_ = p.n.sys.Bus().Send(bus.Message{
		Kind: bus.Control, Op: bus.OpCancel,
		Src: p.addr, Dst: sc.dst, Corr: corr,
	})
}

// handleCredit passes a remote consumer's credit grant on to the producer as
// the bus's own OpStreamCredit control, from the address the producer knows
// its consumer by — so the window that throttles the producer is the real
// consumer's. Credit for a stream that already ended (or is no stream) is
// dropped: credit is best-effort, like cancel.
func (p *peer) handleCredit(c wire.StreamCredit) {
	if sc, ok := p.lookupServed(c.Corr); ok && sc.stream && c.Credit > 0 {
		_ = p.n.sys.Bus().Send(bus.Message{
			Kind: bus.Control, Op: bus.OpStreamCredit,
			Src: p.addr, Dst: sc.dst, Corr: c.Corr, Payload: int(c.Credit),
		})
	}
}

// answer writes the frame that settles an inbound corr whose record the
// caller has taken: a stream end for a stream, a reply otherwise.
func (p *peer) answer(corr uint64, sc servedCall, kind uint8, reason string) {
	if sc.stream {
		p.egress.enqueue(&egressItem{kind: wire.FrameStreamEnd, corr: corr, text: reason, errKind: kind})
	} else {
		p.egress.enqueueReply(corr, nil, reason, kind)
	}
}

// addMig registers a migration ack channel.
func (p *peer) addMig(corr uint64, ch chan string) {
	p.pmu.Lock()
	p.migs[corr] = ch
	p.pmu.Unlock()
}

// dropMig removes a migration ack channel.
func (p *peer) dropMig(corr uint64) {
	p.pmu.Lock()
	delete(p.migs, corr)
	p.pmu.Unlock()
}

// failAll resolves every outstanding call, stream and migration with an
// error — called exactly once, from peerDown, after down is set: whoever
// registers in one of these tables re-checks down afterwards, so an entry
// either is seen here or is withdrawn by its owner.
func (p *peer) failAll(reason string) {
	p.pmu.Lock()
	pending := p.pending
	migs := p.migs
	served := p.served
	p.pending = map[uint64]pendingCall{}
	p.migs = map[uint64]chan string{}
	p.served = map[uint64]servedCall{}
	p.pmu.Unlock()
	// Callers get an error reply, consumers of forwarded streams an error end.
	for corr, pc := range pending {
		p.n.settleForward(p, pc, wire.Reply{Corr: corr, Err: reason, Kind: wire.KindAppError})
	}
	for _, ch := range migs {
		select {
		case ch <- reason:
		default:
		}
	}
	// What we were serving for the dead peer can never deliver its answer;
	// revoke it so queued requests are never served and running stream
	// producers are reclaimed. The link's endpoint goes with them: an answer
	// already on its way finds no destination, and the address is never reused.
	for corr, sc := range served {
		p.revoke(corr, sc)
	}
	p.n.sys.Bus().Detach(p.addr)
}

// readLoop dispatches inbound frames until the link dies. Liveness is
// recorded by the livenessReader under the decoder, so even a frame still in
// transit counts.
func (p *peer) readLoop() {
	defer p.n.wg.Done()
	for {
		t, body, err := p.dec.Next()
		if err != nil {
			p.n.peerDown(p, "link: "+err.Error())
			return
		}
		if t == wire.FrameBatch {
			err = p.dispatchBatch(body)
		} else {
			err = p.dispatch(t, body)
		}
		if err != nil {
			p.n.peerDown(p, "protocol: "+err.Error())
			return
		}
	}
}

// dispatchBatch dispatches the sub-frames of one FrameBatch body in order.
func (p *peer) dispatchBatch(body []byte) error {
	for len(body) > 0 {
		t, sub, rest, err := wire.ReadBatchFrame(body)
		if err != nil {
			return err
		}
		if err := p.dispatch(t, sub); err != nil {
			return err
		}
		body = rest
	}
	return nil
}

// dispatch parses one frame body and hands it to its handler; it serves
// standalone frames and batch sub-frames alike. A parse error is returned
// for the read loop to tear the link down; an unknown type is logged and
// skipped.
func (p *peer) dispatch(t wire.FrameType, body []byte) error {
	switch t {
	case wire.FrameCall:
		// Nothing of the call is materialized here: the names resolve against
		// the handle table and the component's declared operations, and the
		// argument block — walked and validated by the parse, so a malformed
		// one takes the link down here and never surfaces on a serve worker —
		// is copied into the envelope the serving side completes in place.
		c, err := wire.ParseCallRaw(body)
		if err != nil {
			return err
		}
		cl := p.n.sys.ClientNamed(c.Component)
		p.relay(cl, c.DeadlineNanos, bus.Message{
			Kind: bus.Request, Op: cl.OpName(c.Op), Corr: c.Corr, Trace: c.Trace, Span: c.Span,
			Payload: core.LeaseRelay(c.Corr, string(c.Principal), c.RawArgs, c.RespTag),
		})
	case wire.FrameReply:
		// The result block stays bytes (validated like a call's arguments)
		// until whoever the reply is for decodes it, on this goroutine, before
		// the next frame reuses the buffer.
		r, err := wire.ParseReplyRaw(body)
		if err != nil {
			return err
		}
		p.dispatchReply(r)
	case wire.FrameCancel:
		c, err := wire.ParseCancel(body)
		if err != nil {
			return err
		}
		p.handleCancel(c)
	case wire.FrameStreamOpen:
		o, err := wire.ParseStreamOpen(body, p.version)
		if err != nil {
			return err
		}
		p.relay(p.n.sys.Client(o.Component), o.DeadlineNanos, bus.Message{
			Kind: bus.Request, Op: o.Op, Corr: o.Corr, Trace: o.Trace, Span: o.Span,
			Payload: connector.StreamOpenPayload{Principal: o.Principal, Window: int(o.Window), Args: o.Args},
		})
	case wire.FrameStreamChunk:
		c, err := wire.ParseStreamChunk(body)
		if err != nil {
			return err
		}
		p.n.deliverStreamChunk(p, c)
	case wire.FrameStreamCredit:
		c, err := wire.ParseStreamCredit(body)
		if err != nil {
			return err
		}
		p.handleCredit(c)
	case wire.FrameStreamEnd:
		s, err := wire.ParseStreamEnd(body)
		if err != nil {
			return err
		}
		// A stream's end settles its record the way a call's reply does.
		p.dispatchReply(wire.Reply{Corr: s.Corr, Err: s.Err, Kind: s.Kind})
	case wire.FrameReplicate:
		r, err := wire.ParseReplicate(body)
		if err != nil {
			return err
		}
		p.n.handleReplicate(p, r)
	case wire.FrameReplicateAck:
		a, err := wire.ParseReplicateAck(body)
		if err != nil {
			return err
		}
		p.n.handleReplicateAck(p, a)
	case wire.FrameMigrate:
		m, err := wire.ParseMigrate(body)
		if err != nil {
			return err
		}
		// Adoption quiesces nothing locally but does take the
		// reconfiguration lock; run it off the read loop so beacons and
		// replies keep flowing meanwhile.
		p.n.wg.Add(1)
		go func() {
			defer p.n.wg.Done()
			p.handleMigrate(m)
		}()
	case wire.FrameMigrateAck:
		a, err := wire.ParseMigrateAck(body)
		if err != nil {
			return err
		}
		p.pmu.Lock()
		ch := p.migs[a.Corr]
		p.pmu.Unlock()
		if ch != nil {
			select {
			case ch <- a.Err:
			default:
			}
		}
	case wire.FrameAnnounce:
		a, err := wire.ParseAnnounce(body)
		if err != nil {
			return err
		}
		p.n.handleAnnounce(p, a)
	case wire.FrameGossip:
		g, err := wire.ParseGossip(body)
		if err != nil {
			return err
		}
		p.n.handleGossip(p, g)
	default:
		p.n.opts.Logf("cluster %s: unknown frame %v from %s", p.n.id, t, p.id)
	}
	return nil
}

// dispatchReply resolves one inbound reply against the pending table.
func (p *peer) dispatchReply(r wire.Reply) {
	if pc, ok := p.takePending(r.Corr); ok {
		p.n.settleForward(p, pc, r)
	} else {
		p.n.opts.Logf("cluster %s: late reply corr=%d from %s", p.n.id, r.Corr, p.id)
	}
}

// relay puts one inbound request — a remote call, or a stream open, which is
// a call answered more than once — on the local bus, on the read pump's
// goroutine (bus.Send never waits on a receiver). m arrives with the frame's
// op, payload, wire corr and trace words; the link's address becomes its Src.
// The request enters through the component's compiled client binding
// (core.Client.Relay), so presence, liveness and deadline-aware admission
// apply exactly as for a local request, and so do the callee-side container
// services (auth with the shipped principal, audit, transactions), woven
// aspects and meta-objects. The caller's shipped budget becomes the request's
// absolute deadline — the one enforcement mechanism the bus has: the deadline
// lane, the component's check before service, a stream producer's context and
// the cancel plane all act on it. The frame's trace context rides along, so
// the serving node extends the caller's span tree (its serve span parents
// under the forwarded span id) instead of minting a second root.
func (p *peer) relay(cl *core.Client, budget int64, m bus.Message) {
	m.Src = p.addr
	var now int64
	if budget > 0 {
		now = time.Now().UnixNano()
		m.Deadline = now + budget
	}
	_, stream := m.Payload.(connector.StreamOpenPayload)
	sc := servedCall{dst: cl.Address(), deadline: m.Deadline, stream: stream}
	// Register before sending so a FrameCancel or the answer racing the
	// request always finds the record — and re-check down after registering
	// (see failAll).
	p.pmu.Lock()
	p.served[m.Corr] = sc
	p.pmu.Unlock()
	if p.down.Load() {
		p.takeServed(m.Corr)
		return
	}
	if err := cl.Relay(m, now); err != nil {
		if _, ok := p.takeServed(m.Corr); ok {
			p.answer(m.Corr, sc, replyKindOf(err), err.Error())
		}
	}
}

// settleServed is the link's bus.DirectFunc: whatever answers an inbound
// request arrives here on the goroutine that sent it — the serve worker's,
// the stream handler's, or whoever answered in the component's stead — and is
// queued for the wire. A reply or a stream end takes the record; a stream
// item passes while the record stands, its pooled envelope released here as
// the client edge does for a local consumer. A relayed call's reply is the
// envelope the call went out in: its outcome is read into the egress reply and
// the envelope released. It runs under the link address's
// route lock: short critical sections and a non-blocking wake, no call back
// into the bus. An answer whose record is gone was revoked (cancel, lapsed
// budget) and is never written.
func (p *peer) settleServed(m bus.Message) bool {
	if m.Kind != bus.Reply {
		return true
	}
	switch pl := m.Payload.(type) {
	case *connector.StreamItem:
		if _, ok := p.lookupServed(m.Corr); ok {
			// Chunks coalesce with whatever else is outbound; one the value
			// codec cannot ship ends the stream inside the egress writer.
			p.egress.enqueue(&egressItem{kind: wire.FrameStreamChunk, corr: m.Corr, num: pl.Seq, val: pl.Item})
		}
		pl.Release()
	case *core.RelayCall:
		// A relayed call comes back in the envelope it went out in, completed
		// in place. This is the one place the envelope returns to its pool,
		// and it does whenever the answer arrives, record standing or not: the
		// serve that sent it is done writing. (An envelope whose answer never
		// arrives is the collector's — see core.LeaseRelay.)
		if pl.Tag() != m.Corr {
			p.n.opts.Logf("cluster %s: reply corr=%d from %s carries the envelope of corr=%d", p.n.id, m.Corr, p.id, pl.Tag())
			return true
		}
		if _, ok := p.takeServed(m.Corr); ok {
			res, errText, kind := pl.Outcome()
			if s, v := res.Slot.Held(); s != 0 && errText == "" {
				// Served typed: the value goes from its slot into the arena.
				p.egress.enqueueScalarReply(m.Corr, s, v)
			} else {
				p.egress.enqueueReply(m.Corr, res.Results, errText, replyKind(errText, kind))
			}
		}
		core.ReleaseRelay(pl)
	case connector.StreamEndPayload:
		if _, ok := p.takeServed(m.Corr); ok {
			// The queue preserves enqueue order: the end cannot overtake its chunks.
			p.egress.enqueue(&egressItem{kind: wire.FrameStreamEnd, corr: m.Corr, text: pl.Err, errKind: uint8(pl.Kind)})
		}
	case connector.ReplyPayload:
		// Somebody answered in the component's stead, boxed.
		if _, ok := p.takeServed(m.Corr); ok {
			p.egress.enqueueReply(m.Corr, pl.Results, pl.Err, replyKind(pl.Err, pl.Kind))
		}
	default:
		if _, ok := p.takeServed(m.Corr); ok {
			p.egress.enqueueReply(m.Corr, nil, "", wire.KindNone)
		}
	}
	return true
}

// replyKind is the kind byte of a reply: an error without identity (a filter
// reject, say) ships as an application error.
func replyKind(errText string, kind connector.ErrKind) uint8 {
	if errText != "" && kind == connector.ErrKindNone {
		return wire.KindAppError
	}
	return uint8(kind)
}

// sweepServed answers inbound requests whose budget lapsed without an answer,
// on the heartbeat tick: a call with a deadline reply, a stream with a
// deadline end. A lapsed request is shed silently wherever it queues (the
// deadline lane, a resume flush) and a handler may outlive its caller, so
// without the sweep the record — and the caller node's pending entry, which
// only an answer releases — would stay for as long as the link lives. (A
// running stream producer needs no revoking: its context carries the same
// deadline.)
func (p *peer) sweepServed(now int64) {
	type lapse struct {
		corr uint64
		sc   servedCall
	}
	var lapsed []lapse
	p.pmu.Lock()
	for corr, sc := range p.served {
		if sc.deadline != 0 && sc.deadline < now {
			lapsed = append(lapsed, lapse{corr, sc})
			delete(p.served, corr)
		}
	}
	p.pmu.Unlock()
	for _, l := range lapsed {
		p.answer(l.corr, l.sc, wire.KindDeadline, "cluster: "+p.n.id+": deadline exceeded while serving")
	}
}

// replyKindOf maps a serve-side error to the structured kind carried on
// replies and stream ends.
func replyKindOf(err error) uint8 {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return wire.KindDeadline
	case errors.Is(err, context.Canceled):
		return wire.KindCancelled
	case errors.Is(err, core.ErrUnknownComp):
		return wire.KindNoSuchComponent
	case errors.Is(err, core.ErrOverloaded):
		return wire.KindOverloaded
	default:
		return wire.KindAppError
	}
}

// handleMigrate adopts a shipped component and acks.
func (p *peer) handleMigrate(m wire.Migrate) {
	decl := adl.ComponentDecl{Name: m.Component, Implements: m.Implements, Properties: m.Properties}
	err := p.n.adopt(decl, m.State, m.HasState)
	ack := wire.MigrateAck{Corr: m.Corr}
	if err != nil {
		ack.Err = err.Error()
	}
	if serr := p.send(func(e *wire.Encoder) error { return e.EncodeMigrateAck(ack) }); serr != nil {
		p.n.opts.Logf("cluster %s: migrate ack to %s: %v", p.n.id, p.id, serr)
		if err == nil {
			// The origin never sees the ack, so it rolls back and keeps
			// serving; keeping our adopted copy too would be a permanent
			// split brain with forked state. Evict it and restore the
			// gateway toward the origin (the owners entry still points
			// there — it is only cleared on a delivered adoption via
			// announce handling).
			if eerr := p.n.sys.EvictComponent(m.Component); eerr != nil {
				p.n.opts.Logf("cluster %s: evict %s after failed ack: %v", p.n.id, m.Component, eerr)
				return
			}
			p.n.sys.RegisterRemote(m.Component)
			if aerr := p.n.attachGateway(m.Component); aerr != nil {
				p.n.opts.Logf("cluster %s: re-attach gateway for %s: %v", p.n.id, m.Component, aerr)
			}
		}
		return
	}
	if err == nil {
		// Tell everyone else; the origin already repointed its own routing
		// as part of its rebind step, and tolerates the redundant update.
		p.n.announce(wire.Announce{Add: true, Component: m.Component}, "")
	}
}

// heartbeatLoop beacons liveness until the link dies. The beacon is the
// gossip carrier: each tick ships the full membership view (the self entry's
// version bumps per beacon, which is what lets a relayed fresh view refute a
// suspicion). Any received byte counts as liveness on the other side.
func (p *peer) heartbeatLoop() {
	defer p.n.wg.Done()
	t := time.NewTicker(p.n.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-p.n.ctx.Done():
			return
		case <-t.C:
			if p.down.Load() {
				return
			}
			p.sweepServed(time.Now().UnixNano())
			g := p.n.membership.localView()
			if err := p.send(func(e *wire.Encoder) error { return e.EncodeGossip(g) }); err != nil {
				p.n.peerDown(p, "heartbeat send: "+err.Error())
				return
			}
		}
	}
}
