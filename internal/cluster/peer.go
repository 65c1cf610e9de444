package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
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
type peer struct {
	n    *Node
	id   string
	conn net.Conn
	// version is the negotiated wire protocol version of this link:
	// min(both sides' MaxVersion).
	version uint8
	// egress is the frame-coalescing writer every data frame goes through.
	egress *egress

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

	pmu       sync.Mutex
	pending   map[uint64]func(wire.Reply) // remote calls awaiting replies
	migs      map[uint64]chan string      // migrations awaiting acks
	serves    map[uint64]*serveCtl        // inbound calls/streams being served locally
	streamsIn map[uint64]*streamIn        // forwarded stream opens awaiting chunks/end
	relays    map[uint64]*core.Stream     // inbound streams being relayed locally
}

// serveCtl lets a FrameCancel (or peer death) revoke an inbound call while
// it is being served: cancel aborts the local client call, revoked tells the
// serve goroutine to suppress its reply — the caller has already settled and
// forgotten the correlation.
type serveCtl struct {
	cancel  context.CancelFunc
	revoked atomic.Bool
}

func newPeer(n *Node, id string, version uint8, conn net.Conn, enc *wire.Encoder, dec *wire.Decoder, seen *atomic.Int64) *peer {
	p := &peer{
		n: n, id: id, version: version, conn: conn, enc: enc, dec: dec, lastSeen: seen,
		pending:   map[uint64]func(wire.Reply){},
		migs:      map[uint64]chan string{},
		serves:    map[uint64]*serveCtl{},
		streamsIn: map[uint64]*streamIn{},
		relays:    map[uint64]*core.Stream{},
	}
	p.egress = newEgress(p)
	p.lastSeen.Store(time.Now().UnixNano())
	return p
}

// start launches the read pump, the gossip beacon and the egress writer.
func (p *peer) start() {
	p.n.wg.Add(3)
	go p.readLoop()
	go p.heartbeatLoop()
	go p.egress.flushLoop(p.n.ctx)
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

// addPending registers a reply continuation for a remote call.
func (p *peer) addPending(corr uint64, cb func(wire.Reply)) {
	p.pmu.Lock()
	p.pending[corr] = cb
	p.pmu.Unlock()
}

// takePending removes and returns the continuation for corr.
func (p *peer) takePending(corr uint64) (func(wire.Reply), bool) {
	p.pmu.Lock()
	cb, ok := p.pending[corr]
	if ok {
		delete(p.pending, corr)
	}
	p.pmu.Unlock()
	return cb, ok
}

// addServe registers the control handle of one inbound call being served.
func (p *peer) addServe(corr uint64, ctl *serveCtl) {
	p.pmu.Lock()
	p.serves[corr] = ctl
	p.pmu.Unlock()
}

// dropServe removes a serve control handle.
func (p *peer) dropServe(corr uint64) {
	p.pmu.Lock()
	delete(p.serves, corr)
	p.pmu.Unlock()
}

// handleCancel revokes one inbound call by correlation id. Best-effort: a
// call that already replied (or never arrived) is silently ignored.
func (p *peer) handleCancel(c wire.Cancel) {
	p.pmu.Lock()
	ctl := p.serves[c.Corr]
	p.pmu.Unlock()
	if ctl != nil {
		ctl.revoked.Store(true)
		ctl.cancel()
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

// failAll resolves every outstanding call and migration with an error —
// called exactly once, from peerDown.
func (p *peer) failAll(reason string) {
	p.pmu.Lock()
	pending := p.pending
	migs := p.migs
	serves := p.serves
	streams := p.streamsIn
	p.pending = map[uint64]func(wire.Reply){}
	p.migs = map[uint64]chan string{}
	p.serves = map[uint64]*serveCtl{}
	p.streamsIn = map[uint64]*streamIn{}
	p.pmu.Unlock()
	for corr, cb := range pending {
		cb(wire.Reply{Corr: corr, Err: reason, Kind: wire.KindAppError})
	}
	for _, ch := range migs {
		select {
		case ch <- reason:
		default:
		}
	}
	// Calls we were serving for the dead peer can never deliver their
	// replies; abort them so they stop consuming local capacity. Relayed
	// streams are covered here too: their serveCtls live in the same table,
	// and revoking one cancels the relay context, reclaiming its producer.
	for _, ctl := range serves {
		ctl.revoked.Store(true)
		ctl.cancel()
	}
	// Streams forwarded over this link can never deliver another chunk;
	// settle their consumers with an error end.
	p.failStreamsIn(streams, reason)
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
		c, err := wire.ParseCall(body, p.version)
		if err != nil {
			return err
		}
		p.dispatchCall(c)
	case wire.FrameReply:
		r, err := wire.ParseReply(body, p.version)
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
		p.dispatchStreamOpen(o)
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
		p.grantRelay(c)
	case wire.FrameStreamEnd:
		s, err := wire.ParseStreamEnd(body)
		if err != nil {
			return err
		}
		p.n.endStreamIn(p, s.Corr, connector.ErrKind(s.Kind), s.Err)
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

// dispatchCall serves one inbound remote call concurrently: a call may fan
// out into further remote calls over this same link, whose replies the read
// loop dispatches.
func (p *peer) dispatchCall(c wire.Call) {
	p.n.wg.Add(1)
	go func() {
		defer p.n.wg.Done()
		p.serveCall(c)
	}()
}

// dispatchReply resolves one inbound reply against the pending table.
func (p *peer) dispatchReply(r wire.Reply) {
	if cb, ok := p.takePending(r.Corr); ok {
		cb(r)
	} else {
		p.n.opts.Logf("cluster %s: late reply corr=%d from %s", p.n.id, r.Corr, p.id)
	}
}

// serveCall executes one remote invocation against the local system and
// replies. The call enters through the compiled client-binding handle, so
// the callee-side container services (auth with the shipped principal,
// audit, transactions), woven aspects and meta-objects all apply exactly as
// for a local call — and the caller's shipped deadline budget is enforced
// here: when it runs out, the local wait aborts (releasing its waiter slot)
// and the serving component rejects the request if it is still queued, so
// an abandoned cross-node call stops consuming callee capacity.
func (p *peer) serveCall(c wire.Call) {
	ctx := p.n.ctx
	var cancel context.CancelFunc
	if c.DeadlineNanos > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(c.DeadlineNanos))
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	// Register before invoking so a FrameCancel racing the call always finds
	// the handle; cancelling the context releases the local waiter slot and
	// revokes the request at the serving component (see core's cancel path).
	ctl := &serveCtl{cancel: cancel}
	p.addServe(c.Corr, ctl)
	defer p.dropServe(c.Corr)
	// Re-enter the platform edge as a mid-trace continuation: the serving
	// node extends the caller's span tree (its serve span parents under the
	// forwarded span id) instead of minting a second root.
	ctx = core.WithTrace(ctx, c.Trace, c.Span)
	cl := p.n.sys.Client(c.Component)
	if c.Principal != "" {
		cl = cl.With(core.WithPrincipal(c.Principal))
	}
	results, err := cl.Call(ctx, c.Op, c.Args...)
	if ctl.revoked.Load() {
		return // caller revoked the call and forgot the corr — no reply
	}
	rep := wire.Reply{Corr: c.Corr, Results: results}
	if err != nil {
		rep.Err = err.Error()
		rep.Kind = replyKindOf(err)
	}
	// Replies coalesce with whatever else is outbound; a non-encodable
	// result set is downgraded to an error reply inside the egress writer.
	p.egress.enqueueReply(rep)
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
			g := p.n.membership.localView()
			if err := p.send(func(e *wire.Encoder) error { return e.EncodeGossip(g) }); err != nil {
				p.n.peerDown(p, "heartbeat send: "+err.Error())
				return
			}
		}
	}
}
