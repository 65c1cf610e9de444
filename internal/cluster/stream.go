// Cross-node server streams: the gateway forwards a stream open
// over the owning peer's link, the serving side relays it into a local
// manual-credit stream, and chunks/credits/ends ride the same per-link
// egress batches as calls and replies. Credit is threaded end-to-end: the
// remote consumer's grants arrive as FrameStreamCredit and are applied to
// the relay stream, which forwards them to the producer — so the window
// that throttles the producer is the real consumer's, not the relay's.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// streamIn is the caller-side record of one stream forwarded over a link:
// the wire correlation maps back to the original bus caller so inbound
// chunks and the end frame are re-emitted toward the consumer's address.
type streamIn struct {
	src  bus.Address // original caller (consumer) address
	corr uint64      // original bus correlation id
	comp string
	op   string
}

// chunkRetry bounds how long the read loop parks re-offering an inbound
// chunk to a momentarily full consumer mailbox before dropping it. Credit
// keeps in-flight chunks at or below the consumer's ring size, so only
// unrelated traffic on the shared shard can force this path.
const (
	chunkRetry    = 200 * time.Microsecond
	chunkAttempts = 8
)

// addStreamIn registers a caller-side stream record.
func (p *peer) addStreamIn(corr uint64, si *streamIn) {
	p.pmu.Lock()
	p.streamsIn[corr] = si
	p.pmu.Unlock()
}

// lookupStreamIn returns the caller-side stream record without removing it.
func (p *peer) lookupStreamIn(corr uint64) (*streamIn, bool) {
	p.pmu.Lock()
	si, ok := p.streamsIn[corr]
	p.pmu.Unlock()
	return si, ok
}

// takeStreamIn removes and returns the caller-side stream record.
func (p *peer) takeStreamIn(corr uint64) (*streamIn, bool) {
	p.pmu.Lock()
	si, ok := p.streamsIn[corr]
	if ok {
		delete(p.streamsIn, corr)
	}
	p.pmu.Unlock()
	return si, ok
}

// addRelay registers the serve-side relay stream so inbound credit frames
// can find it; the relay's cancel handle lives in serves, which FrameCancel
// and peer death revoke.
func (p *peer) addRelay(corr uint64, st *core.Stream) {
	p.pmu.Lock()
	p.relays[corr] = st
	p.pmu.Unlock()
}

// dropRelay removes a serve-side relay stream.
func (p *peer) dropRelay(corr uint64) {
	p.pmu.Lock()
	delete(p.relays, corr)
	p.pmu.Unlock()
}

// grantRelay applies one inbound credit frame to its relay stream, which
// forwards the grant to the local producer. Unmatched credit (the stream
// already ended) is dropped — credit is best-effort, like cancel.
func (p *peer) grantRelay(c wire.StreamCredit) {
	p.pmu.Lock()
	st := p.relays[c.Corr]
	p.pmu.Unlock()
	if st != nil && c.Credit > 0 {
		st.Grant(int(c.Credit))
	}
}

// forwardStreamOpen ships one stream open over the wire and registers the
// correlation mapping that routes chunks, the end frame, credit and cancel
// for the stream's whole lifetime.
func (n *Node) forwardStreamOpen(comp string, m bus.Message, open connector.StreamOpenPayload) {
	endHere := func(kind connector.ErrKind, reason string) {
		_ = n.sys.Bus().Send(bus.Message{
			Kind: bus.Reply, Op: m.Op,
			Src: core.ComponentAddress(comp), Dst: m.Src, Corr: m.Corr,
			Payload: connector.StreamEndPayload{Err: reason, Kind: kind},
		})
	}
	p := n.livePeer(n.Owner(comp))
	if p == nil {
		endHere(connector.ErrKindApp, fmt.Sprintf("cluster: no live peer hosts %s", comp))
		return
	}
	if m.Deadline != 0 && time.Now().UnixNano() >= m.Deadline {
		n.shedGateway.Add(1)
		endHere(connector.ErrKindDeadline,
			fmt.Sprintf("cluster: %s.%s: deadline exceeded at gateway", comp, m.Op))
		return
	}
	corr := p.corr.Add(1)
	o := wire.StreamOpen{Corr: corr, Component: comp, Op: m.Op,
		Principal: open.Principal, Window: uint32(open.Window), Args: open.Args}
	// Trace propagation mirrors forward(): the gateway's forward span rides
	// as the remote parent. A stream's gateway hop is recorded at open time —
	// the relay may outlive any reasonable span buffer residency.
	if m.Trace != 0 {
		fwdSpan := telemetry.NextSpanID()
		o.Trace = m.Trace
		o.Span = telemetry.PackSpan(fwdSpan, telemetry.SpanID(m.Span))
		now := time.Now().UnixNano()
		n.sys.Recorder().Record(telemetry.Span{
			Trace: m.Trace, ID: fwdSpan, Parent: telemetry.SpanID(m.Span),
			Start: now, End: now,
			Op: m.Op, Comp: comp, Src: n.id, Dst: p.id,
			Kind: telemetry.KindForward, Outcome: telemetry.OutcomeOK,
		})
	}
	n.imu.Lock()
	n.inflight[callKey{src: m.Src, corr: m.Corr}] = remoteRef{p: p, corr: corr}
	n.imu.Unlock()
	p.addStreamIn(corr, &streamIn{src: m.Src, corr: m.Corr, comp: comp, op: m.Op})
	// The link may have died since it was picked; same re-check as forwardVia
	// (endStreamIn is a no-op when failAll already settled the record).
	if p.down.Load() {
		n.endStreamIn(p, corr, connector.ErrKindApp, "cluster: peer "+p.id+" down")
		return
	}
	// The budget is stamped at write time from the absolute deadline.
	p.egress.enqueueStreamOpen(o, m.Deadline)
}

// creditForward relays a consumer's credit grant over the wire. Credit for
// a stream that already settled (or whose link died) is silently dropped.
func (n *Node) creditForward(m bus.Message) {
	credit, _ := m.Payload.(int)
	if credit <= 0 {
		return
	}
	n.imu.Lock()
	ref, ok := n.inflight[callKey{src: m.Src, corr: m.Corr}]
	n.imu.Unlock()
	if !ok || ref.p.down.Load() {
		return
	}
	ref.p.egress.enqueueStreamCredit(wire.StreamCredit{Corr: ref.corr, Credit: uint32(credit)})
}

// endStreamIn settles one forwarded stream locally: the correlation
// mappings are dropped and the consumer gets a terminal end payload.
// Idempotent — every settle path (end frame, egress expiry, encode failure,
// link death) funnels through the takeStreamIn claim.
func (n *Node) endStreamIn(p *peer, corr uint64, kind connector.ErrKind, reason string) {
	si, ok := p.takeStreamIn(corr)
	if !ok {
		return
	}
	n.imu.Lock()
	delete(n.inflight, callKey{src: si.src, corr: si.corr})
	n.imu.Unlock()
	_ = n.sys.Bus().Send(bus.Message{
		Kind: bus.Reply, Op: si.op,
		Src: core.ComponentAddress(si.comp), Dst: si.src, Corr: si.corr,
		Payload: connector.StreamEndPayload{Err: reason, Kind: kind},
	})
}

// deliverStreamChunk re-emits one inbound chunk as a local bus push toward
// the original consumer, in the same pooled envelope local producers use —
// the client edge releases it after moving the item into the stream's ring.
// A chunk for an unknown correlation (the consumer closed; the cancel and
// the chunk crossed on the wire) is dropped.
func (n *Node) deliverStreamChunk(p *peer, c wire.StreamChunk) {
	si, ok := p.lookupStreamIn(c.Corr)
	if !ok {
		return
	}
	env := connector.NewStreamItem(c.Seq, c.Item)
	m := bus.Message{
		Kind: bus.Reply, Op: si.op, Payload: env,
		Src: core.ComponentAddress(si.comp), Dst: si.src, Corr: si.corr,
	}
	for attempt := 0; ; attempt++ {
		err := n.sys.Bus().Send(m)
		if err == nil {
			return
		}
		if !errors.Is(err, bus.ErrMailboxFull) || attempt >= chunkAttempts {
			env.Release()
			n.opts.Logf("cluster %s: dropped stream chunk corr=%d from %s: %v",
				n.id, c.Corr, p.id, err)
			return
		}
		time.Sleep(chunkRetry)
	}
}

// failStreamsIn settles a dead link's forwarded streams with an error end —
// the streaming half of failAll. The map has already been detached from the
// peer under pmu.
func (p *peer) failStreamsIn(streams map[uint64]*streamIn, reason string) {
	for _, si := range streams {
		p.n.imu.Lock()
		delete(p.n.inflight, callKey{src: si.src, corr: si.corr})
		p.n.imu.Unlock()
		_ = p.n.sys.Bus().Send(bus.Message{
			Kind: bus.Reply, Op: si.op,
			Src: core.ComponentAddress(si.comp), Dst: si.src, Corr: si.corr,
			Payload: connector.StreamEndPayload{Err: reason, Kind: connector.ErrKindApp},
		})
	}
}

// dispatchStreamOpen serves one inbound stream open concurrently — the
// relay goroutine lives as long as the stream flows.
func (p *peer) dispatchStreamOpen(o wire.StreamOpen) {
	p.n.wg.Add(1)
	go func() {
		defer p.n.wg.Done()
		p.serveStream(o)
	}()
}

// serveStream relays one inbound stream open into the local system: a
// manual-credit stream against the hosting component, whose items are
// pumped back as chunk frames through the egress batcher. Credit arriving
// from the remote consumer is granted to this relay (grantRelay), which
// forwards it to the producer — so end-to-end backpressure is governed by
// the real consumer. The relay registers a serveCtl: a FrameCancel (or link
// death) revokes it, which cancels the relay context and through it reclaims
// the local producer without waiting out the deadline.
func (p *peer) serveStream(o wire.StreamOpen) {
	ctx := p.n.ctx
	var cancel context.CancelFunc
	if o.DeadlineNanos > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(o.DeadlineNanos))
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	ctl := &serveCtl{cancel: cancel}
	p.addServe(o.Corr, ctl)
	defer p.dropServe(o.Corr)
	// Continue the caller's trace: the relayed open's span parents under the
	// gateway's forward span, exactly like a forwarded unary call.
	ctx = core.WithTrace(ctx, o.Trace, o.Span)
	cl := p.n.sys.Client(o.Component)
	if o.Principal != "" {
		cl = cl.With(core.WithPrincipal(o.Principal))
	}
	st, err := cl.StreamManual(ctx, int(o.Window), o.Op, o.Args...)
	if err != nil {
		if !ctl.revoked.Load() {
			p.egress.enqueueStreamEnd(wire.StreamEnd{Corr: o.Corr, Err: err.Error(), Kind: replyKindOf(err)})
		}
		return
	}
	p.addRelay(o.Corr, st)
	defer p.dropRelay(o.Corr)
	defer st.Close()
	var seq uint64
	for {
		item, rerr := st.Recv(ctx)
		if rerr != nil {
			if ctl.revoked.Load() {
				return // caller revoked the stream and forgot the corr — no end frame
			}
			end := wire.StreamEnd{Corr: o.Corr}
			if !errors.Is(rerr, io.EOF) {
				end.Err = rerr.Error()
				end.Kind = replyKindOf(rerr)
			}
			p.egress.enqueueStreamEnd(end)
			return
		}
		seq++
		p.egress.enqueueStreamChunk(wire.StreamChunk{Corr: o.Corr, Seq: seq, Item: item})
	}
}

// abortRelayEncode reclaims a relay whose chunk the value codec could not
// ship: the relay is revoked (reclaiming the producer through its context)
// and the consumer gets a typed end instead of a silent gap in the
// sequence.
func (p *peer) abortRelayEncode(corr uint64) {
	p.pmu.Lock()
	ctl := p.serves[corr]
	p.pmu.Unlock()
	if ctl != nil {
		ctl.revoked.Store(true)
		ctl.cancel()
	}
	p.egress.enqueueStreamEnd(wire.StreamEnd{Corr: corr, Kind: wire.KindAppError,
		Err: "cluster: stream item not wire-encodable"})
}
