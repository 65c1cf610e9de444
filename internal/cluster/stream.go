// Cross-node server streams. A stream is a call answered more than once, so
// it takes the call's path on both nodes: the gateway forwards the open like
// any request (forwardVia, one pendingCall), the serving node's link puts it
// on its bus like any request (peer.relay, one servedCall), and what the
// producer answers settles inline on its own goroutine (peer.settleServed).
// Chunks, credits and ends ride the same per-link egress batches as calls and
// replies. What is a stream's alone is in this file: on the caller node, the
// chunk that passes through a pending record without taking it and the credit
// grant that travels the other way. Credit is end-to-end — the consumer's
// grants arrive on the serving node as FrameStreamCredit and go to the
// producer as the bus's own credit control — so the window that throttles the
// producer is the real consumer's; nothing in between buffers an item.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/wire"
)

// chunkRetry bounds how long the read loop parks re-offering an inbound
// chunk to a momentarily full consumer mailbox before giving the stream up.
// A consumer at the platform edge has no mailbox to fill (chunks settle
// inline into the stream's ring), so only a consumer behind one — a mediating
// connector holding traffic back — can force this path.
const (
	chunkRetry    = 200 * time.Microsecond
	chunkAttempts = 8
)

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
	ref.p.egress.enqueue(&egressItem{kind: wire.FrameStreamCredit, corr: ref.corr, num: uint64(uint32(credit))})
}

// deliverStreamChunk re-emits one inbound chunk as a local bus push toward
// the original consumer, in the same pooled envelope local producers use —
// the client edge releases it after moving the item into the stream's ring.
// A chunk for an unknown correlation (the consumer closed; the cancel and
// the chunk crossed on the wire), or for one that is no stream's, is dropped.
// A chunk the consumer cannot be handed ends the stream: a gap in the
// sequence would be silent, and the credit that item held would never come
// back.
func (n *Node) deliverStreamChunk(p *peer, c wire.StreamChunk) {
	pc, _ := p.lookupPending(c.Corr)
	if _, stream := pc.payload.(connector.StreamOpenPayload); !stream {
		return
	}
	env := connector.NewStreamItem(c.Seq, c.Item)
	m := bus.Message{
		Kind: bus.Reply, Op: pc.op, Payload: env,
		Src: pc.g.addr, Dst: pc.src, Corr: pc.srcCorr,
	}
	err := n.sys.Bus().Send(m)
	for attempt := 0; errors.Is(err, bus.ErrMailboxFull) && attempt < chunkAttempts; attempt++ {
		time.Sleep(chunkRetry)
		err = n.sys.Bus().Send(m)
	}
	if err == nil {
		return
	}
	env.Release()
	// Whoever takes the record settles the stream; a cancel or an end that
	// got there first leaves nothing to do.
	if pc, ok := p.takePending(c.Corr); ok {
		p.egress.enqueue(&egressItem{kind: wire.FrameCancel, corr: c.Corr})
		n.settleForward(p, pc, wire.Reply{Corr: c.Corr, Kind: wire.KindAppError,
			Err: fmt.Sprintf("cluster: %s.%s: stream item %d dropped at %s: %v", pc.g.comp, pc.op, c.Seq, n.id, err)})
	}
}
