// Per-peer-link frame coalescing: the egress queue gathers outbound call
// and reply frames while the link's writer is busy and packs them into one
// wire.FrameBatch write, cutting the syscall count per remote call from one
// write each way to one write per batch. Batching is group-commit style —
// no artificial delay by default: a flush starts as soon as the writer is
// free, and whatever queued during the previous write rides the next batch.
// Options.BatchLinger can add a bounded µs-scale wait to deepen batches on
// latency-tolerant links. Every data frame of every link goes out this way;
// only link-control frames (handshake, gossip, migrate, announce) are written
// directly.
package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/wire"
)

// Batch caps: a flush is forced mid-batch when the assembled frame reaches
// either bound, keeping worst-case reply latency and peer memory in check.
const (
	batchMaxBytes  = 64 << 10
	batchMaxFrames = 128
)

// egressItem is one queued outbound frame. Calls carry the caller's
// absolute deadline so the relative budget on the wire is stamped at write
// time — a call that sat in the queue ships with its true remaining credit,
// and one that expired there fails locally without crossing the wire.
type egressItem struct {
	kind         wire.FrameType // which of the frame fields below is set
	call         wire.Call
	reply        wire.Reply
	cancel       wire.Cancel
	streamOpen   wire.StreamOpen
	streamChunk  wire.StreamChunk
	streamCredit wire.StreamCredit
	streamEnd    wire.StreamEnd
	replicate    wire.Replicate
	replicateAck wire.ReplicateAck
	absDeadline  int64 // unix nanos, 0 = none; calls and stream opens only
}

// appendBody encodes the frame the item carries.
func (it *egressItem) appendBody(dst []byte, version uint8) ([]byte, error) {
	switch it.kind {
	case wire.FrameCall:
		return wire.AppendCall(dst, it.call, version)
	case wire.FrameReply:
		return wire.AppendReply(dst, it.reply, version)
	case wire.FrameCancel:
		return wire.AppendCancel(dst, it.cancel), nil
	case wire.FrameStreamOpen:
		return wire.AppendStreamOpen(dst, it.streamOpen, version)
	case wire.FrameStreamChunk:
		return wire.AppendStreamChunk(dst, it.streamChunk)
	case wire.FrameStreamCredit:
		return wire.AppendStreamCredit(dst, it.streamCredit), nil
	case wire.FrameStreamEnd:
		return wire.AppendStreamEnd(dst, it.streamEnd), nil
	case wire.FrameReplicate:
		return wire.AppendReplicate(dst, it.replicate), nil
	default:
		return wire.AppendReplicateAck(dst, it.replicateAck), nil
	}
}

// egress is the coalescing writer of one peer link.
type egress struct {
	p *peer

	mu    sync.Mutex
	q     []egressItem
	spare []egressItem // recycled backing array for q

	wake chan struct{} // cap 1: coalesces enqueue signals
}

func newEgress(p *peer) *egress {
	return &egress{p: p, wake: make(chan struct{}, 1)}
}

// enqueueCall queues an outbound remote call.
func (e *egress) enqueueCall(c wire.Call, absDeadline int64) {
	e.enqueue(egressItem{kind: wire.FrameCall, call: c, absDeadline: absDeadline})
}

// enqueueReply queues an outbound reply.
func (e *egress) enqueueReply(r wire.Reply) {
	e.enqueue(egressItem{kind: wire.FrameReply, reply: r})
}

// enqueueCancel queues an outbound call revocation. Cancels coalesce with
// the rest of the traffic; a cancel overtaking its own call is impossible
// because the queue preserves enqueue order.
func (e *egress) enqueueCancel(c wire.Cancel) {
	e.enqueue(egressItem{kind: wire.FrameCancel, cancel: c})
}

// enqueueStreamOpen queues an outbound stream open. Like a call it carries
// the caller's absolute deadline, so the relative budget is stamped at write
// time and an open that expired in the queue fails locally.
func (e *egress) enqueueStreamOpen(o wire.StreamOpen, absDeadline int64) {
	e.enqueue(egressItem{kind: wire.FrameStreamOpen, streamOpen: o, absDeadline: absDeadline})
}

// enqueueStreamChunk queues one outbound stream item. Chunks coalesce with
// calls and replies into the same batch writes — this is what collapses a
// stream's per-item wire cost to a fraction of a syscall.
func (e *egress) enqueueStreamChunk(c wire.StreamChunk) {
	e.enqueue(egressItem{kind: wire.FrameStreamChunk, streamChunk: c})
}

// enqueueStreamCredit queues one outbound credit grant.
func (e *egress) enqueueStreamCredit(c wire.StreamCredit) {
	e.enqueue(egressItem{kind: wire.FrameStreamCredit, streamCredit: c})
}

// enqueueStreamEnd queues one outbound terminal end frame. The queue
// preserves enqueue order, so an end can never overtake its own chunks.
func (e *egress) enqueueStreamEnd(s wire.StreamEnd) {
	e.enqueue(egressItem{kind: wire.FrameStreamEnd, streamEnd: s})
}

// enqueueReplicate queues one outbound warm-standby snapshot. Replication
// traffic coalesces with calls and replies — shipping a snapshot costs a
// fraction of a syscall when the link is busy.
func (e *egress) enqueueReplicate(r wire.Replicate) {
	e.enqueue(egressItem{kind: wire.FrameReplicate, replicate: r})
}

// enqueueReplicateAck queues one outbound replication acknowledgement.
func (e *egress) enqueueReplicateAck(a wire.ReplicateAck) {
	e.enqueue(egressItem{kind: wire.FrameReplicateAck, replicateAck: a})
}

func (e *egress) enqueue(it egressItem) {
	e.mu.Lock()
	e.q = append(e.q, it)
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// flushLoop drains the queue until the node closes or the link dies. Each
// wake-up swaps the queue against an empty recycled array and writes the
// whole swath as one batch; anything enqueued during that write is picked
// up by the next inner iteration without waiting for another wake.
func (e *egress) flushLoop(ctx context.Context) {
	defer e.p.n.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-e.wake:
		}
		if linger := e.p.n.opts.BatchLinger; linger > 0 {
			// Group-commit wait — but only while the batch is still shallow.
			// Once a write's worth of frames has queued, waiting longer adds
			// latency without saving another syscall.
			e.mu.Lock()
			depth := len(e.q)
			e.mu.Unlock()
			if depth < batchMaxFrames/4 {
				time.Sleep(linger)
			}
		}
		for {
			e.mu.Lock()
			batch := e.q
			e.q = e.spare[:0]
			// Detach spare immediately: the array just handed to e.q now
			// belongs to producers, and spare must never alias it — on the
			// next swap it would hand writeBatch and the producers the same
			// backing array.
			e.spare = nil
			e.mu.Unlock()
			if len(batch) == 0 {
				e.spare = batch[:0] // recycle the drained array for the next swap
				break
			}
			e.writeBatch(batch)
			e.spare = batch[:0]
		}
		if e.p.down.Load() {
			return
		}
	}
}

// writeBatch ships one swath of queued frames as batch writes, force-flushed
// at the batch caps (the encoder sends a batch of one as the bare frame).
// Deadline credit is re-derived per call here and expired calls fail
// locally. A frame whose body cannot be encoded (bad value type, oversized)
// is a data problem, not a link problem: it is left out of the write and
// answered locally, the link stays up.
func (e *egress) writeBatch(items []egressItem) {
	p := e.p
	now := time.Now().UnixNano()

	// Pre-scan calls and stream opens: stamp remaining budgets, shed the
	// expired ones.
	live := items[:0]
	for i := range items {
		it := &items[i]
		if it.absDeadline != 0 {
			rem := it.absDeadline - now
			if rem <= 0 {
				p.n.shedGateway.Add(1)
				e.answerLocally(it, wire.KindDeadline, "deadline exceeded in egress queue")
				continue
			}
			if it.kind == wire.FrameCall {
				it.call.DeadlineNanos = rem
			} else {
				it.streamOpen.DeadlineNanos = rem
			}
		}
		live = append(live, *it)
	}
	if len(live) == 0 {
		return
	}

	var failed []encodeFailure
	var werr error
	p.encMu.Lock()
	_ = p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	enc := p.enc
	enc.BeginBatch()
	for i := range live {
		it := &live[i]
		body := func(dst []byte) ([]byte, error) { return it.appendBody(dst, p.version) }
		err := enc.BatchAdd(it.kind, body)
		if err != nil && it.kind == wire.FrameReply {
			// Results the codec cannot ship become an error reply in place.
			it.reply = wire.Reply{Corr: it.reply.Corr, Err: "cluster: " + err.Error(), Kind: wire.KindAppError}
			err = enc.BatchAdd(it.kind, body)
		}
		if err != nil {
			failed = append(failed, encodeFailure{it, err})
			continue
		}
		p.countBatchFrame()
		if enc.BatchLen() >= batchMaxBytes || enc.BatchCount() >= batchMaxFrames {
			p.countBatchWrite()
			if werr = enc.FlushBatch(); werr != nil {
				break
			}
		}
	}
	if werr == nil && enc.BatchCount() > 0 {
		p.countBatchWrite()
		werr = enc.FlushBatch()
	}
	p.encMu.Unlock()

	for _, f := range failed {
		e.answerLocally(f.it, wire.KindAppError, f.err.Error())
	}
	if werr != nil {
		p.n.peerDown(p, "egress write: "+werr.Error())
	}
}

// encodeFailure is a frame whose body could not be encoded, and why.
type encodeFailure struct {
	it  *egressItem
	err error
}

// answerLocally settles, on this side of the link, a frame that will not be
// written: a call's or a stream open's pending record gets a typed error
// answer; a chunk's stream is given up the way a cancel gives it up — the
// record is taken, the producer revoked — and the consumer sees a typed end
// rather than a gap in the sequence; a dropped snapshot is logged (the
// replicator's next round retries; ack lag shows the gap). Cancels, credits,
// ends and acks are best-effort and need no answer.
func (e *egress) answerLocally(it *egressItem, kind uint8, reason string) {
	p := e.p
	switch it.kind {
	case wire.FrameCall:
		e.failPending(it.call.Corr, it.call.Component, it.call.Op, kind, reason)
	case wire.FrameStreamOpen:
		e.failPending(it.streamOpen.Corr, it.streamOpen.Component, it.streamOpen.Op, kind, reason)
	case wire.FrameStreamChunk:
		corr := it.streamChunk.Corr
		if sc, ok := p.takeServed(corr); ok {
			p.revoke(corr, sc)
			p.answer(corr, sc, wire.KindAppError, "cluster: stream item not wire-encodable")
		}
	case wire.FrameReplicate:
		p.n.opts.Logf("cluster %s: replicate %s seq=%d to %s dropped: %s",
			p.n.id, it.replicate.Component, it.replicate.Seq, p.id, reason)
	}
}

// failPending settles the record of a request frame that was never written.
func (e *egress) failPending(corr uint64, comp, op string, kind uint8, reason string) {
	if pc, ok := e.p.takePending(corr); ok {
		e.p.n.settleForward(e.p, pc, wire.Reply{Corr: corr, Kind: kind,
			Err: "cluster: " + comp + "." + op + ": " + reason})
	}
}
