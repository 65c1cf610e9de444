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

	"repro/internal/connector"
	"repro/internal/wire"
)

// Batch caps: a flush is forced mid-batch when the assembled frame reaches
// either bound, keeping worst-case reply latency and peer memory in check.
const (
	batchMaxBytes  = 64 << 10
	batchMaxFrames = 128
)

// egressItem is one queued outbound frame, kept small because every frame is
// copied into the queue: the frame's kind, its correlation, and the few words
// its kind needs. Value lists ride beside the queue, not in it — a request's
// argument block and a reply's result block are encoded when the frame is
// queued, into the arena that is swapped with the queue (off:end is the item's
// span of it), so what cannot be encoded is refused or downgraded there and
// the writer only splices bytes. Requests carry the caller's absolute deadline
// so the relative budget on the wire is stamped at write time — a call that
// sat in the queue ships with its true remaining credit, and one that expired
// there fails locally without crossing the wire.
type egressItem struct {
	kind    wire.FrameType
	errKind uint8 // reply, stream end
	respTag uint8 // call
	corr    uint64
	// num is the one number a stream or replication frame carries besides its
	// correlation: an open's window, a credit's grant, a chunk's or a
	// snapshot's sequence.
	num         uint64
	off, end    int   // span of the arena; empty for a reply without results
	absDeadline int64 // unix nanos, 0 = none; calls and stream opens only
	trace, span int64 // calls and stream opens
	// comp and op name a request's target (comp also a replication frame's
	// component); text is its principal — or the error of a reply, a stream
	// end or a replication ack.
	comp, op, text string
	// val is what is too dynamic or too large for the arena: a stream chunk's
	// item, encoded at write time (one the codec cannot ship ends its stream,
	// which takes a bus send the enqueuing side may not make), and a
	// replication snapshot's state.
	val any
}

// appendBody encodes the frame the item carries; budget is a request's
// remaining deadline budget.
func (it *egressItem) appendBody(dst, arena []byte, budget int64, version uint8) ([]byte, error) {
	switch it.kind {
	case wire.FrameCall:
		return wire.AppendCall(dst, wire.Call{Corr: it.corr, Component: it.comp, Op: it.op, Principal: it.text,
			DeadlineNanos: budget, RawArgs: arena[it.off:it.end], Trace: it.trace, Span: it.span, RespTag: it.respTag}, version)
	case wire.FrameReply:
		r := wire.Reply{Corr: it.corr, Err: it.text, Kind: it.errKind}
		if it.end > it.off {
			r.RawResults = arena[it.off:it.end]
		}
		return wire.AppendReply(dst, r, version)
	case wire.FrameCancel:
		return wire.AppendCancel(dst, wire.Cancel{Corr: it.corr}), nil
	case wire.FrameStreamOpen:
		return wire.AppendStreamOpen(dst, wire.StreamOpen{Corr: it.corr, Component: it.comp, Op: it.op, Principal: it.text,
			DeadlineNanos: budget, Window: uint32(it.num), RawArgs: arena[it.off:it.end], Trace: it.trace, Span: it.span}, version)
	case wire.FrameStreamChunk:
		return wire.AppendStreamChunk(dst, wire.StreamChunk{Corr: it.corr, Seq: it.num, Item: it.val})
	case wire.FrameStreamCredit:
		return wire.AppendStreamCredit(dst, wire.StreamCredit{Corr: it.corr, Credit: uint32(it.num)}), nil
	case wire.FrameStreamEnd:
		return wire.AppendStreamEnd(dst, wire.StreamEnd{Corr: it.corr, Err: it.text, Kind: it.errKind}), nil
	case wire.FrameReplicate:
		state, _ := it.val.([]byte)
		return wire.AppendReplicate(dst, wire.Replicate{Corr: it.corr, Component: it.comp, Seq: it.num, State: state}), nil
	default:
		return wire.AppendReplicateAck(dst, wire.ReplicateAck{Corr: it.corr, Component: it.comp, Seq: it.num, Err: it.text}), nil
	}
}

// arenaRetain caps the arena capacity the egress keeps between batches, like
// the wire codec's own scratch: one huge argument block must not pin its
// buffer for the life of the link.
const arenaRetain = 1 << 20

// egress is the coalescing writer of one peer link.
type egress struct {
	p *peer

	mu    sync.Mutex
	q     []egressItem
	arena []byte // the encoded value lists of q's items

	// The drained queue and arena of the last batch, recycled at the next swap;
	// the flush loop's alone.
	spareQ     []egressItem
	spareArena []byte

	wake chan struct{} // cap 1: coalesces enqueue signals
}

func newEgress(p *peer) *egress {
	return &egress{p: p, wake: make(chan struct{}, 1)}
}

// enqueue queues one outbound frame that needs nothing encoded ahead: a
// cancel (which cannot overtake its own call — the queue preserves enqueue
// order), a stream chunk, credit grant or end (an end cannot overtake its
// chunks either), a replication snapshot or its ack. All of them coalesce
// with calls and replies into the same batch writes, which is what collapses
// a stream item's wire cost to a fraction of a syscall.
func (e *egress) enqueue(it *egressItem) {
	e.mu.Lock()
	e.q = append(e.q, *it)
	e.mu.Unlock()
	e.signal()
}

// enqueueRequest queues a call or a stream open, encoding its argument block
// — the typed call's own preencoded form, or args — into the arena. A block
// that cannot be encoded is the error, and nothing was queued.
func (e *egress) enqueueRequest(it *egressItem, call connector.TypedCall, args []any) error {
	e.mu.Lock()
	var (
		arena []byte
		err   error
	)
	if call != nil {
		arena, err = call.AppendArgs(e.arena)
	} else {
		arena, err = wire.AppendValues(e.arena, args)
	}
	if err != nil {
		e.mu.Unlock()
		return err
	}
	it.off, it.end = len(e.arena), len(arena)
	e.arena = arena
	e.q = append(e.q, *it)
	e.mu.Unlock()
	e.signal()
	return nil
}

// enqueueReply queues the reply to an inbound call. Results the codec cannot
// ship become an error reply in place.
func (e *egress) enqueueReply(corr uint64, results []any, errText string, kind uint8) {
	it := egressItem{kind: wire.FrameReply, corr: corr, text: errText, errKind: kind}
	e.mu.Lock()
	if len(results) > 0 {
		if arena, err := wire.AppendValues(e.arena, results); err != nil {
			it.text, it.errKind = "cluster: "+err.Error(), wire.KindAppError
		} else {
			it.off, it.end = len(e.arena), len(arena)
			e.arena = arena
		}
	}
	e.q = append(e.q, it)
	e.mu.Unlock()
	e.signal()
}

// enqueueScalarReply queues the reply to an inbound call served typed: the
// one scalar v points at (a *T of s) is encoded straight into the arena.
func (e *egress) enqueueScalarReply(corr uint64, s wire.Scalar, v any) {
	e.mu.Lock()
	arena := s.AppendSole(e.arena, v)
	e.q = append(e.q, egressItem{kind: wire.FrameReply, corr: corr, off: len(e.arena), end: len(arena)})
	e.arena = arena
	e.mu.Unlock()
	e.signal()
}

// signal wakes the flush loop.
func (e *egress) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// flushLoop drains the queue until the node closes or the link dies. Each
// wake-up swaps the queue and its arena against the recycled pair and writes
// the whole swath as one batch; anything enqueued during that write is picked
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
			batch, arena := e.q, e.arena
			e.q, e.arena = e.spareQ[:0], e.spareArena[:0]
			// Detach the spares immediately: the arrays just handed over now
			// belong to producers, and a spare must never alias them — on the
			// next swap it would hand writeBatch and the producers the same
			// backing array.
			e.spareQ, e.spareArena = nil, nil
			e.mu.Unlock()
			if len(batch) > 0 {
				e.writeBatch(batch, arena)
			}
			// Recycle the drained pair for the next swap.
			e.spareQ = batch[:0]
			if cap(arena) <= arenaRetain {
				e.spareArena = arena[:0]
			}
			if len(batch) == 0 {
				break
			}
		}
		if e.p.down.Load() {
			return
		}
	}
}

// writeBatch ships one swath of queued frames as batch writes, force-flushed
// at the batch caps (the encoder sends a batch of one as the bare frame). A
// request's deadline credit is derived here, and one that expired in the queue
// is not written. A frame that is left out — expired, or its body refused by
// the codec (a bad chunk item, an oversized frame) — is a data problem, not a
// link problem: it is answered locally once the write is done, the link stays
// up.
func (e *egress) writeBatch(items []egressItem, arena []byte) {
	p := e.p
	now := time.Now().UnixNano()

	var unsent []unsentFrame
	var werr error
	p.encMu.Lock()
	_ = p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	enc := p.enc
	enc.BeginBatch()
	for i := range items {
		it := &items[i]
		var budget int64
		if it.absDeadline != 0 {
			if budget = it.absDeadline - now; budget <= 0 {
				p.n.shedGateway.Add(1)
				unsent = append(unsent, unsentFrame{it, wire.KindDeadline, "deadline exceeded in egress queue"})
				continue
			}
		}
		body := func(dst []byte) ([]byte, error) { return it.appendBody(dst, arena, budget, p.version) }
		err := enc.BatchAdd(it.kind, body)
		if err != nil && it.kind == wire.FrameReply {
			// A reply too large to frame becomes an error reply in place.
			it.off, it.end = 0, 0
			it.text, it.errKind = "cluster: "+err.Error(), wire.KindAppError
			err = enc.BatchAdd(it.kind, body)
		}
		if err != nil {
			unsent = append(unsent, unsentFrame{it, wire.KindAppError, err.Error()})
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

	for _, u := range unsent {
		e.answerLocally(u.it, u.kind, u.reason)
	}
	if werr != nil {
		p.n.peerDown(p, "egress write: "+werr.Error())
	}
}

// unsentFrame is a frame that was left out of the write, and why.
type unsentFrame struct {
	it     *egressItem
	kind   uint8
	reason string
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
	case wire.FrameCall, wire.FrameStreamOpen:
		// The request frame was never written: settle its record.
		if pc, ok := p.takePending(it.corr); ok {
			p.n.settleForward(p, pc, wire.Reply{Corr: it.corr, Kind: kind,
				Err: "cluster: " + it.comp + "." + it.op + ": " + reason})
		}
	case wire.FrameStreamChunk:
		if sc, ok := p.takeServed(it.corr); ok {
			p.revoke(it.corr, sc)
			p.answer(it.corr, sc, wire.KindAppError, "cluster: stream item not wire-encodable")
		}
	case wire.FrameReplicate:
		p.n.opts.Logf("cluster %s: replicate %s seq=%d to %s dropped: %s",
			p.n.id, it.comp, it.num, p.id, reason)
	}
}
