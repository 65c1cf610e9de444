// Server-streaming calls with credit-based flow control (DESIGN.md §10).
// This file is the consumer half of the stream plane: the Stream handle, the
// correlation-sharded stream table settleClient dispatches into, and the
// platform-edge open. Like the EDF lane and the credit window it stays off
// the time package — every wait here is bounded by the caller's context,
// and the open's deadline is stamped by the shared admit path.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/telemetry"
)

// DefaultStreamWindow is the credit window used when neither
// WithStreamWindow nor an explicit window is given: the producer may have
// at most this many un-consumed items in flight.
const DefaultStreamWindow = 32

// maxStreamWindow bounds any requested window — a window is buffer memory
// pinned per stream on the consumer, so a misbehaving opener cannot demand
// an unbounded ring.
const maxStreamWindow = 4096

// ErrStreamClosed is returned by Recv after the consumer closed the stream.
var ErrStreamClosed = errors.New("core: stream closed")

// Stream is one in-flight server stream: one request, many correlated
// server-push items. Items arrive on the producer's goroutine, through the
// client edge's direct endpoint (settleClient), into a ring sized to the
// credit window, so a Recv of a buffered item allocates nothing; when the
// ring drains Recv blocks until the producer pushes or the stream ends. The
// stream ends with io.EOF (clean), a typed error (deadline, cancellation),
// or an application error.
//
// A Stream is owned by one consumer: Recv must not be called concurrently.
// Close is safe to call at any time and from other goroutines.
type Stream struct {
	a admitted // the open: where the producer is, and what revokes it

	mu       sync.Mutex
	buf      []any // ring, len(buf) == credit window
	head     int
	count    int
	received uint64 // items accepted into the ring, ever
	consumed int    // items consumed since the last auto-grant
	grantAt  int    // auto-grant threshold (window/4, min 1)
	ended    bool
	endErr   error
	closed   bool
	notify   chan struct{} // capacity 1: wake the blocked consumer
}

// push accepts one item from settleClient; it reports false when the
// stream is gone (closed/ended) or the ring is full — a protocol violation
// by the producer, since credit bounds in-flight items to the window — and
// the caller counts the item as shed.
func (s *Stream) push(item any) bool {
	s.mu.Lock()
	if s.closed || s.ended || s.count == len(s.buf) {
		s.mu.Unlock()
		return false
	}
	s.buf[(s.head+s.count)%len(s.buf)] = item
	s.count++
	s.received++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return true
}

// finish records the stream's terminal state (idempotent; first end wins).
func (s *Stream) finish(msg string, kind connector.ErrKind) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if msg == "" {
		s.endErr = io.EOF
	} else {
		s.endErr = replyErrorKind(msg, kind)
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Recv returns the next item, blocking until one arrives, the stream ends,
// or ctx is done. Buffered items drain before the terminal state is
// reported, so no delivered item is lost to the end racing the consumer. A
// clean end returns io.EOF. Each consumed window quarter is granted back to
// the producer, which is what keeps the flow moving — a consumer that stops
// calling Recv stalls the producer by design.
func (s *Stream) Recv(ctx context.Context) (any, error) {
	for {
		s.mu.Lock()
		if s.count > 0 {
			item := s.buf[s.head]
			s.buf[s.head] = nil
			s.head = (s.head + 1) % len(s.buf)
			s.count--
			grant := 0
			s.consumed++
			if s.consumed >= s.grantAt {
				grant, s.consumed = s.consumed, 0
			}
			s.mu.Unlock()
			if grant > 0 {
				s.sendCredit(grant)
			}
			return item, nil
		}
		if s.ended {
			err := s.endErr
			s.mu.Unlock()
			return nil, err
		}
		if s.closed {
			s.mu.Unlock()
			return nil, ErrStreamClosed
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: stream %s.%s: %w", s.a.name, s.a.op, ctx.Err())
		}
	}
}

// sendCredit puts a credit control message toward the producer on the bus —
// or toward the gateway standing at its address, which relays the grant over
// the peer link, so the window that throttles a remote producer is this
// consumer's. Best-effort like cancel: lost credit only costs throughput,
// never correctness (the stream's deadline still bounds it).
func (s *Stream) sendCredit(n int) {
	_ = s.a.sys.bus.Send(bus.Message{
		Kind: bus.Control, Op: bus.OpStreamCredit,
		Src: s.a.src, Dst: s.a.dst, Corr: s.a.corr, Payload: n,
	})
}

// Close releases the stream: the table slot is freed immediately and — if
// the stream has not already ended — a cancel is sent toward the producer
// so its serving slot, credit window and (across a peer link) wire state
// are reclaimed without waiting out the deadline. Idempotent.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ended := s.ended
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	s.a.sys.clientStreams.take(s.a.corr)
	if !ended {
		s.a.revoke()
	}
	return nil
}

// Received reports how many items the stream has accepted from the
// producer so far (consumed or still buffered) — the consumer side of the
// conservation ledger sent == received + shed.
func (s *Stream) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// Stream opens a server stream on op: one admitted request answered by any
// number of pushed items, consumed through the returned handle's Recv. The
// open runs the exact unary admission path — the context (or WithDeadline
// budget) deadline is stamped into the request, rides the EDF lane, and is
// enforced end-to-end; admission control sheds the open like any deadlined
// call. The credit window defaults to DefaultStreamWindow (see
// WithStreamWindow).
func (c *Client) Stream(ctx context.Context, op string, args ...any) (*Stream, error) {
	window := c.window
	if window < 1 {
		window = DefaultStreamWindow
	}
	if window > maxStreamWindow {
		window = maxStreamWindow
	}
	var a admitted
	if err := c.admit(ctx, op, &a); err != nil {
		return nil, err
	}
	s := c.b.sys
	grantAt := window / 4
	if grantAt < 1 {
		grantAt = 1
	}
	st := &Stream{
		a:   a,
		buf: make([]any, window), grantAt: grantAt,
		notify: make(chan struct{}, 1),
	}
	s.clientStreams.add(a.corr, st)
	m := a.request(connector.StreamOpenPayload{Principal: c.principal, Args: args, Window: window})
	if err := s.bus.Send(m); err != nil {
		s.clientStreams.take(a.corr)
		c.recordEdgeSpan(a.tr, op, telemetry.KindStream, outcomeOf(err))
		return nil, err
	}
	// A stream's client span covers the open edge: the handle may live
	// arbitrarily long, so the span closes once the open is on the bus and
	// the per-item path stays untraced.
	c.recordEdgeSpan(a.tr, op, telemetry.KindStream, telemetry.OutcomeOK)
	return st, nil
}

// PendingStreams reports open server streams at the platform edge — the
// size of the correlation-sharded stream table. A closed or ended stream
// releases its slot immediately; a leak here is a bug.
func (s *System) PendingStreams() int {
	return s.clientStreams.outstanding()
}

// ShedStreamItems reports stream chunks dropped at the client edge because
// their stream was already closed (or its ring overrun by a misbehaving
// producer). Together with Stream.Received it closes the conservation
// ledger: every chunk a producer sent was either received or shed.
func (s *System) ShedStreamItems() uint64 {
	return s.streamShed.Load()
}

// ActiveStreams reports running stream producers across locally hosted
// components — the serve side of the stream plane. A cancelled stream's
// producer leaves this count without waiting out its deadline.
func (s *System) ActiveStreams() int {
	n := 0
	if view := s.compView.Load(); view != nil {
		for _, rc := range *view {
			n += rc.activeStreams()
		}
	}
	return n
}

// streamWaiters is the correlation-sharded stream table, the streaming
// sibling of replyWaiters: settleClient looks a chunk's stream up without
// taking it and takes it only on the terminal end.
type streamWaiters struct {
	shards [waiterShards]streamShard
}

type streamShard struct {
	mu sync.Mutex
	m  map[uint64]*Stream
	_  [6]uint64 // pad to a cache line; shards must not false-share
}

func (w *streamWaiters) shard(corr uint64) *streamShard {
	return &w.shards[corr&(waiterShards-1)]
}

func (w *streamWaiters) add(corr uint64, st *Stream) {
	s := w.shard(corr)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]*Stream)
	}
	s.m[corr] = st
	s.mu.Unlock()
}

func (w *streamWaiters) lookup(corr uint64) (*Stream, bool) {
	s := w.shard(corr)
	s.mu.Lock()
	st, ok := s.m[corr]
	s.mu.Unlock()
	return st, ok
}

func (w *streamWaiters) take(corr uint64) (*Stream, bool) {
	s := w.shard(corr)
	s.mu.Lock()
	st, ok := s.m[corr]
	if ok {
		delete(s.m, corr)
	}
	s.mu.Unlock()
	return st, ok
}

func (w *streamWaiters) outstanding() int {
	n := 0
	for i := range w.shards {
		s := &w.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// TypedStream is the typed consumer handle of a server stream: each pushed
// item is decoded through the same derived codec machinery ClientOf uses,
// so a wire-native scalar item decodes with zero additional allocation.
type TypedStream[Item any] struct {
	s       *Stream
	decode  func(results []any, item *Item) error
	scratch [1]any // reused per Recv: the untyped item boxed for the codec
}

// Recv returns the next decoded item; the terminal conditions are exactly
// Stream.Recv's (io.EOF on clean end).
func (t *TypedStream[Item]) Recv(ctx context.Context) (Item, error) {
	var item Item
	v, err := t.s.Recv(ctx)
	if err != nil {
		return item, err
	}
	t.scratch[0] = v
	err = t.decode(t.scratch[:], &item)
	t.scratch[0] = nil
	if err != nil {
		return item, fmt.Errorf("core: stream %s.%s: %w", t.s.a.name, t.s.a.op, err)
	}
	return item, nil
}

// Close releases the stream (see Stream.Close).
func (t *TypedStream[Item]) Close() error { return t.s.Close() }

// Received reports items accepted so far (see Stream.Received).
func (t *TypedStream[Item]) Received() uint64 { return t.s.Received() }

// TypedStreamClient is a typed stream-opening handle bound to one
// component, the streaming sibling of TypedClient. Obtain one with
// StreamClientOf and derive per-principal/deadline/window variants with
// With.
type TypedStreamClient[Req, Item any] struct {
	c     *Client
	codec Codec[Req, Item]
}

// StreamClientOf returns a typed stream handle for the component, deriving
// the codec exactly like ClientOf (and panicking under the same
// conditions: a Req or Item type the derivation does not cover).
func StreamClientOf[Req, Item any](s *System, component string) *TypedStreamClient[Req, Item] {
	codec, _, _, err := deriveCodec[Req, Item]()
	if err != nil {
		panic(err)
	}
	return &TypedStreamClient[Req, Item]{c: s.Client(component), codec: codec}
}

// StreamClientOfCodec returns a typed stream handle using an explicit
// codec (only ReqArgs and DecodeResp are used by the stream plane).
func StreamClientOfCodec[Req, Item any](s *System, component string, codec Codec[Req, Item]) *TypedStreamClient[Req, Item] {
	if codec.ReqArgs == nil || codec.DecodeResp == nil {
		panic("core: StreamClientOfCodec: codec must set ReqArgs and DecodeResp")
	}
	return &TypedStreamClient[Req, Item]{c: s.Client(component), codec: codec}
}

// With derives a handle with the options applied (principal, deadline
// budget, stream window).
func (t *TypedStreamClient[Req, Item]) With(opts ...CallOption) *TypedStreamClient[Req, Item] {
	return &TypedStreamClient[Req, Item]{c: t.c.With(opts...), codec: t.codec}
}

// Stream opens a server stream on op with the typed request.
func (t *TypedStreamClient[Req, Item]) Stream(ctx context.Context, op string, req Req) (*TypedStream[Item], error) {
	st, err := t.c.Stream(ctx, op, t.codec.ReqArgs(&req)...)
	if err != nil {
		return nil, err
	}
	return &TypedStream[Item]{s: st, decode: t.codec.DecodeResp}, nil
}
