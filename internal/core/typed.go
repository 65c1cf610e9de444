package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// This file implements typed client handles: the zero-alloc invocation
// surface layered on the compiled client bindings of client.go. A
// TypedClient carries a codec compiled once at handle creation — encode Req,
// decode Resp, materialize the legacy []any form — and a pool of reusable
// call envelopes. A call moves one envelope pointer through the bus instead
// of boxing arguments, the serving side writes the response in place through
// container.TypedComponent, and the reply is a pure completion signal. The
// handle shares its binding with the untyped Client, so it survives swaps,
// rebinds, reconfigurations and live migrations exactly the same way.

// TypedRequest is implemented by request types that carry their own
// generated-style codec: AppendArgs preencodes the argument list in
// wire.AppendValues form (uvarint count + tagged values — use
// wire.AppendValue per argument) for peer-link forwarding, and CallArgs
// materializes the legacy []any form for untyped components, multicast
// fan-out and argument-inspecting filters.
type TypedRequest interface {
	AppendArgs(dst []byte) ([]byte, error)
	CallArgs() []any
}

// TypedResponse is implemented by response types that decode themselves from
// the legacy []any result convention — the fallback used when the serving
// component only implements Handle, an aspect replaced the results, or the
// call was served by a remote or multicast target.
type TypedResponse interface {
	FromResults(results []any) error
}

// Codec is the compiled marshalling plan of a typed handle. All three
// functions are derived once (ClientOf) or supplied by the caller
// (ClientOfCodec) and never touched by reflection.
type Codec[Req, Resp any] struct {
	// AppendReq appends the request's argument list preencoded in
	// wire.AppendValues form.
	AppendReq func(dst []byte, req *Req) ([]byte, error)
	// ReqArgs materializes the request in the []any convention.
	ReqArgs func(req *Req) []any
	// DecodeResp decodes an untyped result list into resp.
	DecodeResp func(results []any, resp *Resp) error
}

// scalarOK reports whether v's dynamic type is one the wire value codec
// ships natively — the set a derived scalar codec supports.
func scalarOK(v any) bool {
	switch v.(type) {
	case string, int, int64, uint64, float64, bool, []byte, time.Duration:
		return true
	}
	return false
}

// deriveCodec compiles the default codec for Req/Resp: a TypedRequest /
// TypedResponse implementation wins, a wire-native scalar gets the
// single-argument plan, and struct{} means "no arguments" / "no results".
func deriveCodec[Req, Resp any]() (Codec[Req, Resp], error) {
	var (
		c     Codec[Req, Resp]
		zreq  Req
		zresp Resp
	)
	switch {
	case func() bool { _, ok := any(&zreq).(TypedRequest); return ok }():
		c.AppendReq = func(dst []byte, req *Req) ([]byte, error) {
			return any(req).(TypedRequest).AppendArgs(dst)
		}
		c.ReqArgs = func(req *Req) []any {
			return any(req).(TypedRequest).CallArgs()
		}
	case scalarOK(any(zreq)):
		c.AppendReq = func(dst []byte, req *Req) ([]byte, error) {
			dst = binary.AppendUvarint(dst, 1)
			return wire.AppendValue(dst, any(*req))
		}
		c.ReqArgs = func(req *Req) []any { return []any{any(*req)} }
	case func() bool { _, ok := any(zreq).(struct{}); return ok }():
		c.AppendReq = func(dst []byte, _ *Req) ([]byte, error) {
			return binary.AppendUvarint(dst, 0), nil
		}
		c.ReqArgs = func(*Req) []any { return nil }
	default:
		return c, fmt.Errorf("core: no codec derivable for request type %T (implement core.TypedRequest)", zreq)
	}

	switch {
	case func() bool { _, ok := any(&zresp).(TypedResponse); return ok }():
		c.DecodeResp = func(results []any, resp *Resp) error {
			return any(resp).(TypedResponse).FromResults(results)
		}
	case scalarOK(any(zresp)):
		c.DecodeResp = func(results []any, resp *Resp) error {
			if len(results) != 1 {
				return fmt.Errorf("core: typed call: want 1 result, got %d", len(results))
			}
			v, ok := results[0].(Resp)
			if !ok {
				return fmt.Errorf("core: typed call: result is %T, want %T", results[0], zresp)
			}
			*resp = v
			return nil
		}
	case func() bool { _, ok := any(zresp).(struct{}); return ok }():
		c.DecodeResp = func(results []any, _ *Resp) error {
			if len(results) != 0 {
				return fmt.Errorf("core: typed call: want no results, got %d", len(results))
			}
			return nil
		}
	default:
		return c, fmt.Errorf("core: no codec derivable for response type %T (implement core.TypedResponse)", zresp)
	}
	return c, nil
}

// TypedClient is a typed, allocation-free binding handle to one named
// component. It wraps the canonical *Client binding — presence, destination,
// principal and deadline budget all behave identically — and adds a compiled
// codec plus an envelope pool. Safe for concurrent use.
type TypedClient[Req, Resp any] struct {
	c     *Client
	codec Codec[Req, Resp]
	// pool recycles call envelopes; shared across With-derived handles so a
	// per-principal variant does not warm its own pool.
	pool *sync.Pool
}

// ClientOf returns a typed handle for a named component, deriving the
// default codec for Req and Resp: a core.TypedRequest / core.TypedResponse
// implementation, a wire-native scalar (string, int, int64, uint64, float64,
// bool, []byte, time.Duration), or struct{} for "no arguments"/"no results".
// It panics when no codec is derivable — handle creation is assembly-time
// work, and a miscoded handle must fail at the call site that compiled it,
// not on first use. Use ClientOfCodec to supply a custom codec.
func ClientOf[Req, Resp any](s *System, component string) *TypedClient[Req, Resp] {
	codec, err := deriveCodec[Req, Resp]()
	if err != nil {
		panic(err)
	}
	return ClientOfCodec(s, component, codec)
}

// ClientOfCodec returns a typed handle using the supplied codec. The codec's
// three functions must all be non-nil.
func ClientOfCodec[Req, Resp any](s *System, component string, codec Codec[Req, Resp]) *TypedClient[Req, Resp] {
	if codec.AppendReq == nil || codec.ReqArgs == nil || codec.DecodeResp == nil {
		panic(fmt.Sprintf("core: ClientOfCodec %s: codec has nil functions", component))
	}
	return &TypedClient[Req, Resp]{
		c:     s.Client(component),
		codec: codec,
		pool: &sync.Pool{New: func() any {
			return &typedEnvelope[Req, Resp]{waitSlot: waitSlot{w: make(chan connector.ReplyPayload, 1)}}
		}},
	}
}

// With derives a typed handle with call options applied (principal, deadline
// budget), sharing the compiled binding, codec and envelope pool.
func (t *TypedClient[Req, Resp]) With(opts ...CallOption) *TypedClient[Req, Resp] {
	return &TypedClient[Req, Resp]{c: t.c.With(opts...), codec: t.codec, pool: t.pool}
}

// Component returns the name of the component this handle is bound to.
func (t *TypedClient[Req, Resp]) Component() string { return t.c.Component() }

// Untyped returns the untyped Client sharing this handle's binding.
func (t *TypedClient[Req, Resp]) Untyped() *Client { return t.c }

// typedEnvelope is one in-flight typed call: request and response live
// inline, so the serving side reads and writes them through pointers and the
// round trip moves no boxed values. The envelope implements
// connector.TypedCall (and thereby container.TypedRequest).
//
// Pooling protocol: an envelope returns to the pool only on the clean
// reply-receipt path. The timeout and cancellation paths abandon it to the
// garbage collector — the serving side may still hold the pointer and write
// the response, and a pooled envelope must never race a late writer or leave
// a stale reply in its channel for the next call to read.
type typedEnvelope[Req, Resp any] struct {
	codec     *Codec[Req, Resp]
	principal string
	req       Req
	resp      Resp
	// done/errMsg/errKind are the in-place completion written by Finish on
	// the serving side; the caller reads them after the reply signal, so the
	// channel send/receive orders the access.
	done    bool
	errMsg  string
	errKind connector.ErrKind
	// The reply-waiter channel and fallback timer, registered per call and
	// reused across pooled calls under the pooling protocol above.
	waitSlot
}

var _ connector.TypedCall = (*typedEnvelope[int, int])(nil)

// Principal implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Principal() string { return e.principal }

// Args implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Args() []any { return e.codec.ReqArgs(&e.req) }

// AppendArgs implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) AppendArgs(dst []byte) ([]byte, error) {
	return e.codec.AppendReq(dst, &e.req)
}

// Req implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Req() any { return &e.req }

// Resp implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Resp() any { return &e.resp }

// SetResults implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) SetResults(results []any) error {
	return e.codec.DecodeResp(results, &e.resp)
}

// Finish implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Finish(err string, kind connector.ErrKind) {
	e.errMsg, e.errKind = err, kind
	e.done = true
}

// get leases an envelope from the pool, reset for a new call.
func (t *TypedClient[Req, Resp]) get(req *Req) *typedEnvelope[Req, Resp] {
	e := t.pool.Get().(*typedEnvelope[Req, Resp])
	var zero Resp
	e.codec = &t.codec
	e.principal = t.c.principal
	e.req = *req
	e.resp = zero
	e.done = false
	e.errMsg = ""
	e.errKind = connector.ErrKindNone
	return e
}

// Call invokes op synchronously with a typed request and returns the typed
// response. Context semantics are identical to Client.Call: the deadline is
// stamped into the request, carried across peer links and enforced on the
// callee; cancellation releases the reply-waiter slot immediately.
func (t *TypedClient[Req, Resp]) Call(ctx context.Context, op string, req Req) (Resp, error) {
	var zero Resp
	c := t.c
	b := c.b
	s := b.sys
	src, corr, dl, tr, err := c.admit(ctx, op)
	if err != nil {
		// The overload-shed path exits here, before the envelope lease: a
		// rejected typed call touches nothing poolable and allocates nothing.
		return zero, err
	}
	e := t.get(&req)
	s.clientWaiters.add(corr, e.w)
	m := bus.Message{
		Kind: bus.Request, Op: op,
		Payload: e,
		Src:     src, Dst: b.dst, Corr: corr,
		Trace: tr.trace, Span: tr.span,
		Deadline: dl,
	}
	if err := s.bus.Send(m); err != nil {
		s.clientWaiters.take(corr)
		t.pool.Put(e)
		return zero, err
	}
	payload, end := e.await(ctx, c.fallback())
	switch end {
	case waitReplied:
		resp, cerr := t.collect(e, payload)
		c.recordEdgeSpan(tr, op, telemetry.KindClient, outcomeOf(cerr))
		return resp, cerr
	case waitCtxDone:
		abandon(s.bus, &s.clientWaiters, src, b.dst, corr, dl)
		c.recordEdgeSpan(tr, op, telemetry.KindClient, outcomeOf(ctx.Err()))
		// Abandon the envelope: the serving side may still write it.
		return zero, fmt.Errorf("core: call %s.%s: %w", b.name, op, ctx.Err())
	default:
		abandon(s.bus, &s.clientWaiters, src, b.dst, corr, dl)
		c.recordEdgeSpan(tr, op, telemetry.KindClient, telemetry.OutcomeDeadline)
		return zero, c.timeoutError(op)
	}
}

// collect turns a received reply signal into the call outcome and recycles
// the envelope. The typed fast path reads the completion Finish wrote in
// place; the legacy path (untyped component, aspect-replaced results,
// remote or mediated reply) decodes the boxed payload through the codec.
func (t *TypedClient[Req, Resp]) collect(e *typedEnvelope[Req, Resp], payload connector.ReplyPayload) (Resp, error) {
	var zero Resp
	if e.done {
		if e.errMsg != "" {
			err := replyErrorKind(e.errMsg, e.errKind)
			t.pool.Put(e)
			return zero, err
		}
		resp := e.resp
		t.pool.Put(e)
		return resp, nil
	}
	if payload.Err != "" {
		err := replyErrorKind(payload.Err, payload.Kind)
		t.pool.Put(e)
		return zero, err
	}
	derr := t.codec.DecodeResp(payload.Results, &e.resp)
	resp := e.resp
	t.pool.Put(e)
	if derr != nil {
		return zero, derr
	}
	return resp, nil
}

// Async invokes op without waiting; the returned TypedFuture resolves on
// Wait. Slot-bounding mirrors Client.Async: the effective deadline or the
// context hook releases the reply waiter even if Wait is never called. The
// future's envelope is freshly allocated and never pooled — concurrent Waits
// select on its channel, so recycling it could leak a signal across calls.
func (t *TypedClient[Req, Resp]) Async(ctx context.Context, op string, req Req) *TypedFuture[Req, Resp] {
	c := t.c
	f := &TypedFuture[Req, Resp]{t: t, op: op, done: make(chan struct{})}
	e := &typedEnvelope[Req, Resp]{waitSlot: waitSlot{w: make(chan connector.ReplyPayload, 1)},
		codec: &t.codec, principal: c.principal, req: req}
	f.e = e
	s := c.b.sys
	src, corr, dl, tr, err := c.admit(ctx, op)
	if err != nil {
		f.settle(nil, err)
		return f
	}
	f.cl, f.tr = c, tr
	s.clientWaiters.add(corr, e.w)
	m := bus.Message{
		Kind: bus.Request, Op: op,
		Payload: e,
		Src:     src, Dst: c.b.dst, Corr: corr,
		Trace: tr.trace, Span: tr.span,
		Deadline: dl,
	}
	if err := s.bus.Send(m); err != nil {
		s.clientWaiters.take(corr)
		f.settle(nil, err)
		return f
	}
	f.take = func() bool { _, ok := s.clientWaiters.take(corr); return ok }
	var timer *time.Timer
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		timer = time.AfterFunc(c.fallback(), func() {
			if f.take() {
				c.sendCancel(corr, dl)
				f.settle(nil, c.timeoutError(f.op))
			} else {
				f.cleanup()
			}
		})
	}
	var hook func() bool
	if ctx.Done() != nil {
		hook = context.AfterFunc(ctx, func() {
			if f.take() {
				c.sendCancel(corr, dl)
				f.settle(nil, fmt.Errorf("core: call %s.%s: %w", c.b.name, f.op, ctx.Err()))
			} else {
				f.cleanup()
			}
		})
	}
	f.arm(timer, hook)
	return f
}

// TypedFuture is one in-flight asynchronous typed call; it resolves exactly
// once and is safe for concurrent Wait. Lifecycle (settle/arm/cleanup)
// mirrors core.Future.
type TypedFuture[Req, Resp any] struct {
	t    *TypedClient[Req, Resp]
	op   string
	e    *typedEnvelope[Req, Resp]
	take func() bool

	// cl and tr close the client-edge span on settle (cl nil when the call
	// failed before a request was sent).
	cl *Client
	tr traceRef

	cleanupMu sync.Mutex
	timer     *time.Timer
	stopHook  func() bool

	settleOnce sync.Once
	done       chan struct{}
	resp       *Resp
	err        error
}

func (f *TypedFuture[Req, Resp]) settle(resp *Resp, err error) {
	f.settleOnce.Do(func() {
		f.resp, f.err = resp, err
		if f.cl != nil {
			f.cl.recordEdgeSpan(f.tr, f.op, telemetry.KindClient, outcomeOf(err))
		}
		close(f.done)
		f.cleanup()
	})
}

func (f *TypedFuture[Req, Resp]) arm(timer *time.Timer, hook func() bool) {
	f.cleanupMu.Lock()
	f.timer, f.stopHook = timer, hook
	f.cleanupMu.Unlock()
	select {
	case <-f.done:
		f.cleanup()
	default:
	}
}

func (f *TypedFuture[Req, Resp]) cleanup() {
	f.cleanupMu.Lock()
	timer, hook := f.timer, f.stopHook
	f.timer, f.stopHook = nil, nil
	f.cleanupMu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	if hook != nil {
		hook()
	}
}

// Wait blocks until the call resolves and returns its typed outcome.
func (f *TypedFuture[Req, Resp]) Wait() (Resp, error) {
	select {
	case <-f.done:
	case payload := <-f.e.w:
		e := f.e
		if e.done {
			if e.errMsg != "" {
				f.settle(nil, replyErrorKind(e.errMsg, e.errKind))
			} else {
				f.settle(&e.resp, nil)
			}
		} else if payload.Err != "" {
			f.settle(nil, replyErrorKind(payload.Err, payload.Kind))
		} else if derr := f.t.codec.DecodeResp(payload.Results, &e.resp); derr != nil {
			f.settle(nil, derr)
		} else {
			f.settle(&e.resp, nil)
		}
	}
	<-f.done
	if f.err != nil || f.resp == nil {
		var zero Resp
		return zero, f.err
	}
	return *f.resp, f.err
}

// Done returns a channel closed when the future has resolved.
func (f *TypedFuture[Req, Resp]) Done() <-chan struct{} { return f.done }
