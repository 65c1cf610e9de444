package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/connector"
	"repro/internal/wire"
)

// This file implements the call engine (invoke, invokeAsync, TypedFuture) and
// the typed client handles that are its general instantiation: the zero-alloc
// invocation surface layered on the compiled client bindings of client.go. A
// TypedClient carries a codec compiled once at handle creation — encode Req,
// decode Resp, materialize the legacy []any form — and a pool of reusable
// call envelopes. The untyped handle and a component's outcall run the same
// engine at the []any convention (the untyped instantiation below). A call moves one envelope pointer through the bus instead
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

// deriveCodec compiles the default codec for Req/Resp: a TypedRequest /
// TypedResponse implementation wins, a wire-native scalar gets the
// single-argument plan, and struct{} means "no arguments" / "no results".
// req and resp report the sides that took the scalar plan (0 for the
// others): a reply off the wire can be decoded into a scalar Resp without
// boxing (SetRawResults), and a call whose both sides are scalars can be
// served typed across a peer link (RespTag).
func deriveCodec[Req, Resp any]() (c Codec[Req, Resp], req, resp wire.Scalar, err error) {
	var (
		zreq  Req
		zresp Resp
	)
	req, resp = wire.ScalarOf(&zreq), wire.ScalarOf(&zresp)
	switch {
	case func() bool { _, ok := any(&zreq).(TypedRequest); return ok }():
		c.AppendReq = func(dst []byte, req *Req) ([]byte, error) {
			return any(req).(TypedRequest).AppendArgs(dst)
		}
		c.ReqArgs = func(req *Req) []any {
			return any(req).(TypedRequest).CallArgs()
		}
	case req != 0:
		c.AppendReq = func(dst []byte, r *Req) ([]byte, error) { return req.AppendSole(dst, r), nil }
		c.ReqArgs = func(req *Req) []any { return []any{any(*req)} }
	case func() bool { _, ok := any(zreq).(struct{}); return ok }():
		c.AppendReq = func(dst []byte, _ *Req) ([]byte, error) {
			return binary.AppendUvarint(dst, 0), nil
		}
		c.ReqArgs = func(*Req) []any { return nil }
	default:
		return c, 0, 0, fmt.Errorf("core: no codec derivable for request type %T (implement core.TypedRequest)", zreq)
	}

	switch {
	case func() bool { _, ok := any(&zresp).(TypedResponse); return ok }():
		c.DecodeResp = func(results []any, resp *Resp) error {
			return any(resp).(TypedResponse).FromResults(results)
		}
	case resp != 0:
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
		return c, 0, 0, fmt.Errorf("core: no codec derivable for response type %T (implement core.TypedResponse)", zresp)
	}
	return c, req, resp, nil
}

// TypedClient is a typed, allocation-free binding handle to one named
// component. It wraps the canonical *Client binding — presence, destination,
// principal and deadline budget all behave identically — and adds a compiled
// codec plus an envelope pool. Safe for concurrent use.
type TypedClient[Req, Resp any] struct {
	c *Client
	// via is shared across With-derived handles, so a per-principal variant
	// does not warm its own pool.
	via *envelopes[Req, Resp]
}

// envelopes is what instantiates the call engine at one (Req, Resp): the
// codec, and the pool every call — synchronous or a future — leases its
// envelope from.
type envelopes[Req, Resp any] struct {
	codec Codec[Req, Resp]
	// resp is the scalar Resp is when it took deriveCodec's scalar plan, so
	// SetRawResults may read it straight off the wire; respTag states it on a
	// forwarded call when the request took that plan too (see deriveCodec).
	resp    wire.Scalar
	respTag uint8
	// typed, when set, stands in for typedForm's default, for an
	// instantiation whose Req is not the request a TypedComponent takes.
	typed func(e *typedEnvelope[Req, Resp]) (req, resp any, respTag uint8)
	pool  sync.Pool
}

func newEnvelopes[Req, Resp any](codec Codec[Req, Resp], typed func(*typedEnvelope[Req, Resp]) (any, any, uint8)) *envelopes[Req, Resp] {
	via := &envelopes[Req, Resp]{codec: codec, typed: typed}
	via.pool.New = func() any { return via.fresh() }
	return via
}

// untyped instantiates the engine at the []any convention itself: the
// argument list is the request and the result list the response, so the
// codec has nothing to convert. It serves Client.Call, Client.Async and every
// component outcall.
var untyped = newEnvelopes(Codec[[]any, []any]{
	AppendReq:  func(dst []byte, req *[]any) ([]byte, error) { return wire.AppendValues(dst, *req) },
	ReqArgs:    func(req *[]any) []any { return *req },
	DecodeResp: func(results []any, resp *[]any) error { *resp = results; return nil },
}, func(*typedEnvelope[[]any, []any]) (any, any, uint8) {
	return nil, nil, 0 // the request is an argument list and nothing more
})

// relayed instantiates the engine's envelope for a call that arrived over a
// peer link (LeaseRelay): the request is the argument block as it crossed the
// wire — validated by the link's read pump, so decoding it cannot fail — and
// stays bytes until somebody wants values: Args decodes a fresh list per
// call, AppendArgs re-splices the block when the request is forwarded on (its
// component migrated away while it queued). When the caller was a scalar
// typed handle the call also has a typed form, in the envelope's slots (see
// LeaseRelay); otherwise, and whenever it was not served typed, results
// follow the []any convention, as for any untyped caller.
var relayed = newEnvelopes(Codec[relayReq, RelayResult]{
	AppendReq: func(dst []byte, req *relayReq) ([]byte, error) { return append(dst, req.args...), nil },
	ReqArgs: func(req *relayReq) []any {
		args, _, _ := wire.ReadValues(req.args)
		return args
	},
	DecodeResp: func(results []any, resp *RelayResult) error {
		resp.Results = results
		resp.Slot.Release()
		return nil
	},
}, func(e *RelayCall) (any, any, uint8) {
	_, req := e.req.arg.Held()
	tag, resp := e.resp.Slot.Held()
	return req, resp, uint8(tag)
})

// relayReq is the request of a relayed call: its argument block and, when
// the call can be served typed, the block's one scalar.
type relayReq struct {
	args []byte
	arg  wire.Slot
}

// RelayResult is the response of a relayed call: the value a TypedComponent
// wrote through Resp, while Slot still holds it, or Results in the []any
// convention — decoding results into the envelope (SetResults) empties the
// slot, so the serve outcome, not whether Resp was asked for, decides.
type RelayResult struct {
	Results []any
	Slot    wire.Slot // of the caller's response tag
}

// RelayCall is the envelope of a relayed call.
type RelayCall = typedEnvelope[relayReq, RelayResult]

// LeaseRelay leases the envelope for one call entering from a peer link and
// copies the argument block into it (args aliases the link's read buffer).
// tag is the lease's identity — the link's wire correlation — which whoever
// releases the envelope checks it against. When the frame's response tag
// names a scalar and the block is exactly one scalar, the call has a typed
// form — the argument read into a slot of its own type, a response slot of
// the tagged type, which also carries the tag on if the call is forwarded
// again — and a TypedComponent is offered it, as it is a local scalar typed
// handle's call. The envelope goes onto the bus as the request's payload; the
// serving side completes it in place and it comes back as the reply's
// payload, to be released by the one site that receives replies for the link
// (ReleaseRelay). An envelope that never comes back (its request was shed,
// its record revoked) is left to the collector: a serve worker may still be
// writing it.
func LeaseRelay(tag uint64, principal string, args []byte, respTag uint8) *RelayCall {
	e := relayed.pool.Get().(*RelayCall)
	e.tag, e.principal = tag, principal
	e.req.args = append(e.req.args[:0], args...)
	if e.resp.Slot.Hold(wire.Scalar(respTag)) != nil && !e.req.arg.HoldSole(e.req.args) {
		e.resp.Slot.Release()
	}
	return e
}

// Tag returns the identity the envelope was leased under.
func (e *typedEnvelope[Req, Resp]) Tag() uint64 { return e.tag }

// Outcome returns what the serving side completed the call with.
func (e *typedEnvelope[Req, Resp]) Outcome() (resp Resp, errMsg string, kind connector.ErrKind) {
	return e.resp, e.errMsg, e.errKind
}

// ReleaseRelay returns a completed relay envelope to the pool. The caller
// must be the only holder: the reply that carried it back has been received,
// so the serving side is done writing it.
func ReleaseRelay(e *RelayCall) {
	e.req.arg.Release()
	e.resp.Slot.Release()
	e.resp.Results = nil
	e.done, e.errMsg, e.errKind = false, "", connector.ErrKindNone
	if cap(e.req.args) > relayRetain {
		e.req.args = nil
	}
	relayed.pool.Put(e)
}

// relayRetain caps the argument buffer a pooled relay envelope keeps: one
// oversized block must not live on in the pool.
const relayRetain = 64 << 10

// ClientOf returns a typed handle for a named component, deriving the
// default codec for Req and Resp: a core.TypedRequest / core.TypedResponse
// implementation, a wire-native scalar (string, int, int64, uint64, float64,
// bool, []byte, time.Duration), or struct{} for "no arguments"/"no results".
// It panics when no codec is derivable — handle creation is assembly-time
// work, and a miscoded handle must fail at the call site that compiled it,
// not on first use. Use ClientOfCodec to supply a custom codec.
func ClientOf[Req, Resp any](s *System, component string) *TypedClient[Req, Resp] {
	codec, req, resp, err := deriveCodec[Req, Resp]()
	if err != nil {
		panic(err)
	}
	t := ClientOfCodec(s, component, codec)
	if t.via.resp = resp; req != 0 {
		t.via.respTag = uint8(resp)
	}
	return t
}

// ClientOfCodec returns a typed handle using the supplied codec. The codec's
// three functions must all be non-nil.
func ClientOfCodec[Req, Resp any](s *System, component string, codec Codec[Req, Resp]) *TypedClient[Req, Resp] {
	if codec.AppendReq == nil || codec.ReqArgs == nil || codec.DecodeResp == nil {
		panic(fmt.Sprintf("core: ClientOfCodec %s: codec has nil functions", component))
	}
	return &TypedClient[Req, Resp]{c: s.Client(component), via: newEnvelopes(codec, nil)}
}

// With derives a typed handle with call options applied (principal, deadline
// budget), sharing the compiled binding, codec and envelope pool.
func (t *TypedClient[Req, Resp]) With(opts ...CallOption) *TypedClient[Req, Resp] {
	return &TypedClient[Req, Resp]{c: t.c.With(opts...), via: t.via}
}

// Component returns the name of the component this handle is bound to.
func (t *TypedClient[Req, Resp]) Component() string { return t.c.Component() }

// Untyped returns the untyped Client sharing this handle's binding.
func (t *TypedClient[Req, Resp]) Untyped() *Client { return t.c }

// Call invokes op synchronously with a typed request and returns the typed
// response. Context semantics are identical to Client.Call: the deadline is
// stamped into the request, carried across peer links and enforced on the
// callee; cancellation releases the reply-waiter slot immediately.
func (t *TypedClient[Req, Resp]) Call(ctx context.Context, op string, req Req) (Resp, error) {
	var a admitted
	if err := t.c.admit(ctx, op, &a); err != nil {
		// The overload-shed path exits here, before the envelope lease: a
		// rejected typed call touches nothing poolable and allocates nothing.
		var zero Resp
		return zero, err
	}
	resp, err := invoke(ctx, &a, t.via, &req)
	a.span(err)
	return resp, err
}

// Async invokes op without waiting; the returned TypedFuture resolves on
// Wait. The reply-waiter slot is bounded even if Wait is never called — the
// effective deadline (context, budget or fallback) releases it — and context
// cancellation releases it immediately, awaited or not.
func (t *TypedClient[Req, Resp]) Async(ctx context.Context, op string, req Req) *TypedFuture[Req, Resp] {
	var a admitted
	if err := t.c.admit(ctx, op, &a); err != nil {
		return failedFuture[Req, Resp](err)
	}
	return invokeAsync(ctx, &a, t.via, &req)
}

// typedEnvelope is one in-flight call: request and response live inline, so
// the serving side reads and writes them through pointers and the round trip
// moves no boxed values. The envelope implements connector.TypedCall (and
// thereby container.TypedRequest).
//
// Pooling protocol: every call — synchronous or a future — leases its
// envelope from its handle's pool and returns it there only on the clean
// reply-receipt path, and only when the envelope's lapser was stopped before
// it ran (Stop returned true) or was never armed. The timeout and
// cancellation paths abandon it to the garbage collector — the serving side
// may still hold the pointer and write the response, and a pooled envelope
// must never race a late writer, a lapser callback still reading it, or leave
// a stale signal in its channel for the next call to read. A future adds two
// conditions (see TypedFuture): one Wait alone receives from the channel,
// and its context hook too must have been stopped before it ran.
type typedEnvelope[Req, Resp any] struct {
	via *envelopes[Req, Resp]
	// tag identifies the lease of a relayed call (LeaseRelay); unused by the
	// calls the engine makes itself.
	tag       uint64
	principal string
	req       Req
	resp      Resp
	// done/errMsg/errKind are the in-place completion written by Finish on
	// the serving side; the caller reads them after the reply signal, so the
	// channel send/receive orders the access.
	done    bool
	errMsg  string
	errKind connector.ErrKind
	// w is the reply-waiter channel, registered per call. Exactly one signal
	// reaches it per call: the reply, or the wake of whoever gave the call
	// up after taking its waiter entry.
	w chan connector.ReplyPayload
	// a is the call the engine leased the envelope for (unused by a relayed
	// call), and stop a future's context hook (nil for none). stop is written
	// before the lapser is armed and the future returned, so fire and the
	// collector read it without a lock.
	a    admitted
	stop func() bool
	// lapser bounds a wait whose context carries no deadline (see arm). Its
	// callback, fire, finds the future the envelope is leased to through fut
	// (nil for a synchronous call), or else the call's waiter entry through
	// a, and marks that call lapsed — an envelope that is never pooled again,
	// so lapsed needs no reset.
	lapser *time.Timer
	fut    atomic.Pointer[TypedFuture[Req, Resp]]
	lapsed bool
}

var _ connector.TypedCall = (*typedEnvelope[int, int])(nil)

// Principal implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Principal() string { return e.principal }

// Args implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Args() []any { return e.via.codec.ReqArgs(&e.req) }

// AppendArgs implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) AppendArgs(dst []byte) ([]byte, error) {
	return e.via.codec.AppendReq(dst, &e.req)
}

// Req implements connector.TypedCall. The []any instantiation has no typed
// form — its request is the argument list Args already returns — and neither
// has a relayed call whose caller was not a scalar typed handle: they say so
// with nil, so they are served through Component.Handle and never offered to
// a TypedComponent, whose HandleTyped may assert the request type it expects.
func (e *typedEnvelope[Req, Resp]) Req() any { req, _, _ := e.typedForm(); return req }

// Resp implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Resp() any { _, resp, _ := e.typedForm(); return resp }

// RespTag implements connector.TypedCall: a handle whose request and
// response both took the scalar plan states its response's tag, and a
// relayed call carries on the tag it arrived with.
func (e *typedEnvelope[Req, Resp]) RespTag() uint8 { _, _, tag := e.typedForm(); return tag }

// typedForm is what Req, Resp and RespTag answer.
func (e *typedEnvelope[Req, Resp]) typedForm() (req, resp any, respTag uint8) {
	if f := e.via.typed; f != nil {
		return f(e)
	}
	return &e.req, &e.resp, e.via.respTag
}

// SetResults implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) SetResults(results []any) error {
	return e.via.codec.DecodeResp(results, &e.resp)
}

// SetRawResults implements connector.TypedCall. A scalar response whose one
// result is on the wire under its own type is read in place; every other
// shape — and every mismatch, so that the error is the one SetResults gives —
// takes the boxed route.
func (e *typedEnvelope[Req, Resp]) SetRawResults(raw []byte) error {
	if s := e.via.resp; s != 0 && s.ReadSole(raw, &e.resp) {
		return nil
	}
	results, _, err := wire.ReadValues(raw)
	if err != nil {
		return err
	}
	return e.via.codec.DecodeResp(results, &e.resp)
}

// Finish implements connector.TypedCall.
func (e *typedEnvelope[Req, Resp]) Finish(err string, kind connector.ErrKind) {
	e.errMsg, e.errKind = err, kind
	e.done = true
}

// fresh makes an envelope with its own reply channel.
func (via *envelopes[Req, Resp]) fresh() *typedEnvelope[Req, Resp] {
	return &typedEnvelope[Req, Resp]{via: via, w: make(chan connector.ReplyPayload, 1)}
}

// start leases an envelope, resets what the last call left in it, copies the
// call into it, registers its channel for the reply and sends the request. A
// refused send takes the entry back and returns the envelope to the pool.
func (via *envelopes[Req, Resp]) start(a *admitted, req *Req) (*typedEnvelope[Req, Resp], error) {
	var zero Resp
	e := via.pool.Get().(*typedEnvelope[Req, Resp])
	e.a, e.principal, e.req, e.resp = *a, a.principal(), *req, zero
	e.done, e.errMsg, e.errKind = false, "", connector.ErrKindNone
	a.waiters.add(a.corr, e.w)
	if err := a.sys.bus.Send(a.request(e)); err != nil {
		a.waiters.take(a.corr)
		via.pool.Put(e)
		return nil, err
	}
	return e, nil
}

// arm runs the envelope's lapser for d: made on the envelope's first lease
// that needs one, reset on every later one.
func (e *typedEnvelope[Req, Resp]) arm(d time.Duration) {
	if e.lapser == nil {
		e.lapser = time.AfterFunc(d, e.fire)
	} else {
		e.lapser.Reset(d)
	}
}

// fire is the lapser's callback. For a future it releases the context hook —
// reply or not, the hook has nothing left to do — and lapses the future. For
// a synchronous call it takes the waiter entry; if that wins, no reply will
// come, so it marks the envelope lapsed and sends the channel's one wake
// itself (the caller revokes the call). The fields it reads are those of the
// call it was armed for: an envelope whose lapser may still run is never
// pooled.
func (e *typedEnvelope[Req, Resp]) fire() {
	if f := e.fut.Load(); f != nil {
		if e.stop != nil {
			e.stop()
		}
		f.lapse(errFallbackElapsed)
		return
	}
	if _, ok := e.a.waiters.take(e.a.corr); ok {
		e.lapsed = true
		e.w <- connector.ReplyPayload{}
	}
}

// await parks a synchronous caller on its channel's one signal — a plain
// receive for a context that cannot end, a 2-way select with ctx otherwise
// — and returns the cause of a wait that ended without a reply: the
// context's error when the caller took the waiter entry back itself,
// errFallbackElapsed when the lapser took it. A context that ends after the
// reply or the lapser took the entry waits for their signal.
func (e *typedEnvelope[Req, Resp]) await(ctx context.Context, a *admitted) (connector.ReplyPayload, error) {
	var payload connector.ReplyPayload
	if done := ctx.Done(); done == nil {
		payload = <-e.w
	} else {
		select {
		case payload = <-e.w:
		case <-done:
			if a.abandon() {
				return payload, ctx.Err()
			}
			payload = <-e.w
		}
	}
	if e.lapsed {
		a.revoke()
		return payload, errFallbackElapsed
	}
	return payload, nil
}

// collect turns a received reply signal into the call outcome. The in-place
// path reads the completion Finish wrote; otherwise the reply came boxed — a
// connector refused or gathered a multicast, the gateway answered for a peer
// — and its results are decoded through the codec.
func (e *typedEnvelope[Req, Resp]) collect(payload connector.ReplyPayload) (Resp, error) {
	var zero Resp
	if e.done {
		if e.errMsg != "" {
			return zero, replyErrorKind(e.errMsg, e.errKind)
		}
		return e.resp, nil
	}
	if payload.Err != "" {
		return zero, replyErrorKind(payload.Err, payload.Kind)
	}
	if err := e.via.codec.DecodeResp(payload.Results, &e.resp); err != nil {
		return zero, err
	}
	return e.resp, nil
}

// invoke is the synchronous call engine, the one body behind
// TypedClient.Call, Client.Call and a component's outcall: lease an envelope,
// register its channel for the reply, send, wait, and either collect the
// reply and recycle the envelope or give the call up. The envelope's lapser
// bounds the wait only when the context carries no deadline, so deadline
// expiry always resolves through the context and keeps
// context.DeadlineExceeded identity. Closing the client span is left to the
// surface (admitted.span).
func invoke[Req, Resp any](ctx context.Context, a *admitted, via *envelopes[Req, Resp], req *Req) (Resp, error) {
	var zero Resp
	e, err := via.start(a, req)
	if err != nil {
		return zero, err
	}
	_, hasDeadline := ctx.Deadline()
	if !hasDeadline {
		e.arm(a.fallback())
	}
	payload, cause := e.await(ctx, a)
	if cause != nil {
		// The envelope is left to the collector: the serving side may still
		// write it, and a cancelled call's lapser has nothing left to do.
		if !hasDeadline {
			e.lapser.Stop()
		}
		return zero, a.lapse(cause)
	}
	resp, err := e.collect(payload)
	if hasDeadline || e.lapser.Stop() {
		via.pool.Put(e)
	}
	return resp, err
}

// invokeAsync is the asynchronous call engine: the same lease and send, with
// a future in place of the wait. Whoever takes the waiter entry owns the
// outcome — the replier (normal completion, collected by Wait), the lapser
// (timeout), or the context hook (cancellation and deadline). As in invoke,
// the lapser is armed only when the context carries no deadline, so deadline
// expiry always resolves through the hook and keeps context.DeadlineExceeded
// identity. The hook is installed before the lapser is armed, so fire always
// finds it. A refused send's span closes with the caller's own record.
func invokeAsync[Req, Resp any](ctx context.Context, a *admitted, via *envelopes[Req, Resp], req *Req) *TypedFuture[Req, Resp] {
	e, err := via.start(a, req)
	if err != nil {
		a.span(err)
		return failedFuture[Req, Resp](err)
	}
	f := &TypedFuture[Req, Resp]{e: e}
	if ctx.Done() != nil {
		e.stop = context.AfterFunc(ctx, func() { f.lapse(ctx.Err()) })
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		f.arm(a.fallback())
	}
	return f
}

// TypedFuture is one in-flight asynchronous call. It resolves exactly once —
// to the reply, a timeout, or the context's cancellation error — and every
// Wait after resolution returns the same outcome. Safe for concurrent Wait.
//
// The future is a handle: the call lives in the envelope it leases from the
// handle's pool, as a synchronous call's does, and the future keeps only the
// outcome, so the envelope can go back once that is read and the span
// closed. Exactly one signal reaches the envelope's channel per call: the
// reply, or — when the lapser or the context hook takes the waiter entry, so
// no reply will come — the wake that lapse sends after settling the future.
// One Wait, the collector, receives it; any other parks on done. A collected
// reply returns the envelope to the pool only when the timer and the hook are
// both stopped before they ran: then nothing else can still touch it, and its
// channel is empty again. Otherwise it is left to the garbage collector, as
// invoke leaves an abandoned one.
type TypedFuture[Req, Resp any] struct {
	// e is the leased envelope: nil when the send failed or was never made,
	// and once a clean collect has returned it to the pool.
	e  *typedEnvelope[Req, Resp]
	mu sync.Mutex
	// settled is set once, with resp and err; collecting by the first Wait;
	// timed by arm when the envelope's lapser runs for this call.
	settled, collecting, timed bool
	// done is made by the first Done or parked Wait before settlement, and
	// closed by settle.
	done chan struct{}
	resp Resp
	err  error
}

// closedDone is what Done returns for a future settled before anyone asked.
var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// failedFuture is the future of a call that was refused admission.
func failedFuture[Req, Resp any](err error) *TypedFuture[Req, Resp] {
	return &TypedFuture[Req, Resp]{settled: true, err: err}
}

// arm runs the envelope's lapser for f unless the context hook has settled f
// already.
func (f *TypedFuture[Req, Resp]) arm(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.timed = !f.settled; !f.timed {
		return
	}
	f.e.fut.Store(f)
	f.e.arm(d)
}

// lapse is the timer's and the context hook's callback: if the waiter entry
// is still there the call is given up. The winner closes the span, settles
// the future, stops the timer when it is the hook, and — owning the channel's
// one send now that no reply will come — wakes the collector. One that finds
// the entry gone leaves the outcome to the reply.
func (f *TypedFuture[Req, Resp]) lapse(cause error) {
	e := f.e
	if !e.a.abandon() {
		return
	}
	var zero Resp
	err := e.a.lapse(cause)
	e.a.span(err)
	if f.settle(zero, err) {
		e.lapser.Stop() // a no-op when the timer is the caller
	}
	e.w <- connector.ReplyPayload{}
}

// settle resolves the future; nothing settles it twice (see lapse and
// collect). It reports whether the lapser was armed for the call.
func (f *TypedFuture[Req, Resp]) settle(resp Resp, err error) (timed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resp, f.err, f.settled = resp, err, true
	if f.done != nil {
		close(f.done)
	}
	return f.timed
}

// collect is the collector's receive. A lapse's wake finds the future settled
// already; a reply is read out of the envelope, the span closed, and then the
// envelope goes back to the pool when the timer and the hook are both stopped
// before they ran.
func (f *TypedFuture[Req, Resp]) collect() {
	e := f.e
	payload := <-e.w
	f.mu.Lock()
	lapsed, timed := f.settled, f.timed
	f.mu.Unlock()
	if lapsed {
		return
	}
	resp, err := e.collect(payload)
	e.a.span(err)
	if (!timed || e.lapser.Stop()) && (e.stop == nil || e.stop()) {
		f.e = nil
		e.fut.Store(nil) // the pooled envelope pins no settled future
		e.stop = nil     // nor its context
		e.via.pool.Put(e)
	}
	f.settle(resp, err)
}

// Wait blocks until the call resolves and returns its outcome. The deadline
// and cancellation paths release the reply-waiter slot immediately; a reply
// that raced a cancellation and arrived first is still returned.
func (f *TypedFuture[Req, Resp]) Wait() (Resp, error) {
	f.mu.Lock()
	collector := !f.settled && !f.collecting
	f.collecting = true
	f.mu.Unlock()
	if collector {
		f.collect()
	} else {
		<-f.Done()
	}
	return f.resp, f.err
}

// Done returns a channel closed when the future has resolved through Wait,
// a timeout or a cancellation. A reply that arrives while nobody waits does
// not close it — call Wait to collect.
func (f *TypedFuture[Req, Resp]) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.done != nil:
	case f.settled:
		return closedDone
	default:
		f.done = make(chan struct{})
	}
	return f.done
}
