package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/qos"
	"repro/internal/telemetry"
)

// This file is the first-class invocation surface of the platform edge: a
// compiled client-binding handle. A Client is obtained once per component
// (System.Client), carries everything a call needs — destination address,
// presence, principal, deadline budget — and exposes a context-aware call
// family: Call (synchronous), Async (a *Future), Oneway (fire-and-forget).
// Call and Async are the call engine of typed.go at the []any convention;
// what is theirs alone is the admission prologue (admit) below.
// Deadlines and cancellation thread end-to-end: the context's deadline is
// stamped into bus.Message metadata, carried across peer links in the wire
// call frame, and enforced on the remote callee, so an aborted cross-node
// call stops consuming callee capacity instead of burning its full fallback
// timeout.

// clientBinding is the compiled, shared half of a Client handle: the
// resolution work a call by name would redo on every invocation (component
// lookup across the local and remote views) done once and republished by the
// same copy-on-write machinery that maintains those views. The destination
// address never changes — location transparency keeps a component's canonical
// bus address stable across hot swaps, rebinds and live migrations — so the
// only mutable bit is presence.
type clientBinding struct {
	sys  *System
	name string
	dst  bus.Address
	// present is republished under s.mu whenever the component or remote
	// view changes (assembly, reconfiguration, migration, adoption,
	// eviction). The call path reads it with one atomic load: zero
	// re-resolution per call.
	present atomic.Bool
	// local points at the locally hosted runtime component, nil when the
	// component is remote or absent. Republished together with present; the
	// admission check (DESIGN.md §9) reads it with one atomic load to reach
	// the component's backlog and service-time estimator without any lookup.
	local atomic.Pointer[runtimeComponent]
	// ops interns the operation names the component's declaration provides,
	// for a caller that holds an operation's name as bytes (OpName). Built on
	// first use and dropped whenever the views are republished, so it follows
	// a redeclaration; bounded by the architecture, never by what callers ask
	// for.
	ops atomic.Pointer[map[string]string]
}

// Client is a first-class binding handle to one named component. Handles are
// cheap, safe for concurrent use, and survive every intercession operation:
// a SwapImplementation, Rebind, Reconfigure or live cross-node migration
// republishes the handle's compiled state, and the next call routes to the
// new target. Obtain the canonical handle with System.Client and derive
// per-principal or per-budget variants with With.
type Client struct {
	b         *clientBinding
	principal string
	// budget is the fallback deadline applied when the call context carries
	// none; zero defers to Options.CallTimeout. Unlike the system fallback it
	// is propagated to the callee (it is an explicit contract of the handle).
	budget time.Duration
	// window is the stream credit window for Stream opens; zero means
	// DefaultStreamWindow.
	window int
}

// CallOption configures a derived Client handle (see Client.With).
type CallOption func(*Client)

// WithPrincipal returns an option stamping every call of the derived handle
// with the given security principal. The principal travels end-to-end,
// including across peer links, so callee-side container authorization keeps
// working when the call entered the system on another cluster node.
func WithPrincipal(principal string) CallOption {
	return func(c *Client) { c.principal = principal }
}

// WithDeadline returns an option giving every call of the derived handle a
// deadline of d from its start when the call context carries none. The
// effective deadline (from the context or from d) is propagated with the
// request and enforced on the callee.
func WithDeadline(d time.Duration) CallOption {
	return func(c *Client) { c.budget = d }
}

// WithStreamWindow returns an option setting the credit window (in items)
// Stream opens of the derived handle request: the producer may have at most
// n un-consumed items in flight toward this consumer. Zero or negative
// restores DefaultStreamWindow; the window is clamped server-side to a
// sane maximum.
func WithStreamWindow(n int) CallOption {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.window = n
	}
}

// With derives a handle sharing this handle's compiled binding with the
// given options applied. Deriving is allocation-cheap but not free; derive
// once and reuse when the options are stable.
func (c *Client) With(opts ...CallOption) *Client {
	d := &Client{b: c.b, principal: c.principal, budget: c.budget, window: c.window}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Component returns the name of the component this handle is bound to.
func (c *Client) Component() string { return c.b.name }

// Address returns the component's canonical bus address — the one location
// transparency keeps stable, compiled into the handle.
func (c *Client) Address() bus.Address { return c.b.dst }

// Client returns the canonical binding handle for a named component,
// compiling it on first use. The handle is cached: every later Client call
// for the same name returns the same handle via one atomic map load.
//
// A handle may be obtained before its component exists (calls fail with
// ErrUnknownComp until a reconfiguration introduces it) and outlives
// removal the same way — handles are bound to the name, not the instance.
// Only handles for currently-resolvable components are cached, though:
// unknown names get an uncached handle that re-resolves per call, so
// probing arbitrary names (a misbehaving peer, per-request dynamic names)
// cannot grow the handle table or tax the refresh that runs inside
// reconfiguration critical sections.
func (s *System) Client(component string) *Client {
	if cl := (*s.clients.Load())[component]; cl != nil {
		return cl
	}
	return s.compileClient(component)
}

// ClientNamed is Client for a caller that holds the component's name as bytes
// — a peer link's read pump. A name in the handle table resolves without
// allocating.
func (s *System) ClientNamed(component []byte) *Client {
	if cl := (*s.clients.Load())[string(component)]; cl != nil {
		return cl
	}
	return s.compileClient(string(component))
}

// OpName returns op as a string. An operation the component's declaration
// provides comes out of the binding's intern table and costs nothing; any
// other name is converted, and allocates like any conversion.
func (c *Client) OpName(op []byte) string {
	ops := c.b.ops.Load()
	if ops == nil {
		ops = c.b.internOps()
	}
	if name, ok := (*ops)[string(op)]; ok {
		return name
	}
	return string(op)
}

// internOps builds the binding's operation table from the architecture.
func (b *clientBinding) internOps() *map[string]string {
	b.sys.mu.Lock()
	decl, _ := b.sys.cfg.Component(b.name)
	b.sys.mu.Unlock()
	ops := make(map[string]string, len(decl.Provides))
	for _, sig := range decl.Provides {
		ops[sig.Name] = sig.Name
	}
	b.ops.Store(&ops)
	return &ops
}

// compileClient is the slow path of Client: materialize and publish the
// canonical handle under s.mu (or hand out an uncached one for a name that
// does not resolve).
func (s *System) compileClient(component string) *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cl := (*s.clients.Load())[component]; cl != nil {
		return cl
	}
	cl := &Client{b: &clientBinding{sys: s, name: component, dst: ComponentAddress(component)}}
	if !s.resolvableLocked(component) {
		// Unresolvable now: present stays false and the call path falls
		// back to resolveNow against the live views, so this handle turns
		// valid the moment a reconfiguration introduces the component —
		// without ever occupying a slot in the refreshed table.
		return cl
	}
	cl.b.present.Store(true)
	cl.b.local.Store(s.comps[component])
	next := maps.Clone(*s.clients.Load())
	next[component] = cl
	s.clients.Store(&next)
	return cl
}

// resolveNow is the uncached-handle fallback: one lookup per view. For
// cached handles it is only consulted when present is false, where it
// agrees with the refresh invariant by construction.
func (b *clientBinding) resolveNow() bool {
	if _, ok := (*b.sys.compView.Load())[b.name]; ok {
		return true
	}
	_, ok := (*b.sys.remoteView.Load())[b.name]
	return ok
}

// resolvableLocked reports whether a component is reachable, locally or
// through a peer gateway; callers hold s.mu (or own the system exclusively).
func (s *System) resolvableLocked(component string) bool {
	if _, ok := s.comps[component]; ok {
		return true
	}
	_, ok := (*s.remoteView.Load())[component]
	return ok
}

// refreshClientsLocked republishes the presence bit of every compiled
// binding; called wherever the component or remote view changes, under the
// same critical section, so a handle is never stale relative to the views.
func (s *System) refreshClientsLocked() {
	for _, cl := range *s.clients.Load() {
		cl.b.present.Store(s.resolvableLocked(cl.b.name))
		cl.b.local.Store(s.comps[cl.b.name])
		cl.b.ops.Store(nil)
	}
}

// PendingCalls reports how many platform-edge calls are awaiting replies —
// the size of the correlation-sharded reply-waiter table. A cancelled or
// timed-out call releases its slot immediately, so under a cancellation
// storm this returns to zero as soon as the storm ends; a leak here is a
// bug (see the regression test in client_test.go).
func (s *System) PendingCalls() int {
	return s.clientWaiters.outstanding()
}

// Call invokes op synchronously and returns the callee's results. The
// context governs the call end-to-end: its deadline is stamped into the
// request, carried across peer links, and enforced on the callee;
// cancellation returns immediately and releases the reply-waiter slot. A
// context without a deadline falls back to the handle's WithDeadline budget,
// then to Options.CallTimeout.
func (c *Client) Call(ctx context.Context, op string, args ...any) ([]any, error) {
	var a admitted
	if err := c.admit(ctx, op, &a); err != nil {
		return nil, err
	}
	res, err := invoke(ctx, &a, untyped, &args)
	a.span(err)
	return res, err
}

// Async invokes op without waiting: the returned Future resolves on Wait.
// The reply-waiter slot is bounded even if Wait is never called — the
// effective deadline (context, budget or fallback) releases it — and
// context cancellation releases it immediately, awaited or not.
func (c *Client) Async(ctx context.Context, op string, args ...any) *Future {
	var a admitted
	if err := c.admit(ctx, op, &a); err != nil {
		return failedFuture[[]any, []any](err)
	}
	return invokeAsync(ctx, &a, untyped, &args)
}

// Oneway sends op without expecting a result: no reply-waiter slot is
// registered, and the eventual reply is discarded at the platform edge. The
// context's deadline still propagates, so a queued one-way request expires
// instead of being served pointlessly. The returned error covers local
// admission only (unknown component, stopped system, done context, full
// mailbox). A component removed mid-flight — after admission resolved the
// handle but before the request landed — reports ErrNoSuchComponent rather
// than silently dropping: the send either fails against the detached
// endpoint or parks on a route whose component is gone, and both shapes are
// detected here.
func (c *Client) Oneway(ctx context.Context, op string, args ...any) error {
	var a admitted
	if err := c.admit(ctx, op, &a); err != nil {
		return err
	}
	b := c.b
	// Nothing completes a one-way request, so it carries no envelope: the
	// arguments ride boxed.
	if err := b.sys.bus.Send(a.request(connector.CallPayload{Principal: c.principal, Args: args})); err != nil {
		if errors.Is(err, bus.ErrUnknownDst) {
			return fmt.Errorf("%w: %s", ErrNoSuchComponent, b.name)
		}
		return err
	}
	// Re-check presence after the send: a removal that raced the admission
	// check has already republished the handle table, so a request that was
	// accepted onto a paused or torn-down route is reported, not dropped.
	if !b.present.Load() && !b.resolveNow() {
		return fmt.Errorf("%w: %s", ErrNoSuchComponent, b.name)
	}
	// A one-way call has no reply edge, so its root span closes at the
	// send: the record marks where the trace entered the system, and the
	// serving side's span (parented to it) carries the service story.
	a.span(nil)
	return nil
}

// admitted is one call past its caller's admission prologue: what the call
// engine (invoke, invokeAsync) needs to know about who is calling. The
// platform edge (Client.admit) and a component's outcall
// (runtimeComponent.admit) each fill one in; nothing after the prologue asks
// which of them it was.
type admitted struct {
	sys *System
	// waiters is the table the reply is correlated in — the client edge's or
	// the calling component's — and src the address that table is served at.
	waiters  *replyWaiters
	src, dst bus.Address
	corr     uint64
	// dl is the deadline stamped into the request (unix nanos, 0 for none):
	// the context's when it has one, else now+budget when the handle carries
	// one, else zero — the system fallback bounds the caller's wait but is
	// not an explicit contract, so it is not imposed on the callee.
	dl int64
	tr traceRef
	// edge is the handle, when a handle made the call: it carries the
	// principal and closes the client-edge span. nil for a component outcall,
	// which has neither.
	edge *Client
	// name and op are what errors call the call: "<name>.<op>".
	name, op string
	// budget is the handle's WithDeadline budget, 0 for none. With a budget,
	// it bounds the wait when the context carries no deadline, and because it
	// was stamped into the request its expiry carries
	// context.DeadlineExceeded identity exactly like a context deadline —
	// whichever side notices first, errors.Is agrees. Without one the bound
	// is the system fallback: a local liveness bound, not a deadline the
	// callee ever saw, whose expiry stays a plain error.
	budget time.Duration
}

// fallback is the wait bound applied when the context has no deadline.
func (a *admitted) fallback() time.Duration {
	if a.budget > 0 {
		return a.budget
	}
	return a.sys.callTimeout
}

// principal is the caller identity the request carries.
func (a *admitted) principal() string {
	if a.edge != nil {
		return a.edge.principal
	}
	return ""
}

// ctxDeadline opens every admission prologue: a context that is already done
// is refused before anything is sent, and a context deadline is returned in
// unix nanos (0 for none).
func ctxDeadline(ctx context.Context, name, op string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("core: call %s.%s: %w", name, op, err)
	}
	if d, ok := ctx.Deadline(); ok {
		return d.UnixNano(), nil
	}
	return 0, nil
}

// admit is the admission prologue of every call shape at the platform edge:
// liveness and presence, the done-context check, the deadline derivation, the
// context-free admission core (admitAt) and the endpoint shard pick. Kept in
// one place so the call shapes cannot drift. It fills in a — the caller's,
// so that nothing is copied — only when it admits the call.
func (c *Client) admit(ctx context.Context, op string, a *admitted) error {
	b := c.b
	s := b.sys
	// The one clock read of the prologue, taken at call entry when tracing
	// is on so the client span brackets the whole call: it opens the span
	// (traceStart), anchors a WithDeadline budget and is the admission
	// check's now. With tracing off it is read only where one of the latter
	// two needs it.
	var now int64
	if s.rec.Sampling() != 0 {
		now = time.Now().UnixNano()
	}
	if err := b.resolve(); err != nil {
		return err
	}
	addrs := s.clientAddrs.Load()
	if addrs == nil {
		return ErrNotRunning
	}
	dl, err := ctxDeadline(ctx, b.name, op)
	if err != nil {
		return err
	}
	if dl == 0 && c.budget > 0 {
		if now == 0 {
			now = time.Now().UnixNano()
		}
		dl = now + int64(c.budget)
	}
	if err := b.admitAt(dl, now); err != nil {
		return err
	}
	// The trace root starts only for calls that pass admission: the shed
	// path's zero-allocation, ~100ns contract stays untouched, and shed
	// rates are observable through the snapshot's admission section anyway.
	tr := c.traceStart(now)
	corr := s.clientCorr.Add(1)
	*a = admitted{
		sys: s, waiters: &s.clientWaiters,
		src: (*addrs)[corr&(clientEndpoints-1)], dst: b.dst, corr: corr,
		dl: dl, tr: tr,
		edge: c, name: b.name, op: op, budget: c.budget,
	}
	return nil
}

// resolve and admitAt are the context-free core of admission, shared by the
// call shapes above and by Relay: whatever enters the system toward this
// component — from a local caller or from a peer link — passes the same two
// gates.
//
// resolve checks liveness and compiled-binding presence (with the uncached
// fallback).
func (b *clientBinding) resolve() error {
	if !b.sys.live.Load() {
		return ErrNotRunning
	}
	if !b.present.Load() && !b.resolveNow() {
		return fmt.Errorf("%w: %s", ErrUnknownComp, b.name)
	}
	return nil
}

// admitAt is the deadline-aware admission decision (DESIGN.md §9). It acts
// only on deadline-carrying calls (dl in unix nanos, 0 for none) toward a
// locally hosted component: when the component's estimated queueing delay —
// EWMA service time × backlog depth — already exceeds the remaining budget,
// the call is shed with a pre-built error (ErrOverloaded, or
// errBudgetUnmeetable for a budget no retry can meet) before any resource is
// committed: no waiter slot, no message, no goroutine, no allocation. now is
// the caller's clock read in unix nanos, 0 when it has none yet.
func (b *clientBinding) admitAt(dl, now int64) error {
	if dl == 0 || b.sys.noOverload {
		return nil
	}
	local := b.local.Load()
	if local == nil {
		return nil
	}
	if now == 0 {
		now = time.Now().UnixNano()
	}
	rem := dl - now
	if rem <= 0 {
		return nil
	}
	switch local.adm.Admit(local.depth(), rem) {
	case qos.Overloaded:
		return ErrOverloaded
	case qos.Unmeetable:
		return errBudgetUnmeetable
	}
	return nil
}

// errBudgetUnmeetable refuses a queueing call whose budget is shorter than
// one service time: a deadline, by errors.Is and by the kind a peer link
// carries it as.
var errBudgetUnmeetable = fmt.Errorf("core: deadline budget shorter than one service time: %w", context.DeadlineExceeded)

// Relay enters a request that arrived from outside this process — over a
// peer link — through the platform edge, without a context, a waiter or a
// goroutine: it passes the same liveness, presence and admission gates as a
// local call and goes onto the bus toward the handle's component. The caller
// is a bus participant in its own right: m.Src and m.Corr name where the
// reply goes, m.Deadline (unix nanos, 0 for none) and m.Trace/m.Span ride as
// given; Dst is set here. now is the caller's clock read, 0 when it took
// none. The error is synchronous refusal only — ErrNotRunning,
// ErrUnknownComp, ErrOverloaded, admission's deadline refusal, or the bus's
// (mailbox full) — and nothing was sent when it is non-nil.
func (c *Client) Relay(m bus.Message, now int64) error {
	b := c.b
	if err := b.resolve(); err != nil {
		return err
	}
	if err := b.admitAt(m.Deadline, now); err != nil {
		return err
	}
	m.Dst = b.dst
	return b.sys.bus.Send(m)
}

// request assembles the admitted request message, deadline and trace
// context stamped.
func (a *admitted) request(payload any) bus.Message {
	return bus.Message{
		Kind: bus.Request, Op: a.op,
		Payload: payload,
		Src:     a.src, Dst: a.dst, Corr: a.corr,
		Trace: a.tr.trace, Span: a.tr.span,
		Deadline: a.dl,
	}
}

// span closes the client-edge span of a traced call with its outcome. It is
// the last thing a handle's Call does before the outcome is the caller's —
// the surface calls it, not the engine under it, so that the span brackets
// the whole call; a future's closes as the future's outcome is fixed.
func (a *admitted) span(err error) {
	if a.edge != nil {
		a.edge.recordEdgeSpan(a.tr, a.op, telemetry.KindClient, outcomeOf(err))
	}
}

// ErrNoSuchComponent is the structured identity of a call addressed to a
// component that does not exist (anymore). It is the same error value as
// ErrUnknownComp — the name the platform edge documents — so errors.Is
// matches under either name, including for kinds carried across peer links.
var ErrNoSuchComponent = ErrUnknownComp

// errKindOf classifies a serve-side error into the structured kind carried
// on reply payloads (and, over peer links, on the wire).
func errKindOf(err error) connector.ErrKind {
	switch {
	case err == nil:
		return connector.ErrKindNone
	case errors.Is(err, ErrOverloaded):
		return connector.ErrKindOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return connector.ErrKindDeadline
	case errors.Is(err, context.Canceled):
		return connector.ErrKindCancelled
	case errors.Is(err, ErrUnknownComp):
		return connector.ErrKindNoSuchComponent
	default:
		return connector.ErrKindApp
	}
}

// replyErrorKind converts a reply payload into the caller-facing error. The
// structured kind — stamped by whichever side produced the error and carried
// across peer links — restores error identity: when the callee aborted on the
// propagated deadline (locally or on another cluster node), the error
// satisfies errors.Is(err, context.DeadlineExceeded) exactly as if the
// deadline had tripped on the caller's side. Application errors keep only
// their text.
func replyErrorKind(msg string, kind connector.ErrKind) error {
	switch kind {
	case connector.ErrKindDeadline, connector.ErrKindCancelled, connector.ErrKindNoSuchComponent, connector.ErrKindOverloaded:
		return &kindedError{msg: msg, kind: kind}
	}
	return errors.New(msg)
}

// kindedError is a reply error carrying structured identity.
type kindedError struct {
	msg  string
	kind connector.ErrKind
}

func (e *kindedError) Error() string { return e.msg }

func (e *kindedError) Is(target error) bool {
	switch e.kind {
	case connector.ErrKindDeadline:
		return target == context.DeadlineExceeded
	case connector.ErrKindCancelled:
		return target == context.Canceled
	case connector.ErrKindNoSuchComponent:
		return target == ErrUnknownComp
	case connector.ErrKindOverloaded:
		return target == ErrOverloaded
	}
	return false
}

// Future is one in-flight asynchronous untyped call (Client.Async): the
// engine's future at the []any convention.
type Future = TypedFuture[[]any, []any]
