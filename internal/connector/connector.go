// Package connector implements first-class connectors — the centerpiece of
// the paper's vision (§3): "Connectors are abstractions for component
// interactions. … a connector is a light-weight component which functions
// as a glue of components and induces a low overload." Connectors mediate
// every interaction of a binding: they run the caller's messages through
// composition filters, enforce FLO/C interaction rules, track the glue
// protocol as a first-order automaton (LTS), and route to their targets
// according to their interaction schema (rpc, pipe, multicast, balanced).
// Targets, filters and rules are all exchangeable at run time —
// "connectors may be interchanged if necessary".
//
// A ConnectorFactory "may be used to generate connectors according to the
// description of elementary services and aspects that are selected for a
// specific collaboration" — see Factory.
package connector

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/filters"
	"repro/internal/flo"
	"repro/internal/lts"
)

// CallPayload is the request payload convention used across the framework.
type CallPayload struct {
	Principal string
	Args      []any
}

// ErrKind classifies a call failure structurally, so callers can match with
// errors.Is instead of on error text. The numbering matches the wire
// protocol's reply kind byte (wire.Kind*), so kinds cross peer links
// unmapped; 5 is reserved there and here.
type ErrKind uint8

// Error kinds.
const (
	ErrKindNone            ErrKind = 0 // success
	ErrKindApp             ErrKind = 1 // application error from the component
	ErrKindDeadline        ErrKind = 2 // deadline exceeded
	ErrKindCancelled       ErrKind = 3 // caller cancelled
	ErrKindNoSuchComponent ErrKind = 4 // destination component does not exist
	ErrKindOverloaded      ErrKind = 6 // shed by admission control at an edge
)

// ReplyPayload is the reply payload convention; Err is non-empty on
// failure.
type ReplyPayload struct {
	Results []any
	Err     string
	// Kind classifies Err (ErrKindNone for success, and on error replies
	// that carry no identity beyond their text, such as filter rejects).
	Kind ErrKind
}

// TypedCall is the request payload of every call that waits for its reply:
// the envelope of core's call engine, at a typed handle's (Req, Resp) or at
// []any for the untyped handle and component outcalls. The envelope carries
// the request and response as concrete types, so the single-target mediation
// path moves a pointer instead of boxing arguments, and the serving side can
// hand the request straight to a typed component. Mediation stages that need
// the legacy form (multicast gather, wire forwarding) fall back to
// Principal/Args.
type TypedCall interface {
	// Principal is the caller identity (CallPayload.Principal equivalent).
	Principal() string
	// Args materializes the argument list in the []any convention — the
	// compatibility path for untyped components, filters that inspect
	// arguments, and multicast fan-out.
	Args() []any
	// AppendArgs appends the argument list preencoded in wire.AppendValues
	// form (uvarint count + tagged values) — the zero-rebox path for
	// forwarding the call over a peer link.
	AppendArgs(dst []byte) ([]byte, error)
	// Req returns a pointer to the typed request value, or nil when the call
	// was made in the []any convention and Args is all there is.
	Req() any
	// Resp returns a pointer to the typed response value.
	Resp() any
	// RespTag is the wire value tag of the response shape a callee across a
	// peer link may serve the call typed into (wire.Call.RespTag), 0 for none.
	RespTag() uint8
	// SetResults decodes an untyped result list into the typed response —
	// used when the serving side answered through the legacy Handle path or
	// an aspect replaced the results.
	SetResults(results []any) error
	// SetRawResults is SetResults for a result list still in
	// wire.AppendValues form, as a peer link's read pump hands it over
	// (validated, and aliasing a buffer that is reused once the call
	// returns): a typed response is decoded straight from the bytes.
	SetRawResults(raw []byte) error
	// Finish completes the call in place: empty err means success with the
	// response already written through Resp.
	Finish(err string, kind ErrKind)
}

// Stats counts connector activity.
type Stats struct {
	Mediated       uint64 // requests forwarded
	Replies        uint64 // replies routed back
	RuleDenials    uint64
	FilterRejects  uint64
	GlueViolations uint64
	Deferred       uint64 // verdicts that sent a request round the retry lane
	ExpiredSwept   uint64 // pending entries reclaimed after their deadline lapsed
	Pending        int    // mediated requests still awaiting a reply
}

// connStats is the atomic backing store for Stats, so monitors can snapshot
// counters without taking the connector's route lock.
type connStats struct {
	mediated       atomic.Uint64
	replies        atomic.Uint64
	ruleDenials    atomic.Uint64
	filterRejects  atomic.Uint64
	glueViolations atomic.Uint64
	deferred       atomic.Uint64
	expiredSwept   atomic.Uint64
	pending        atomic.Int64
}

// Connector mediates one binding (or a set of bindings sharing the glue).
//
// A connector is a direct participant of the bus (bus.AttachDirect): handle,
// the one mediation body, runs inside the sender's bus.Send, on the sender's
// goroutine, under the route lock of the connector's own address. A request
// is filtered, ruled, routed and forwarded before the caller's Send returns,
// and the reply is settled and passed on inside the callee's Send — a
// mediated call crosses no goroutine of the connector's. That lock already
// serialises every delivery to the connector, so it is what owns the
// correlation state (pending, corr, rr, glue, scratch); there is no mutex of
// the connector's own. Run-time exchangeable state (targets, rules, and the
// compiled filter pipelines) is swapped atomically by the control plane and
// read with one atomic load per message; the filter stage evaluates a
// precompiled chain — globs are parsed at attach time, not per message.
//
// Under the lock handle never blocks and only sends away from itself: to a
// target (a component, the cluster gateway) or back to a caller, none of
// whose own direct functions sends. What it cannot finish inline it declines
// (bus.DirectFunc returns false), and the message queues on the connector's
// mailbox: a request a filter or rule deferred — re-sending it to itself, as
// the mediation goroutine used to, would deadlock on the lock handle runs
// under — and anything that arrives before Start or after Stop. The one
// goroutine a connector keeps is that retry lane: it takes what queued and
// offers it to handle again through bus.Send.
type Connector struct {
	name string
	kind adl.ConnectorKind
	b    *bus.Bus
	addr bus.Address
	ep   *bus.Endpoint

	// Atomically swapped by SetTargets/SetRules ("connectors may be
	// interchanged if necessary"); the stored slice is immutable.
	targets atomic.Pointer[[]bus.Address]
	rules   atomic.Pointer[flo.Engine]

	// Owned by the route lock of addr (handle and everything it calls).
	rr         int
	glue       *glueTracker
	pending    map[uint64]pendingCall
	corr       uint64
	sinceSweep int // messages handled since the last expired-pending sweep
	// scratch holds the message being mediated — first the one that arrived,
	// then the reply being built — so the filter chains get a pointer that
	// does not move a message to the heap per call.
	scratch bus.Message

	stats   connStats
	filters *filters.Set

	wg      sync.WaitGroup
	cancel  context.CancelFunc
	started atomic.Bool
	running atomic.Bool // between Start and Stop: handle mediates, else declines
}

type pendingCall struct {
	caller bus.Address
	corr   uint64
	op     string
	// targets is where the request went (a subslice of the immutable target
	// snapshot it was routed against): a caller's cancel follows it there.
	targets []bus.Address
	// awaiting counts outstanding replies (multicast gathers all).
	awaiting int
	gathered []any
	// deadline is the mediated request's end-to-end deadline (unix nanos, 0
	// when none). Overload governance may shed a queued request without a
	// reply (an expired message discarded out of a mailbox or a flushed held
	// queue never reaches serve), which would otherwise strand this entry
	// forever — the sweep reclaims entries well past their deadline.
	deadline int64
}

// Option configures a connector.
type Option func(*Connector)

// WithRules installs a FLO rule engine.
func WithRules(e *flo.Engine) Option { return func(c *Connector) { c.rules.Store(e) } }

// WithGlue installs the protocol automaton; ops are matched against the
// action base names of the model's transitions.
func WithGlue(model *lts.LTS) Option {
	return func(c *Connector) { c.glue = newGlueTracker(model) }
}

// WithFilters installs a pre-populated filter set.
func WithFilters(s *filters.Set) Option { return func(c *Connector) { c.filters = s } }

// Address returns the bus address of a named connector.
func Address(name string) bus.Address { return bus.Address("conn:" + name) }

// New attaches a connector to the bus. Targets are the callee addresses the
// connector routes to (one for rpc/pipe, several for multicast/balanced).
func New(name string, kind adl.ConnectorKind, b *bus.Bus, targets []bus.Address, opts ...Option) (*Connector, error) {
	if name == "" {
		return nil, errors.New("connector: needs a name")
	}
	c := &Connector{
		name:    name,
		kind:    kind,
		b:       b,
		addr:    Address(name),
		pending: map[uint64]pendingCall{},
		filters: &filters.Set{},
	}
	tgts := append([]bus.Address(nil), targets...)
	c.targets.Store(&tgts)
	for _, o := range opts {
		o(c)
	}
	// Attached last: handle can be offered a message from here on (and
	// declines it until Start).
	ep, err := b.AttachDirect(c.addr, 8192, c.handle)
	if err != nil {
		return nil, fmt.Errorf("connector %s: %w", name, err)
	}
	c.ep = ep
	return c, nil
}

// Name returns the connector name.
func (c *Connector) Name() string { return c.name }

// Kind returns the interaction schema.
func (c *Connector) Kind() adl.ConnectorKind { return c.kind }

// Filters exposes the connector's filter set for run-time attachment. The
// set's chains are compiled pipelines swapped atomically on interchange, so
// attaching, detaching or replacing filters here never stalls mediation and
// never exposes a half-applied chain to an in-flight message.
func (c *Connector) Filters() *filters.Set { return c.filters }

// SetTargets rebinds the connector — "modifying the connections between
// the components of the targeted application" (§3). The new target list is
// published atomically; in-progress mediations finish against the list they
// started with.
func (c *Connector) SetTargets(targets []bus.Address) {
	tgts := append([]bus.Address(nil), targets...)
	c.targets.Store(&tgts)
}

// Targets returns the current targets.
func (c *Connector) Targets() []bus.Address {
	return append([]bus.Address(nil), *c.targets.Load()...)
}

// SetRules swaps the rule engine at run time.
func (c *Connector) SetRules(e *flo.Engine) {
	c.rules.Store(e)
}

// Stats returns a snapshot of the counters.
func (c *Connector) Stats() Stats {
	return Stats{
		Mediated:       c.stats.mediated.Load(),
		Replies:        c.stats.replies.Load(),
		RuleDenials:    c.stats.ruleDenials.Load(),
		FilterRejects:  c.stats.filterRejects.Load(),
		GlueViolations: c.stats.glueViolations.Load(),
		Deferred:       c.stats.deferred.Load(),
		ExpiredSwept:   c.stats.expiredSwept.Load(),
		Pending:        int(c.stats.pending.Load()),
	}
}

// Start opens the connector for mediation and launches its retry lane; both
// run until ctx is cancelled, Stop is called or the connector is detached.
// Messages that arrived earlier queued and are mediated now. Start may be
// called once.
func (c *Connector) Start(ctx context.Context) {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	ctx, c.cancel = context.WithCancel(ctx)
	c.running.Store(true)
	c.wg.Add(1)
	go c.retry(ctx)
}

// retry is the lane for what handle declined: it takes a queued message and
// sends it to the connector again, which offers it to handle under the route
// lock like any other delivery. A request whose verdict is still Deferred
// comes straight back, so the lane yields between offers — whatever will
// change the verdict needs the processor more than the next attempt does.
func (c *Connector) retry(ctx context.Context) {
	defer c.wg.Done()
	for {
		m, err := c.ep.Receive(ctx)
		if err != nil {
			return
		}
		if err := c.b.Send(m); err != nil && m.Kind == bus.Request {
			// Declined again with the mailbox full in the meantime: answer
			// the caller instead of losing the request.
			c.replyError(&m, err.Error())
		}
		runtime.Gosched()
	}
}

// Stop closes the connector for mediation (later messages queue, as before
// Start) and waits for the retry lane to exit.
func (c *Connector) Stop() {
	c.running.Store(false)
	if c.cancel != nil {
		c.cancel()
	}
	c.wg.Wait()
}

// sweepEvery paces the expired-pending sweep: one scan per this many
// handled messages, so sweep cost amortizes to O(1) per mediation.
const sweepEvery = 256

// pendingGraceNanos is how far past its deadline a pending entry must be
// before the sweep reclaims it — wide enough that a reply racing the
// deadline still settles normally.
const pendingGraceNanos = int64(time.Second)

// sweepExpired reclaims pending entries whose mediated request's deadline
// lapsed long ago: governance shed the request without a reply (mailbox
// expiry, flush-after-resume discard), so nothing will ever settle them. The
// caller already timed out, so no reply is owed; a late reply to a swept
// correlation id is harmlessly ignored. A deadline-less entry is not the
// sweep's: its caller revokes it with a cancel when it gives up.
func (c *Connector) sweepExpired() {
	c.sinceSweep++
	if c.sinceSweep < sweepEvery || len(c.pending) == 0 {
		return
	}
	c.sinceSweep = 0
	now := time.Now().UnixNano()
	for corr, pc := range c.pending {
		if pc.deadline != 0 && now > pc.deadline+pendingGraceNanos {
			c.dropPending(corr)
			c.stats.expiredSwept.Add(1)
		}
	}
}

func (c *Connector) dropPending(corr uint64) {
	delete(c.pending, corr)
	c.stats.pending.Add(-1)
}

// handle is the connector's bus.DirectFunc and its whole mediation body. It
// reports false to decline the message, which then queues for the retry lane
// exactly as it arrived.
func (c *Connector) handle(in bus.Message) bool {
	if !c.running.Load() {
		return false
	}
	c.sweepExpired()
	c.scratch = in
	m := &c.scratch
	done := true
	switch {
	case m.Kind == bus.Request:
		done = c.handleRequest(m)
	case m.Kind == bus.Reply:
		c.settle(m.Corr, m.Payload)
	case m.Kind == bus.Control && m.Op == bus.OpCancel:
		c.handleCancel(m.Src, m.Corr)
	default:
		// Events pass through to all targets (pipe semantics).
		fwd := *m
		fwd.Src = c.addr
		for _, tgt := range *c.targets.Load() {
			fwd.Dst = tgt
			_ = c.b.Send(fwd)
		}
	}
	c.scratch.Payload = nil // do not pin the last call's arguments
	return done
}

// handleRequest mediates one request held in the scratch message; false
// means a filter or rule deferred it.
func (c *Connector) handleRequest(m *bus.Message) bool {
	// 1. Composition filters on the input side.
	res := c.filters.Eval(filters.Input, m)
	switch res.Outcome {
	case filters.Rejected:
		c.stats.filterRejects.Add(1)
		c.replyError(m, res.Err.Error())
		return true
	case filters.DeferredMsg:
		// Back of the mailbox: the wait filter's condition is re-evaluated
		// when the retry lane offers the request again.
		c.stats.deferred.Add(1)
		return false
	}

	// 2. FLO interaction rules.
	if rules := c.rules.Load(); rules != nil {
		dec := rules.Observe(m.Op)
		switch dec.Verdict {
		case flo.Deny:
			c.stats.ruleDenials.Add(1)
			c.replyError(m, "interaction rule: "+dec.Reason)
			return true
		case flo.Deferred:
			c.stats.deferred.Add(1)
			return false
		}
	}

	// 3. Glue protocol automaton.
	if c.glue != nil {
		if err := c.glue.step(m.Op); err != nil {
			c.stats.glueViolations.Add(1)
			c.replyError(m, err.Error())
			return true
		}
	}

	// 4. Route according to the interaction schema. The snapshot is
	// immutable, so multicast fans out over it without copying.
	targets := c.route()
	if len(targets) == 0 {
		c.replyError(m, "connector "+c.name+": no targets bound")
		return true
	}
	c.corr++
	corr := c.corr
	c.pending[corr] = pendingCall{
		caller: m.Src, corr: m.Corr, op: m.Op, targets: targets,
		awaiting: len(targets), deadline: m.Deadline,
	}
	c.stats.pending.Add(1)
	c.stats.mediated.Add(1)

	// The forwarded copy leaves the scratch free for a reply: a target that
	// cannot be reached is settled from inside this loop.
	fwd := *m
	fwd.Src = c.addr
	fwd.Corr = corr
	if len(targets) > 1 {
		// Fan-out shares one message across targets; a typed envelope is a
		// single mutable response slot, so multicast must fall back to the
		// boxed form — each callee then replies through its own payload
		// instead of racing on the envelope.
		if tc, ok := fwd.Payload.(TypedCall); ok {
			fwd.Payload = CallPayload{Principal: tc.Principal(), Args: tc.Args()}
		}
	}
	for _, tgt := range targets {
		fwd.Dst = tgt
		if err := c.b.Send(fwd); err != nil {
			c.settle(corr, ReplyPayload{Err: err.Error()})
		}
	}
	return true
}

// route picks targets per kind.
func (c *Connector) route() []bus.Address {
	targets := *c.targets.Load()
	switch c.kind {
	case adl.KindMulticast:
		return targets
	case adl.KindBalanced:
		if len(targets) == 0 {
			return nil
		}
		i := c.rr % len(targets)
		c.rr++
		return targets[i : i+1]
	default: // rpc, pipe
		if len(targets) == 0 {
			return nil
		}
		return targets[:1]
	}
}

// settle resolves one awaited reply for the correlation id; for multicast
// the last reply releases the gathered results. payload is the reply's
// payload as it arrived: on the single-target path it rides through to the
// caller in the box it came in.
func (c *Connector) settle(corr uint64, payload any) {
	pc, ok := c.pending[corr]
	if !ok {
		return
	}
	rp, _ := payload.(ReplyPayload)
	pc.awaiting--
	if rp.Err == "" && c.kind == adl.KindMulticast {
		// Only multicast gathers; the rpc/pipe/balanced path must not
		// allocate a gather slice per call.
		pc.gathered = append(pc.gathered, rp.Results)
		if pc.awaiting > 0 {
			c.pending[corr] = pc
			return
		}
		payload = ReplyPayload{Results: []any{pc.gathered}}
	}
	c.dropPending(corr)
	c.stats.replies.Add(1)

	c.scratch = bus.Message{
		Kind: bus.Reply, Op: pc.op, Payload: payload,
		Src: c.addr, Dst: pc.caller, Corr: pc.corr,
	}
	// Output-side filters see the reply before it leaves the connector.
	if res := c.filters.Eval(filters.Output, &c.scratch); res.Outcome == filters.Rejected {
		c.scratch.Payload = ReplyPayload{Err: res.Err.Error()}
	}
	_ = c.b.Send(c.scratch)
}

// handleCancel revokes the mediated request its caller names by the
// correlation id the caller used: the pending entry goes, and the cancel
// travels on to wherever the request went under the id the connector gave
// it there — the pair a callee's revocation table is keyed by. The callee's
// "cancelled before service" answer then finds no entry and is dropped.
// Cancels are rare (a caller gave up), so the table is scanned, not indexed.
func (c *Connector) handleCancel(caller bus.Address, callerCorr uint64) {
	for corr, pc := range c.pending {
		if pc.corr != callerCorr || pc.caller != caller {
			continue
		}
		c.dropPending(corr)
		for _, tgt := range pc.targets {
			_ = c.b.Send(bus.Message{
				Kind: bus.Control, Op: bus.OpCancel,
				Src: c.addr, Dst: tgt, Corr: corr,
			})
		}
		return
	}
}

func (c *Connector) replyError(m *bus.Message, reason string) {
	_ = c.b.Send(bus.Message{
		Kind: bus.Reply, Op: m.Op,
		Payload: ReplyPayload{Err: reason},
		Src:     c.addr, Dst: m.Src, Corr: m.Corr,
	})
}

// glueTracker walks the protocol automaton, matching operations against
// transition action base names from the current state.
type glueTracker struct {
	model *lts.LTS
	state int
}

func newGlueTracker(model *lts.LTS) *glueTracker {
	return &glueTracker{model: model, state: model.Initial()}
}

// step advances on op or reports a protocol violation.
func (g *glueTracker) step(op string) error {
	for _, tr := range g.model.Out(g.state) {
		if tr.Action.Base() == op {
			g.state = tr.To
			return nil
		}
	}
	return fmt.Errorf("connector glue: operation %q not allowed in state %s",
		op, g.model.StateName(g.state))
}

// Factory generates connectors from an ADL connector declaration plus the
// selected aspects — the paper's connector-factory (§3). The declaration's
// rules become the connector's FLO engine; aspect filter specifications are
// superimposed onto the connector's filter set.
type Factory struct {
	Bus *bus.Bus
}

// Build instantiates decl, binding it to the given targets and
// superimposing the provided aspect filter specifications.
func (f Factory) Build(decl adl.ConnectorDecl, targets []bus.Address, aspects ...filters.Superimposition) (*Connector, error) {
	var opts []Option
	if len(decl.Rules) > 0 {
		eng, err := flo.NewEngine(decl.Rules)
		if err != nil {
			return nil, fmt.Errorf("connector %s: %w", decl.Name, err)
		}
		opts = append(opts, WithRules(eng))
	}
	c, err := New(decl.Name, decl.Kind, f.Bus, targets, opts...)
	if err != nil {
		return nil, err
	}
	for _, sp := range aspects {
		// Superimposition compiles each filter's matchers; a malformed glob
		// fails connector generation instead of silently matching nothing.
		// Release the bus address on failure so a corrected Build can retry.
		if err := filters.Superimpose(sp, c.filters); err != nil {
			f.Bus.Detach(c.addr)
			return nil, fmt.Errorf("connector %s: %w", decl.Name, err)
		}
	}
	return c, nil
}
