package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/metaobj"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Caller lets a hosted component invoke its required services; calls are
// routed through the connector bound to each requirement.
type Caller interface {
	// Call invokes the named required service and returns its results.
	Call(service string, args ...any) ([]any, error)
}

// ContextCaller is the context-aware extension of Caller: outcalls made
// through it honour the context's deadline and cancellation, and the
// deadline propagates with the request exactly as at the platform edge. The
// Caller every CallerAware component receives implements it; assert to use:
//
//	if cc, ok := caller.(core.ContextCaller); ok {
//		res, err = cc.CallContext(ctx, "get", key)
//	}
type ContextCaller interface {
	Caller
	// CallContext invokes the named required service under ctx.
	CallContext(ctx context.Context, service string, args ...any) ([]any, error)
}

// CallerAware components receive their Caller during assembly (dependency
// injection of the "use output" side).
type CallerAware interface {
	SetCaller(c Caller)
}

// ComponentAddress returns the bus address of a named component.
func ComponentAddress(name string) bus.Address { return bus.Address("comp:" + name) }

// runtimeComponent is one running component: a container, a bus endpoint,
// a serve loop, and a routing table from required services to connectors.
type runtimeComponent struct {
	sys   *System
	name  string
	decl  adl.ComponentDecl
	cont  *container.Container
	ep    *bus.Endpoint
	node  netsim.NodeID
	entry registry.Entry // the implementation currently hosted

	// allocCPU is the capacity actually allocated on the hosting node at
	// placement time. Release paths (migration, removal) must release
	// exactly this amount: the declared requirement can change between
	// allocation and release (a ModifyComponent step rewrites decl without
	// reallocating), and releasing the re-read value drifts the node's
	// accounting. Guarded by s.mu like node.
	allocCPU float64

	// routes maps required services to connector addresses. It is a
	// copy-on-write snapshot (the component-side mirror of the bus routing
	// table): Call loads it atomically, assembly and rebinding republish it
	// under mu.
	mu     sync.Mutex // serializes route writers (control plane)
	routes atomic.Pointer[map[string]bus.Address]

	waiters replyWaiters
	corr    atomic.Uint64
	// serving counts requests between mailbox pop and serve completion; a
	// cross-node handoff drains the mailbox and this counter together so no
	// popped-but-unrequeued message can be lost to the endpoint teardown.
	serving atomic.Int64
	// idle counts serve workers parked on the mailbox or on their way there
	// (see work).
	idle atomic.Int32
	// adm estimates this component's queueing delay from observed service
	// times (DESIGN.md §9); the platform edge consults it to shed calls whose
	// deadline budget the backlog already exceeds.
	adm *qos.Admission
	// cancels records requests revoked by a bus.OpCancel control message so
	// queued work whose caller gave up is answered without being served.
	cancels cancelSet
	// woven is this component's compiled aspect pipeline: advice whose
	// component pointcut cannot match this component is excluded at weave
	// (compile) time, and the weaver republishes the chain atomically on
	// every aspect interchange.
	woven *aspects.Woven
	// meta is the component's meta-object chain (interaction patterns, §2);
	// serve executes its published snapshot around the woven invocation.
	// metaBase is that invocation as the chain's base: rc.invokeWoven, bound
	// once so no method value is built per call.
	meta     metaobj.Chain
	metaBase func(*bus.Message) (any, error)

	// streams tracks running stream producers keyed by (consumer, corr) so
	// credit and cancel controls find them; abortStreams drains the table
	// before any quiesce (streams are long-lived by design, so waiting
	// them out would hold every reconfiguration hostage).
	smu     sync.Mutex
	streams map[streamKey]*streamProducer
	// serveCtx is the serve loop's context, parent of every stream
	// producer: stopping the component reclaims its streams.
	serveCtx context.Context

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

var _ ContextCaller = (*runtimeComponent)(nil)

func newRuntimeComponent(sys *System, decl adl.ComponentDecl, cont *container.Container, node netsim.NodeID) (*runtimeComponent, error) {
	rc := &runtimeComponent{
		sys:  sys,
		name: decl.Name,
		decl: decl,
		cont: cont,
		node: node,
		adm:  qos.NewAdmission(serveWorkers),
	}
	ep, err := sys.bus.AttachDirect(ComponentAddress(decl.Name), sys.mailbox, rc.deliverDirect)
	if err != nil {
		return nil, err
	}
	rc.ep = ep
	empty := map[string]bus.Address{}
	rc.routes.Store(&empty)
	// Weave the system's aspects around the container invocation. The
	// binding's advice chain is compiled for this component name and
	// recompiled (atomically republished) on every aspect interchange, so
	// aspects attached later apply to this component on their next call.
	base := func(inv *aspects.Invocation) (any, error) {
		switch call := inv.Args.(type) {
		case connector.CallPayload:
			return cont.Invoke(call.Principal, inv.Op, call.Args)
		case connector.TypedCall:
			// Typed fast path: the container hands the request and response
			// pointers straight to a TypedComponent. When the component (or
			// this op) only speaks Handle, the container falls back to the
			// boxed form and the results flow back like an untyped call.
			res, typed, err := cont.InvokeTyped(call.Principal(), inv.Op, call)
			if typed && err == nil {
				return typedServed, nil
			}
			return res, err
		default:
			res, err := cont.Invoke("", inv.Op, nil)
			return res, err
		}
	}
	rc.woven = sys.weaver.WeaveFor(decl.Name, base)
	rc.metaBase = rc.invokeWoven
	return rc, nil
}

// typedServed is the sentinel result of a typed in-place invocation: the
// response is already written through the envelope, so there is nothing to
// box into the reply. An aspect that replaces the result with its own []any
// overrides the sentinel and serve decodes its results into the envelope.
var typedServed any = &struct{}{}

// setRoute binds a required service to a connector address.
func (rc *runtimeComponent) setRoute(service string, conn bus.Address) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	next := maps.Clone(*rc.routes.Load())
	next[service] = conn
	rc.routes.Store(&next)
}

// dropRoute unbinds a required service.
func (rc *runtimeComponent) dropRoute(service string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	next := maps.Clone(*rc.routes.Load())
	delete(next, service)
	rc.routes.Store(&next)
}

// serveWorkers is how many serve goroutines a component keeps parked on its
// mailbox. It is a floor, not a bound: a component serves as many requests
// at once as have been delivered to it. Whenever a worker pops a request and
// leaves no other receiver parked it first starts one more (see work), so a
// burst beyond the resident workers, a handler blocked in an outcall and a
// component calling itself never wait on the pool; a worker that finishes
// while serveWorkers are already parked exits, so the pool is back to its
// floor once the burst is over. Admission control (DESIGN.md §9) therefore
// sees concurrency through depth() = mailbox + serving, not through a pool
// limit.
const serveWorkers = 4

// start launches the serve workers.
func (rc *runtimeComponent) start(ctx context.Context) {
	ctx, rc.cancel = context.WithCancel(ctx)
	rc.serveCtx = ctx
	rc.cont.Activate()
	rc.wg.Add(serveWorkers)
	rc.idle.Add(serveWorkers)
	for i := 0; i < serveWorkers; i++ {
		go rc.work(ctx)
	}
	rc.sys.events.Emit(Event{Kind: EvComponentStarted, At: rc.sys.clk.Now(), Component: rc.name})
}

// work is one serve worker: it receives requests straight from the mailbox
// (replies and controls never queue — deliverDirect settles them on the
// sender's goroutine) and serves them on its own goroutine, so outcalls
// from the handler are correlated while it blocks. idle counts the workers
// parked in Receive or on their way there; it is the only state the pool
// has. A worker is counted from the moment it is started, not from when it
// first runs — on a busy P a new goroutine can wait a whole time slice, and
// every request in between would start another — so work is entered already
// counted. In steady state a request finds a parked worker and leaves
// another behind, and no goroutine is started or ended.
func (rc *runtimeComponent) work(ctx context.Context) {
	defer rc.wg.Done()
	for {
		m, err := rc.ep.Receive(ctx)
		last := rc.idle.Add(-1) == 0
		if err != nil {
			return
		}
		if last {
			// Nobody else is receiving. Replace this worker before serving:
			// the handler may block on a request only another worker can pop.
			rc.wg.Add(1)
			rc.idle.Add(1)
			go rc.work(ctx)
		}
		rc.serving.Add(1)
		rc.serve(m)
		rc.serving.Add(-1)
		if rc.idle.Add(1) > serveWorkers {
			rc.idle.Add(-1)
			return // the floor is already parked: this worker was a burst's spare
		}
	}
}

// deliverDirect is the component's bus.DirectFunc: it settles Reply and
// Control traffic inline on the sender's goroutine (under the route lock:
// every step is a short critical section or a send on a cap-1 channel, and
// none calls back into the bus) and declines requests, which queue for the
// serve workers.
func (rc *runtimeComponent) deliverDirect(m bus.Message) bool {
	switch m.Kind {
	case bus.Request:
		return false
	case bus.Reply:
		rc.waiters.settle(m.Corr, m.Payload)
	case bus.Control:
		// A cancel overtakes the request it revokes (Control skips the EDF
		// lane and passes pauseRequests barriers, and is settled here while
		// the request still queues); record it so the request is answered
		// unserved when it surfaces, and reclaim the matching stream
		// producer if one is running.
		switch m.Op {
		case bus.OpCancel:
			rc.cancels.add(m.Src, m.Corr, time.Now().UnixNano())
			rc.cancelStream(m.Src, m.Corr)
		case bus.OpStreamCredit:
			rc.grantStream(m.Src, m.Corr, m.Payload)
		}
	}
	return true
}

// stop cancels the serve loop and waits for in-flight work.
func (rc *runtimeComponent) stop() {
	if rc.cancel != nil {
		rc.cancel()
	}
	rc.wg.Wait()
	// Detach from the weaver so later aspect interchanges stop recompiling
	// this component's chain (removeComponentLive would otherwise leak one
	// binding per removed component).
	rc.woven.Release()
	rc.sys.events.Emit(Event{Kind: EvComponentStopped, At: rc.sys.clk.Now(), Component: rc.name})
}

// serve handles one request end-to-end and replies to the caller: the
// message runs through the component's meta-object chain (if any), then the
// compiled aspect pipeline, then the container. Both pipelines are read as
// atomic snapshots, so a concurrent interchange never tears a chain under
// an in-flight request.
func (rc *runtimeComponent) serve(m bus.Message) {
	// Stream opens take their own path: the pre-serve checks are the same
	// but every rejection and the terminal reply are stream-end payloads,
	// and the container invocation hands the handler a flow-controlled
	// sink instead of collecting results.
	if open, ok := m.Payload.(connector.StreamOpenPayload); ok {
		rc.serveStream(&m, open)
		return
	}
	// A request whose caller's deadline already passed is answered with an
	// error instead of being served: the caller has returned and released
	// its waiter slot, so invoking the container would burn capacity on a
	// reply nobody reads. (The reply itself is still required — a mediating
	// connector correlates it to clean up its pending entry.) This check is
	// what makes a deadline propagated from another cluster node effective
	// on the callee. Deadlines carry wall-clock context semantics, hence
	// time.Now rather than the (possibly simulated) system clock.
	if m.Deadline != 0 && time.Now().UnixNano() > m.Deadline {
		rc.rejectUnserved(&m, "deadline exceeded before service", connector.ErrKindDeadline)
		return
	}
	// A request whose caller sent a cancel while it queued is likewise
	// answered without being served — the caller released its waiter slot
	// when it gave up.
	if rc.cancels.take(m.Src, m.Corr) {
		rc.rejectUnserved(&m, "canceled before service", connector.ErrKindCancelled)
		return
	}

	started := rc.sys.clk.Now()
	var (
		res any
		err error
	)
	if rc.meta.Len() == 0 {
		// Fast path: no meta-objects composed; invoke the woven chain
		// directly, without leasing a run from the chain.
		res, err = rc.invokeWoven(&m)
	} else {
		// Wrappers may rewrite the message (modificatory), veto it by not
		// calling next, and — because the base returns the invocation's error
		// into the chain — observe, translate or suppress invocation failures.
		// The chain's final error is authoritative for the reply.
		res, err = rc.meta.Invoke(m, rc.metaBase)
	}

	if errors.Is(err, container.ErrNotActive) {
		// The request raced a reconfiguration point: it was delivered to
		// the mailbox before the channel was blocked but reached the
		// container after quiescence. Requeue it — the bus parks it on
		// the paused channel and flushes it to the new implementation on
		// resume, preserving the no-loss guarantee. (The RAML always
		// pauses the channel before quiescing, so this cannot spin.)
		_ = rc.sys.bus.Send(m)
		return
	}

	// One clock read closes service: the end timestamp feeds the QoS monitor
	// (spans auto-feed the monitor — RecordAt reuses it instead of a second
	// clock read), stamps the served/failed event and, for traced requests,
	// closes the server span below.
	ended := rc.sys.clk.Now()
	endNs := ended.UnixNano()
	elapsed := ended.Sub(started)
	rc.sys.monitor.RecordAt(qos.Latency, endNs, elapsed.Seconds())
	rc.sys.monitor.RecordAt(qos.Throughput, endNs, 1)
	rc.adm.Observe(elapsed.Nanoseconds())

	reply := bus.Message{
		Kind: bus.Reply, Op: m.Op,
		Src: rc.ep.Addr(), Dst: m.Src, Corr: m.Corr,
	}
	tc, enveloped := m.Payload.(connector.TypedCall)
	if enveloped && err == nil && res != typedServed {
		// The component answered through Handle, or an aspect replaced the
		// results: decode them into the envelope's response.
		results, _ := res.([]any)
		if derr := tc.SetResults(results); derr != nil {
			err = fmt.Errorf("core: %s.%s: %w", rc.name, m.Op, derr)
		}
	}
	errText := ""
	if err != nil {
		errText = err.Error()
		rc.sys.events.Emit(Event{Kind: EvRequestFailed, At: ended,
			Component: rc.name, Detail: m.Op + ": " + errText})
	} else {
		rc.sys.events.Emit(Event{Kind: EvRequestServed, At: ended,
			Component: rc.name, Detail: m.Op})
	}
	if enveloped {
		// Completion happens in place: the envelope carries the response and
		// the reply message moves the same pointer back as a pure signal —
		// nothing is boxed on the return path either.
		tc.Finish(errText, errKindOf(err))
		reply.Payload = m.Payload
	} else {
		rp := connector.ReplyPayload{Err: errText, Kind: errKindOf(err)}
		if err == nil {
			rp.Results, _ = res.([]any)
		}
		reply.Payload = rp
	}
	_ = rc.sys.bus.Send(reply)
	rc.recordServerSpan(&m, started.UnixNano(), endNs, outcomeOf(err))
}

// recordServerSpan closes the serving-side span of a traced request: it
// parents under the caller's span id carried in the message and splits the
// request's life into queue wait (send stamp → serve start) and service
// (serve start → end). Untraced requests record nothing.
func (rc *runtimeComponent) recordServerSpan(m *bus.Message, startNs, endNs int64, outcome telemetry.Outcome) {
	if m.Trace == 0 {
		return
	}
	queue := int64(0)
	if m.SentAt != 0 && startNs > m.SentAt {
		queue = startNs - m.SentAt
	}
	rc.sys.rec.Record(telemetry.Span{
		Trace:   m.Trace,
		ID:      telemetry.NextSpanID(),
		Parent:  telemetry.SpanID(m.Span),
		Start:   startNs,
		End:     endNs,
		Queue:   queue,
		Op:      m.Op,
		Comp:    rc.name,
		Dst:     rc.sys.NodeName(),
		Kind:    telemetry.KindServer,
		Outcome: outcome,
	})
}

// rejectUnserved answers a request without invoking the container: the
// caller is known to be gone (deadline lapsed or an explicit cancel), so
// serving would burn capacity on a reply nobody reads. The reply itself is
// still required — a mediating connector correlates it to clean up its
// pending entry — and carries the structured kind so identity survives
// relays.
func (rc *runtimeComponent) rejectUnserved(m *bus.Message, reason string, kind connector.ErrKind) {
	at := rc.sys.clk.Now()
	rc.sys.events.Emit(Event{Kind: EvRequestFailed, At: at,
		Component: rc.name, Detail: m.Op + ": " + reason})
	reject := bus.Message{
		Kind: bus.Reply, Op: m.Op,
		Src: rc.ep.Addr(), Dst: m.Src, Corr: m.Corr,
	}
	msg := fmt.Sprintf("core: %s.%s: %s", rc.name, m.Op, reason)
	if tc, ok := m.Payload.(connector.TypedCall); ok {
		tc.Finish(msg, kind)
		reject.Payload = m.Payload
	} else {
		reject.Payload = connector.ReplyPayload{Err: msg, Kind: kind}
	}
	_ = rc.sys.bus.Send(reject)
	// A rejected request never entered service: its span is all queue wait
	// (Start == End), which is exactly what the queue/service split should
	// show for work shed after the caller gave up.
	now := at.UnixNano()
	rc.recordServerSpan(m, now, now, outcomeOfKind(kind))
}

// depth is the admission-control view of this component's backlog: queued
// mailbox messages (both lanes, one atomic load) plus requests currently
// being served.
func (rc *runtimeComponent) depth() int64 {
	return rc.ep.Depth() + rc.serving.Load()
}

// invokeWoven runs one message through the component's compiled aspect
// pipeline into the container. It is also the base the meta-object chain
// ends at (rc.metaBase).
func (rc *runtimeComponent) invokeWoven(m *bus.Message) (any, error) {
	// The payload rides the invocation as-is: a boxed CallPayload or a typed
	// call envelope — the woven base closure dispatches on the dynamic type.
	inv := &aspects.Invocation{Component: rc.name, Op: m.Op, Args: m.Payload}
	return rc.woven.Invoke(inv)
}

// Call implements Caller: route the outcall through the bound connector and
// wait for the correlated reply. Like the platform-edge Client, the
// steady-state path is mutex-free: the route table is an atomic snapshot and
// the reply waiter table is sharded by correlation id.
func (rc *runtimeComponent) Call(service string, args ...any) ([]any, error) {
	return rc.CallContext(context.Background(), service, args...)
}

// CallContext implements ContextCaller: Call governed by a context whose
// deadline is stamped into the outgoing request (propagating down the call
// chain, across peer links included) and whose cancellation releases the
// reply-waiter slot immediately. A caller that gives up — cancellation, or
// the fallback timeout of a deadline-less call — revokes the request like
// Client.Call does, so the connector it went through drops its pending entry
// and the callee does not serve it.
func (rc *runtimeComponent) CallContext(ctx context.Context, service string, args ...any) ([]any, error) {
	var a admitted
	if err := rc.admit(ctx, service, &a); err != nil {
		return nil, err
	}
	return invoke(ctx, &a, untyped, &args) // an outcall owns no span to close
}

// admit is the admission prologue of an outcall: the route the requirement
// is bound to, the done-context check and the deadline. The reply comes back
// to the component's own address and waiter table.
func (rc *runtimeComponent) admit(ctx context.Context, service string, a *admitted) error {
	dst, ok := (*rc.routes.Load())[service]
	if !ok {
		return fmt.Errorf("core: component %s: required service %q is unbound", rc.name, service)
	}
	dl, err := ctxDeadline(ctx, rc.name, service)
	if err != nil {
		return err
	}
	*a = admitted{
		sys: rc.sys, waiters: &rc.waiters,
		src: rc.ep.Addr(), dst: dst, corr: rc.corr.Add(1),
		dl: dl, name: rc.name, op: service,
	}
	return nil
}
