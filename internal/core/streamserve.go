// Serve half of the stream plane: the producer a stream-open starts, its
// credit window, and its reclamation paths (caller cancel, deadline,
// migration/reconfiguration abort). Unlike stream.go this file may touch
// the time package — it runs on the serve side, where deadlines become
// contexts.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/qos"
)

// streamKey identifies one producer: the consumer's reply address and the
// open's correlation id — the same pair cancel controls carry.
type streamKey struct {
	src  bus.Address
	corr uint64
}

// mailboxFullRetry is how long a producer parks before re-offering a chunk
// to a full consumer mailbox. A consumer at the platform edge has none —
// chunks settle inline into the stream's ring — so the retry loop only
// matters for a consumer behind a mailbox (a mediating connector) that
// unrelated traffic fills; even there credit bounds in-flight chunks well
// below mailbox capacity.
const mailboxFullRetry = 200 * time.Microsecond

// streamProducer is one running server stream on the serve side. It
// implements container.StreamSink: Send applies the credit window, leases a
// pooled chunk envelope, and puts it on the bus — blocking with the
// stream's deadline instead of surfacing ErrMailboxFull, so backpressure
// reaches the handler as blocked time, not as an error.
type streamProducer struct {
	rc     *runtimeComponent
	src    bus.Address
	corr   uint64
	op     string
	cw     *qos.CreditWindow
	ctx    context.Context
	cancel context.CancelFunc

	// sent counts chunks successfully put on the bus — the producer side
	// of the conservation ledger (sent == received + shed). Send is
	// single-writer (one handler goroutine); atomic only for observers.
	sent atomic.Uint64

	mu        sync.Mutex
	abortMsg  string // set by cancel/abort; overrides the handler's error
	abortKind connector.ErrKind
}

var _ container.StreamSink = (*streamProducer)(nil)

// Context implements container.StreamSink.
func (p *streamProducer) Context() context.Context { return p.ctx }

// Send implements container.StreamSink: acquire one credit (blocking until
// the consumer consumes, the stream is reclaimed, or the deadline lapses),
// then push the chunk. A full mailbox parks and retries under the same
// deadline — the platform edge never sees ErrMailboxFull from a stream.
func (p *streamProducer) Send(item any) error {
	if err := p.cw.Acquire(p.ctx); err != nil {
		return p.sendFailure(err)
	}
	seq := p.sent.Load() + 1
	env := connector.NewStreamItem(seq, item)
	m := bus.Message{
		Kind: bus.Reply, Op: p.op, Payload: env,
		Src: p.rc.ep.Addr(), Dst: p.src, Corr: p.corr,
	}
	for {
		err := p.rc.sys.bus.Send(m)
		if err == nil {
			p.sent.Store(seq)
			return nil
		}
		if !errors.Is(err, bus.ErrMailboxFull) {
			env.Release()
			return err
		}
		timer := time.NewTimer(mailboxFullRetry)
		select {
		case <-p.ctx.Done():
			timer.Stop()
			env.Release()
			return p.sendFailure(p.ctx.Err())
		case <-timer.C:
		}
	}
}

// sendFailure dresses a flow-control failure in the abort reason when one
// was recorded (cancel, migration) so the handler — and through the end
// frame, the consumer — sees why the stream died rather than a bare
// context error.
func (p *streamProducer) sendFailure(err error) error {
	p.mu.Lock()
	msg, kind := p.abortMsg, p.abortKind
	p.mu.Unlock()
	if msg != "" {
		return &kindedError{msg: msg, kind: kind}
	}
	if errors.Is(err, qos.ErrCreditClosed) {
		return &kindedError{msg: fmt.Sprintf("core: %s.%s: stream reclaimed", p.rc.name, p.op), kind: connector.ErrKindCancelled}
	}
	return err
}

// abort records the reclamation reason and interrupts the handler: the
// context cancels any in-flight work and the credit window fails blocked
// Sends. Idempotent; the first reason wins.
func (p *streamProducer) abort(msg string, kind connector.ErrKind) {
	p.mu.Lock()
	if p.abortMsg == "" {
		p.abortMsg, p.abortKind = msg, kind
	}
	p.mu.Unlock()
	p.cancel()
	p.cw.Close()
}

func (p *streamProducer) abortState() (string, connector.ErrKind, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.abortMsg, p.abortKind, p.abortMsg != ""
}

// serveStream handles one stream open end-to-end: the same pre-serve
// deadline and cancel checks as serve, then the container's stream
// invocation with a live producer registered for credit and cancel
// controls, then the terminal end frame. The admission estimator is
// deliberately not fed stream durations — a stream's lifetime measures the
// flow, not the per-request service time the estimator models.
func (rc *runtimeComponent) serveStream(m *bus.Message, open connector.StreamOpenPayload) {
	if m.Deadline != 0 && time.Now().UnixNano() > m.Deadline {
		rc.endStreamUnserved(m, "deadline exceeded before service", connector.ErrKindDeadline)
		return
	}
	window := open.Window
	if window < 1 {
		window = 1
	}
	if window > maxStreamWindow {
		window = maxStreamWindow
	}
	base := rc.serveCtx
	if base == nil {
		base = context.Background()
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if m.Deadline != 0 {
		ctx, cancel = context.WithDeadline(base, time.Unix(0, m.Deadline))
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	p := &streamProducer{
		rc: rc, src: m.Src, corr: m.Corr, op: m.Op,
		cw: qos.NewCreditWindow(window), ctx: ctx, cancel: cancel,
	}
	key := streamKey{src: m.Src, corr: m.Corr}
	rc.addStream(key, p)
	// The producer is registered before the revocation set is consulted, and
	// a cancel is recorded there before the producer it revokes is looked up
	// (deliverDirect): whichever order the two run in, one sees the other, so
	// a cancel that lands while the open is being taken up is never lost.
	if rc.cancels.take(m.Src, m.Corr) {
		rc.dropStream(key)
		cancel()
		rc.endStreamUnserved(m, "canceled before service", connector.ErrKindCancelled)
		return
	}
	err := rc.cont.InvokeStream(open.Principal, m.Op, open.Args, p)
	rc.dropStream(key)
	cancel()
	p.cw.Close()

	if errors.Is(err, container.ErrNotActive) && p.sent.Load() == 0 {
		// The open raced a reconfiguration point before any item flowed:
		// requeue it like serve does, preserving the no-loss guarantee.
		_ = rc.sys.bus.Send(*m)
		return
	}

	msg, kind := "", connector.ErrKindNone
	if amsg, akind, aborted := p.abortState(); aborted {
		msg, kind = amsg, akind
	} else if err != nil {
		msg, kind = fmt.Sprintf("core: %s.%s: %v", rc.name, m.Op, err), errKindOf(err)
	}
	if msg == "" {
		rc.sys.events.Emit(Event{Kind: EvRequestServed, At: rc.sys.clk.Now(),
			Component: rc.name, Detail: m.Op + ": stream end"})
	} else {
		rc.sys.events.Emit(Event{Kind: EvRequestFailed, At: rc.sys.clk.Now(),
			Component: rc.name, Detail: m.Op + ": " + msg})
	}
	_ = rc.sys.bus.Send(bus.Message{
		Kind: bus.Reply, Op: m.Op,
		Src: rc.ep.Addr(), Dst: m.Src, Corr: m.Corr,
		Payload: connector.StreamEndPayload{Err: msg, Kind: kind},
	})
}

// endStreamUnserved answers a stream open without invoking the container —
// the streaming sibling of rejectUnserved.
func (rc *runtimeComponent) endStreamUnserved(m *bus.Message, reason string, kind connector.ErrKind) {
	rc.sys.events.Emit(Event{Kind: EvRequestFailed, At: rc.sys.clk.Now(),
		Component: rc.name, Detail: m.Op + ": " + reason})
	_ = rc.sys.bus.Send(bus.Message{
		Kind: bus.Reply, Op: m.Op,
		Src: rc.ep.Addr(), Dst: m.Src, Corr: m.Corr,
		Payload: connector.StreamEndPayload{
			Err:  fmt.Sprintf("core: %s.%s: %s", rc.name, m.Op, reason),
			Kind: kind,
		},
	})
}

func (rc *runtimeComponent) addStream(key streamKey, p *streamProducer) {
	rc.smu.Lock()
	if rc.streams == nil {
		rc.streams = make(map[streamKey]*streamProducer)
	}
	rc.streams[key] = p
	rc.smu.Unlock()
}

func (rc *runtimeComponent) dropStream(key streamKey) {
	rc.smu.Lock()
	delete(rc.streams, key)
	rc.smu.Unlock()
}

// grantStream applies a credit control message to its producer. Unmatched
// credit (the producer already ended) is dropped — credit is best-effort.
func (rc *runtimeComponent) grantStream(src bus.Address, corr uint64, payload any) {
	n, _ := payload.(int)
	if n <= 0 {
		return
	}
	rc.smu.Lock()
	p := rc.streams[streamKey{src: src, corr: corr}]
	rc.smu.Unlock()
	if p != nil {
		p.cw.Grant(n)
	}
}

// cancelStream reclaims a running producer whose caller gave up. The
// queued-open case is covered by cancelSet exactly like unary calls.
func (rc *runtimeComponent) cancelStream(src bus.Address, corr uint64) {
	rc.smu.Lock()
	p := rc.streams[streamKey{src: src, corr: corr}]
	rc.smu.Unlock()
	if p != nil {
		p.abort(fmt.Sprintf("core: %s.%s: canceled by caller", rc.name, p.op), connector.ErrKindCancelled)
	}
}

// abortStreams interrupts every running producer — the step that makes a
// component with live streams quiescible: the handlers observe failed
// Sends, return, and the consumer gets a clean fast-fail end it can react
// to (typically by reopening against the component's new home). reason
// names the reconfiguration for the end-frame error text.
func (rc *runtimeComponent) abortStreams(reason string) {
	rc.smu.Lock()
	producers := make([]*streamProducer, 0, len(rc.streams))
	for _, p := range rc.streams {
		producers = append(producers, p)
	}
	rc.smu.Unlock()
	for _, p := range producers {
		p.abort(fmt.Sprintf("core: %s.%s: stream aborted: %s", rc.name, p.op, reason), connector.ErrKindApp)
	}
}

// activeStreams reports running producers on this component.
func (rc *runtimeComponent) activeStreams() int {
	rc.smu.Lock()
	defer rc.smu.Unlock()
	return len(rc.streams)
}
