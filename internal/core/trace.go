package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/connector"
	"repro/internal/telemetry"
)

// This file is the platform edge of the telemetry plane (DESIGN.md §11).
// A trace starts at a compiled client-binding handle: the head-sampling
// decision is made once, a trace id is minted, and the client span's id
// rides in every downstream message as the packed word bus.Message.Span.
// The distribution plane continues a trace on the serving node. A forwarded
// unary call is put on the bus by the peer link with the frame's trace words
// already in the message (Client.Relay), so no client span exists there at
// all; a relayed stream open does re-enter through a client handle, and
// WithTrace marks its context as a mid-trace continuation so the serving
// node extends the caller's tree instead of starting a second root — and
// instead of opening a redundant client span of its own.

// traceRef is the per-call trace state threaded through a call shape: the
// ids stamped into the request plus the client span's start timestamp.
// start == 0 marks a continuation (no client span owned on this node).
type traceRef struct {
	trace int64
	span  int64 // telemetry.PackSpan(current, parent)
	start int64 // unix ns; 0 = no client span to record
}

// traceCtxKey keys a mid-trace continuation injected by the distribution
// plane.
type traceCtxKey struct{}

// traceCtxVal carries the remote caller's trace context.
type traceCtxVal struct {
	trace int64
	span  int64
}

// WithTrace returns a context marked as a continuation of an in-flight
// trace: calls made with it propagate the given context verbatim instead
// of minting a root. span is the packed word from the incoming frame
// (telemetry.PackSpan layout). Used by the cluster layer when relaying
// forwarded stream opens.
func WithTrace(ctx context.Context, trace, span int64) context.Context {
	if trace == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, traceCtxVal{trace: trace, span: span})
}

// traceFrom extracts a continuation installed by WithTrace.
func traceFrom(ctx context.Context) (trace, span int64, ok bool) {
	v, ok := ctx.Value(traceCtxKey{}).(traceCtxVal)
	if !ok {
		return 0, 0, false
	}
	return v.trace, v.span, true
}

// wallNanos is the client edge's span clock: the wall clock, like the
// deadlines the same edge stamps, so admit's one entry read serves both.
func wallNanos() int64 { return time.Now().UnixNano() }

// traceStart makes the root-or-continuation decision for one admitted call.
// now is admit's call-entry stamp, which becomes the client span's start; it
// is 0 only when sampling was switched on between admit's check and this
// one, and the clock is read here instead.
func (c *Client) traceStart(ctx context.Context, now int64) traceRef {
	s := c.b.sys
	if t, sp, ok := traceFrom(ctx); ok {
		return traceRef{trace: t, span: sp}
	}
	if !s.rec.SampleRoot() {
		return traceRef{}
	}
	if now == 0 {
		now = wallNanos()
	}
	return traceRef{
		trace: telemetry.NewTraceID(),
		span:  telemetry.PackSpan(telemetry.NextSpanID(), 0),
		start: now,
	}
}

// recordEdgeSpan closes the client-edge span of a traced call, the last
// thing a call shape does: the end stamp is taken inside the recorder, after
// the ring slot is claimed. kind is KindClient for unary shapes and
// KindStream for stream opens; continuations (start == 0) and untraced
// calls record nothing.
func (c *Client) recordEdgeSpan(tr traceRef, op string, kind telemetry.Kind, outcome telemetry.Outcome) {
	if tr.trace == 0 || tr.start == 0 {
		return
	}
	s := c.b.sys
	s.rec.RecordClosing(telemetry.Span{
		Trace:   tr.trace,
		ID:      telemetry.SpanID(tr.span),
		Parent:  telemetry.ParentID(tr.span),
		Start:   tr.start,
		Op:      op,
		Comp:    c.b.name,
		Src:     s.NodeName(),
		Kind:    kind,
		Outcome: outcome,
	}, wallNanos)
}

// outcomeOf classifies a call-shape error into a span outcome. The kind
// numbering is shared (connector.ErrKind values are telemetry.Outcome
// values), so classified errors map directly; the system fallback's expiry,
// which has no kind because the callee never saw a deadline, is a deadline to
// whoever reads the trace.
func outcomeOf(err error) telemetry.Outcome {
	if errors.Is(err, errFallbackElapsed) {
		return telemetry.OutcomeDeadline
	}
	return telemetry.Outcome(errKindOf(err))
}

// outcomeOfKind maps a reply payload's structured kind (or the kind a
// serving side computed) to a span outcome.
func outcomeOfKind(kind connector.ErrKind) telemetry.Outcome {
	return telemetry.Outcome(kind)
}
