package core

import (
	"errors"
	"time"

	"repro/internal/connector"
	"repro/internal/telemetry"
)

// This file is the platform edge of the telemetry plane (DESIGN.md §11).
// A trace starts at a compiled client-binding handle: the head-sampling
// decision is made once, a trace id is minted, and the client span's id
// rides in every downstream message as the packed word bus.Message.Span.
// The distribution plane continues a trace on the serving node without this
// file: whatever a peer link forwards — a unary call or a stream open — it
// puts on the bus itself with the frame's trace words already in the message
// (Client.Relay), so no client span exists there at all and the serving
// node's spans extend the caller's tree.

// traceRef is the per-call trace state threaded through a call shape: the
// ids stamped into the request plus the client span's start timestamp.
// trace == 0 marks an unsampled call.
type traceRef struct {
	trace int64
	span  int64 // telemetry.PackSpan(current, parent)
	start int64 // unix ns
}

// wallNanos is the client edge's span clock: the wall clock, like the
// deadlines the same edge stamps, so admit's one entry read serves both.
func wallNanos() int64 { return time.Now().UnixNano() }

// traceStart makes the head-sampling decision for one admitted call. now is
// admit's call-entry stamp, which becomes the client span's start; it is 0
// only when sampling was switched on between admit's check and this one, and
// the clock is read here instead.
func (c *Client) traceStart(now int64) traceRef {
	s := c.b.sys
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
// KindStream for stream opens; untraced calls record nothing.
func (c *Client) recordEdgeSpan(tr traceRef, op string, kind telemetry.Kind, outcome telemetry.Outcome) {
	if tr.trace == 0 {
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
