// Package telemetry is the unified observation plane (DESIGN.md §11): a
// zero-allocation tracing recorder plus a versioned metrics snapshot that
// every layer of the call path feeds. The paper's adaptation loop is
// observe→decide→reconfigure; this package is the "observe" substrate — the
// reflective middleware it cites ([Blair00] Open ORB, [Berg00]) both make
// runtime introspection the ground the adaptation machinery stands on.
//
// The record path (this file and recorder.go) deliberately imports neither
// time nor fmt: all timestamps are int64 unix nanoseconds supplied by the
// caller (who already holds them from the bus SentAt stamp or the serve
// clock read), matching the deadline plane's convention and enforced by the
// telemetry-plane CI vet.
package telemetry

import (
	"hash/maphash"
	"sync/atomic"
)

// Trace context layout. A trace is identified by a 64-bit TraceID; every
// hop within it by a 32-bit span id. bus.Message carries the context as two
// int64 words — Trace, and Span packed as (current span id << 32 | parent
// span id) — so stamping a message costs two integer stores and the Message
// struct stays inside the serve path's goroutine-spawn allocation size
// class (see the sizing note on bus.Message.Deadline).

// PackSpan packs a span id and its parent into the single int64 carried by
// bus.Message.Span and the wire trace trailer.
func PackSpan(span, parent uint32) int64 {
	return int64(uint64(span)<<32 | uint64(parent))
}

// SpanID extracts the current span id from a packed trace-context word.
func SpanID(packed int64) uint32 { return uint32(uint64(packed) >> 32) }

// ParentID extracts the parent span id from a packed trace-context word.
func ParentID(packed int64) uint32 { return uint32(uint64(packed)) }

// idState drives NewTraceID: a splitmix64 sequence seeded per process from
// maphash's runtime randomness, so two nodes starting the same nanosecond
// still mint disjoint trace ids without coordinating.
var idState atomic.Uint64

func init() {
	idState.Store(new(maphash.Hash).Sum64())
}

// NewTraceID mints a process-unique, well-mixed, non-zero 64-bit trace id.
// Zero is reserved to mean "not traced", so a zero mix output is nudged.
func NewTraceID() int64 {
	x := idState.Add(0x9E3779B97F4A7C15) // golden-ratio increment (splitmix64)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return int64(x)
}

// spanIDs mints span ids. 32-bit ids only need to be unique within the
// traces a node participates in concurrently; an atomic counter wrapping at
// 2^32 is ample and costs one uncontended add.
var spanIDs atomic.Uint32

// NextSpanID mints a non-zero span id (zero is "no parent").
func NextSpanID() uint32 {
	for {
		if id := spanIDs.Add(1); id != 0 {
			return id
		}
	}
}
