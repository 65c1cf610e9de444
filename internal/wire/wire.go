// Package wire implements the binary frame codec of the distribution plane
// (DESIGN.md §6, "Wire protocol"). Every byte that crosses a peer link —
// handshakes, gossip beacons, remote calls and their replies, stream items,
// migration and replication payloads, ownership announcements — is one
// length-prefixed frame encoded with the hand-rolled routines in this
// package. There is deliberately no encoding/gob or reflection on the hot
// path: a remote call marshals its arguments with a tag-per-value scheme into
// a reusable buffer and costs a handful of appends.
//
// Frame layout (all multi-byte integers big-endian unless uvarint):
//
//	offset  size  field
//	0       1     magic0 (0xA5)
//	1       1     magic1 (0x57)
//	2       1     protocol version
//	3       1     frame type
//	4       4     body length
//	8       n     body
//
// A decoder rejects frames with a bad magic, a protocol version outside
// [MinVersion, MaxVersion] or a body larger than MaxFrame, so a confused peer
// fails fast instead of desynchronizing the stream.
//
// Versioning. A build speaks every version in [MinVersion, MaxVersion]; today
// that is the single version 7, which every frame carries. Each side offers
// its MaxVersion in the hello/welcome exchange and both independently run the
// link at the smaller offer; when that falls below MinVersion there is no
// common version and both sides refuse the link. A body grows without a new
// version: a new field arrives as an optional tail, a body that ends before
// it reads it as zero, and bytes after the fields a reader knows are ignored
// (see body.go, where each body but Call and Reply is described once).
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// Protocol constants.
const (
	magic0 = 0xA5
	magic1 = 0x57
	// MinVersion and MaxVersion bound the protocol versions this build
	// speaks (see the package doc). Versions 2–6 were development rungs that
	// never shipped; their numbers are not reused.
	MinVersion = 7
	MaxVersion = 7

	headerSize = 8
	// MaxFrame bounds a single frame body (migration states included).
	MaxFrame = 64 << 20
	// retainLimit caps the scratch capacity an encoder or decoder keeps
	// between frames: steady-state traffic (heartbeats, calls) needs a few
	// hundred bytes, so one near-MaxFrame migration must not pin tens of
	// megabytes per peer link for the link's lifetime.
	retainLimit = 1 << 20
	// readChunk is the first read of a frame body; see Decoder.Next.
	readChunk = 4 << 10
)

// FrameType discriminates the frame kinds of the peer protocol.
type FrameType uint8

// Frame types. Hello through Announce and Gossip are link-control frames and
// always travel standalone; Call, Reply, Cancel, the four stream frames,
// Replicate and ReplicateAck are data frames: the egress writer sends one
// alone as a standalone frame and several as sub-frames of one FrameBatch.
const (
	// FrameHello opens a link (sent by the dialing side).
	FrameHello FrameType = iota + 1
	// FrameWelcome acknowledges a hello (sent by the accepting side).
	FrameWelcome
	// FrameHeartbeat is reserved: the empty liveness beacon of the
	// development versions. FrameGossip is the beacon now; nothing sends
	// this type.
	FrameHeartbeat
	// FrameCall is a remote component invocation.
	FrameCall
	// FrameReply answers a FrameCall.
	FrameReply
	// FrameMigrate ships a quiesced component (declaration + state).
	FrameMigrate
	// FrameMigrateAck confirms or refuses an adoption.
	FrameMigrateAck
	// FrameAnnounce updates component ownership after a migration.
	FrameAnnounce
	// FrameBatch packs several data sub-frames into one write so a busy
	// link pays one syscall per batch instead of one per frame. Body:
	// repeated sub-frames, each `type byte + u32 length + body` with bodies
	// in the same format as their standalone frames.
	FrameBatch
	// FrameCancel revokes an in-flight FrameCall or stream by correlation
	// id. Best-effort: the callee drops the pending work (or interrupts it
	// if already serving) and must NOT send a reply for a cancelled
	// correlation — the caller has already forgotten it.
	FrameCancel
	// FrameStreamOpen asks the peer to open a server stream: one request
	// that will be answered by any number of FrameStreamChunk frames and
	// exactly one FrameStreamEnd. The body is a call body plus the
	// consumer's initial credit window.
	FrameStreamOpen
	// FrameStreamChunk carries one pushed stream item, correlated to its
	// FrameStreamOpen.
	FrameStreamChunk
	// FrameStreamCredit extends the producer's send window by Credit items
	// — the consumer replenishes as it consumes, and the producer never has
	// more un-credited chunks in flight than the window.
	FrameStreamCredit
	// FrameStreamEnd terminates a stream: clean end (empty Err) or failure,
	// with the same structured kind byte replies carry. After sending it
	// the producer forgets the correlation; after receiving it the consumer
	// does.
	FrameStreamEnd
	// FrameGossip is the liveness beacon and carries the sender's full
	// membership view: one entry per known member with incarnation, entry
	// version, status, aggregate load, and the components it hosts (each
	// with its observed load and replication follower). Any received byte
	// counts as liveness, so membership converges at the beacon cadence
	// with no extra traffic class.
	FrameGossip
	// FrameReplicate ships one warm-standby state snapshot of a component
	// to its follower: monotonically sequenced per component so a reordered
	// or replayed snapshot can never roll a standby backwards.
	FrameReplicate
	// FrameReplicateAck confirms a standby snapshot was installed (or
	// refused); the origin tracks the last-acked sequence per component,
	// which is the replication-lag figure telemetry reports and the state a
	// promoted follower is guaranteed to have.
	FrameReplicateAck
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameCall:
		return "call"
	case FrameReply:
		return "reply"
	case FrameMigrate:
		return "migrate"
	case FrameMigrateAck:
		return "migrate-ack"
	case FrameAnnounce:
		return "announce"
	case FrameBatch:
		return "batch"
	case FrameCancel:
		return "cancel"
	case FrameStreamOpen:
		return "stream-open"
	case FrameStreamChunk:
		return "stream-chunk"
	case FrameStreamCredit:
		return "stream-credit"
	case FrameStreamEnd:
		return "stream-end"
	case FrameGossip:
		return "gossip"
	case FrameReplicate:
		return "replicate"
	case FrameReplicateAck:
		return "replicate-ack"
	default:
		return "unknown"
	}
}

// Codec errors.
var (
	ErrBadMagic    = errors.New("wire: bad frame magic")
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated   = errors.New("wire: truncated body")
	// ErrUnsupportedType reports a call argument or result the value codec
	// cannot ship; the caller turns it into a call error, never a panic.
	ErrUnsupportedType = errors.New("wire: unsupported value type")
	// ErrTooDeep reports a value whose []any nesting exceeds MaxDepth. Both
	// directions refuse it, so nothing encodable is undecodable; off the wire
	// it is a protocol error like any other.
	ErrTooDeep = errors.New("wire: value nested too deep")
)

// ---------------------------------------------------------------------------
// Value codec: a tag byte per value, uvarint lengths, recursion for slices.

// MaxDepth bounds how deep []any values may nest. The decoder recurses per
// level and a level costs two bytes on the wire, so without a bound one
// MaxFrame-sized body of nested one-element slices overflows the goroutine
// stack — which is fatal to the process, not a panic a caller could recover.
const MaxDepth = 32

// Value tags.
const (
	tNil = iota + 1
	tBool
	tInt      // Go int, the default integer type of call arguments
	tInt64    // explicitly-typed int64
	tUint64   // explicitly-typed uint64
	tFloat64  // float64
	tString   // uvarint length + bytes
	tBytes    // uvarint length + bytes
	tSlice    // uvarint count + values ([]any)
	tDuration // time.Duration as int64 nanoseconds
)

// AppendValue appends the encoding of v to dst. Supported types: nil, bool,
// int, int64, uint64, float64, string, []byte, time.Duration and []any of
// the same, nested at most MaxDepth deep (ErrTooDeep); anything else returns
// ErrUnsupportedType.
func AppendValue(dst []byte, v any) ([]byte, error) {
	return appendValue(dst, v, 0)
}

// appendValue is AppendValue below depth enclosing slices.
func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tNil), nil
	case bool:
		if x {
			return append(dst, tBool, 1), nil
		}
		return append(dst, tBool, 0), nil
	case int:
		dst = append(dst, tInt)
		return binary.AppendVarint(dst, int64(x)), nil
	case int64:
		dst = append(dst, tInt64)
		return binary.AppendVarint(dst, x), nil
	case uint64:
		dst = append(dst, tUint64)
		return binary.AppendUvarint(dst, x), nil
	case float64:
		dst = append(dst, tFloat64)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case string:
		dst = append(dst, tString)
		return AppendString(dst, x), nil
	case []byte:
		dst = append(dst, tBytes)
		return AppendBytes(dst, x), nil
	case time.Duration:
		dst = append(dst, tDuration)
		return binary.AppendVarint(dst, int64(x)), nil
	case []any:
		if depth == MaxDepth {
			return dst, ErrTooDeep
		}
		dst = append(dst, tSlice)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		var err error
		for _, el := range x {
			if dst, err = appendValue(dst, el, depth+1); err != nil {
				return dst, err
			}
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnsupportedType, v)
	}
}

// ReadValue decodes one value from b and returns it with the remaining
// bytes.
func ReadValue(b []byte) (any, []byte, error) {
	return readValue(b, 0)
}

// readValue is ReadValue below depth enclosing slices.
func readValue(b []byte, depth int) (any, []byte, error) {
	if len(b) == 0 {
		return nil, b, ErrTruncated
	}
	if e := Scalar(b[0]).entry(); e != nil {
		return e.value(b[1:])
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tNil:
		return nil, b, nil
	case tSlice:
		count, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, b, ErrTruncated
		}
		b = b[n:]
		if count > uint64(len(b)) { // each element costs at least one byte
			return nil, b, ErrTruncated
		}
		if depth == MaxDepth {
			return nil, b, ErrTooDeep
		}
		out := make([]any, 0, count)
		for i := uint64(0); i < count; i++ {
			var (
				el  any
				err error
			)
			if el, b, err = readValue(b, depth+1); err != nil {
				return nil, b, err
			}
			out = append(out, el)
		}
		return out, b, nil
	default:
		return nil, b, fmt.Errorf("%w: tag %d", ErrUnsupportedType, tag)
	}
}

// AppendValues appends a counted value list.
func AppendValues(dst []byte, vs []any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if dst, err = AppendValue(dst, v); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// ReadValues decodes a counted value list. A zero count yields nil, so a
// round-tripped empty result set stays nil (the framework's convention).
func ReadValues(b []byte) ([]any, []byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, b, ErrTruncated
	}
	b = b[n:]
	if count == 0 {
		return nil, b, nil
	}
	if count > uint64(len(b)) {
		return nil, b, ErrTruncated
	}
	out := make([]any, 0, count)
	for i := uint64(0); i < count; i++ {
		var (
			v   any
			err error
		)
		if v, b, err = ReadValue(b); err != nil {
			return nil, b, err
		}
		out = append(out, v)
	}
	return out, b, nil
}

// SkipValues walks a counted value list without materializing it and returns
// the bytes that follow. It accepts exactly what ReadValues accepts and
// consumes the same length, allocating nothing: it is how a read pump
// validates an argument or result block it hands on as bytes, so that a
// malformed block is refused where it arrived and a later ReadValues of the
// same bytes cannot fail.
func SkipValues(b []byte) ([]byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return b, ErrTruncated
	}
	b = b[n:]
	if count > uint64(len(b)) {
		return b, ErrTruncated
	}
	// left[d] is how many values are still to come at nesting depth d.
	var left [MaxDepth + 1]uint64
	left[0] = count
	for depth := 0; ; {
		if left[depth] == 0 {
			if depth == 0 {
				return b, nil
			}
			depth--
			continue
		}
		left[depth]--
		if len(b) == 0 {
			return b, ErrTruncated
		}
		tag := b[0]
		b = b[1:]
		size := 0 // bytes of the value after its tag
		switch tag {
		case tNil:
		case tBool:
			size = 1
		case tInt, tInt64, tDuration:
			if _, size = binary.Varint(b); size <= 0 {
				return b, ErrTruncated
			}
		case tUint64:
			if _, size = binary.Uvarint(b); size <= 0 {
				return b, ErrTruncated
			}
		case tFloat64:
			size = 8
		case tString, tBytes:
			_, rest, err := readRaw(b)
			if err != nil {
				return b, err
			}
			size = len(b) - len(rest)
		case tSlice:
			count, n := binary.Uvarint(b)
			if n <= 0 {
				return b, ErrTruncated
			}
			if size = n; count > uint64(len(b)-n) {
				return b[n:], ErrTruncated
			}
			if depth == MaxDepth {
				return b[n:], ErrTooDeep
			}
			depth++
			left[depth] = count
		default:
			return b, fmt.Errorf("%w: tag %d", ErrUnsupportedType, tag)
		}
		if len(b) < size {
			return b, ErrTruncated
		}
		b = b[size:]
	}
}

// ---------------------------------------------------------------------------
// Scalars: the wire-native value types a typed call ships through a pointer,
// never boxed. The scalar set below is the one list of them that the typed
// paths and ReadValue use; AppendValue and SkipValues switch over the whole
// value codec, nil and []any included, inline for speed.

// Scalar names one wire-native scalar type — string, int, int64, uint64,
// float64, bool, []byte or time.Duration — by its value tag; 0 is none. Its
// methods go through a pointer to the value (a *string for the string
// scalar): a typed handle holds its request in place, and boxing it for
// AppendValue would allocate on every call.
type Scalar uint8

// scalar is one entry of the scalar set, built by scalarOf from the codec of
// the value after its tag.
type scalar struct {
	is     func(p any) bool // p is a *T
	append func(dst []byte, p any) []byte
	read   func(b []byte, p any) bool // b is exactly one value; writes p only then
	value  func(b []byte) (any, []byte, error)
	fresh  func() any // a new *T
	clear  func(p any)
}

func scalarOf[T any](tag byte, enc func([]byte, T) []byte, dec func([]byte) (T, []byte, bool)) *scalar {
	return &scalar{
		is:     func(p any) bool { _, ok := p.(*T); return ok },
		append: func(dst []byte, p any) []byte { return enc(append(dst, tag), *p.(*T)) },
		read: func(b []byte, p any) bool {
			if len(b) == 0 || b[0] != tag {
				return false
			}
			v, rest, ok := dec(b[1:])
			if ok = ok && len(rest) == 0; ok {
				*p.(*T) = v
			}
			return ok
		},
		value: func(b []byte) (any, []byte, error) {
			if v, rest, ok := dec(b); ok {
				return v, rest, nil
			}
			return nil, b, ErrTruncated
		},
		fresh: func() any { return new(T) },
		clear: func(p any) { var zero T; *p.(*T) = zero },
	}
}

func varintScalar[T ~int | ~int64](tag byte) *scalar {
	return scalarOf(tag, func(dst []byte, v T) []byte { return binary.AppendVarint(dst, int64(v)) },
		func(b []byte) (T, []byte, bool) { v, n := binary.Varint(b); return T(v), b[max(n, 0):], n > 0 })
}

// scalars is the scalar set, indexed by tag. Each entry encodes exactly what
// AppendValue encodes for the value itself.
var scalars = [...]*scalar{
	tBool: scalarOf(tBool, func(dst []byte, v bool) []byte {
		if v {
			return append(dst, 1)
		}
		return append(dst, 0)
	},
		func(b []byte) (bool, []byte, bool) { return len(b) > 0 && b[0] != 0, b[min(len(b), 1):], len(b) > 0 }),
	tInt:   varintScalar[int](tInt),
	tInt64: varintScalar[int64](tInt64),
	tUint64: scalarOf(tUint64, binary.AppendUvarint,
		func(b []byte) (uint64, []byte, bool) { v, n := binary.Uvarint(b); return v, b[max(n, 0):], n > 0 }),
	tFloat64: scalarOf(tFloat64, func(dst []byte, v float64) []byte { return binary.BigEndian.AppendUint64(dst, math.Float64bits(v)) },
		func(b []byte) (float64, []byte, bool) {
			if len(b) < 8 {
				return 0, b, false
			}
			return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], true
		}),
	tString: scalarOf(tString, AppendString,
		func(b []byte) (string, []byte, bool) { s, rest, err := ReadString(b); return s, rest, err == nil }),
	tBytes: scalarOf(tBytes, AppendBytes,
		func(b []byte) ([]byte, []byte, bool) {
			v, rest, err := readRaw(b)
			return bytes.Clone(v), rest, err == nil
		}),
	tDuration: varintScalar[time.Duration](tDuration),
}

// ScalarOf returns the scalar p points at, or 0 when p is not a pointer to
// one. It walks the set: call it once per type, not per value.
func ScalarOf(p any) Scalar {
	for tag, s := range scalars {
		if s != nil && s.is(p) {
			return Scalar(tag)
		}
	}
	return 0
}

// entry returns s's entry of the set, nil when s names no scalar — which a
// tag byte off the wire may not.
func (s Scalar) entry() *scalar {
	if int(s) < len(scalars) {
		return scalars[s]
	}
	return nil
}

// AppendSole appends a value list of the one value p points at (a *T of s),
// as AppendValues encodes []any{*p}.
func (s Scalar) AppendSole(dst []byte, p any) []byte {
	return scalars[s].append(binary.AppendUvarint(dst, 1), p)
}

// ReadSole decodes a value list into what p points at (a *T of s). It reports
// false, having written nothing, unless the list is exactly one value of s's
// type: the caller then decodes the generic way and reports what it found.
func (s Scalar) ReadSole(block []byte, p any) bool {
	e := s.entry()
	count, n := binary.Uvarint(block)
	return e != nil && n > 0 && count == 1 && e.read(block[n:], p)
}

// Slot is a reusable home for one scalar value, so that a pooled holder —
// a relayed call's typed request or response — hands out a typed pointer
// without allocating one per use. The zero Slot holds nothing.
type Slot struct {
	s    Scalar // what the slot holds; 0 for nothing
	kept Scalar // what p points at, kept across Release
	p    any
}

// Hold makes the slot hold a zero value of s's type and returns a pointer to
// it — the previous value's memory when it was of the same type — or nil,
// holding nothing, when s names no scalar.
func (sl *Slot) Hold(s Scalar) any {
	sl.Release()
	e := s.entry()
	if e == nil {
		return nil
	}
	if sl.kept != s {
		sl.p, sl.kept = e.fresh(), s
	}
	sl.s = s
	return sl.p
}

// Held returns what the slot holds and a pointer to it, or (0, nil).
func (sl *Slot) Held() (Scalar, any) {
	if sl.s == 0 {
		return 0, nil
	}
	return sl.s, sl.p
}

// HoldSole makes the slot hold the one value of a value list and reports
// whether the list was exactly one scalar; otherwise the slot holds nothing.
func (sl *Slot) HoldSole(block []byte) bool {
	if count, n := binary.Uvarint(block); n > 0 && count == 1 && n < len(block) {
		if s := Scalar(block[n]); s.entry() != nil && s.ReadSole(block, sl.Hold(s)) {
			return true
		}
	}
	sl.Release()
	return false
}

// Release zeroes the held value — no string or slice outlives its use in a
// pooled slot — and leaves the slot holding nothing.
func (sl *Slot) Release() {
	if sl.s != 0 {
		scalars[sl.s].clear(sl.p)
		sl.s = 0
	}
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadString decodes a length-prefixed string.
func ReadString(b []byte) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return "", b, ErrTruncated
	}
	return string(b[n : n+int(l)]), b[n+int(l):], nil
}

// readRaw reads a length-prefixed field without copying it: the field
// aliases b.
func readRaw(b []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, b, ErrTruncated
	}
	return b[n : n+int(l)], b[n+int(l):], nil
}

// AppendBytes appends a uvarint-length-prefixed byte slice.
func AppendBytes(dst, p []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// ---------------------------------------------------------------------------
// Call and Reply: the per-call path, hand-written (see body.go).

// Call is one remote invocation routed through a gateway endpoint.
type Call struct {
	Corr      uint64
	Component string
	Op        string
	Principal string
	// DeadlineNanos is the caller's remaining deadline budget at encode
	// time, in nanoseconds (0 = no deadline). A relative duration rather
	// than an absolute timestamp: peer clocks are not assumed synchronized,
	// and the receiver reconstructs its local deadline as now+budget. The
	// one-way link latency is therefore granted to the callee for free —
	// acceptable slack at heartbeat-scale RTTs.
	DeadlineNanos int64
	Args          []any
	// RawArgs, when non-nil, is the argument list already encoded in
	// AppendValues form (uvarint count + tagged values). AppendCall splices
	// it verbatim instead of re-encoding Args — the preencoded fast path a
	// typed client handle uses so its arguments are marshalled exactly once.
	// ParseCall always decodes into Args; ParseCallRaw is the receiving side
	// of the fast path (see RawCall).
	RawArgs []byte
	// Trace and Span carry the call's trace context: Trace is the 64-bit
	// trace id (0 = untraced), Span packs the sender's span id over its
	// parent (telemetry.PackSpan). Encoded as a fixed 16-byte trailer after
	// the argument list.
	Trace int64
	Span  int64
	// RespTag is the value tag of the caller's scalar response type — the
	// shape it can take a result back in, which a callee serving the call
	// typed writes — or 0 for none. Encoded as one optional byte after the
	// trace trailer, only when non-zero, so an untagged frame is what a
	// reader that predates the byte expects; a reader ignores bytes after the
	// trailer, and a tag that names no Scalar means none.
	RespTag uint8
}

// Reply error kinds. The numbering is shared with the connector's ErrKind so
// a kind byte crosses the stack unmapped. 5 is reserved (it classified a
// refusal only the development versions could produce).
const (
	KindNone            = 0 // success
	KindAppError        = 1 // component returned an application error
	KindDeadline        = 2 // deadline exceeded
	KindCancelled       = 3 // caller cancelled
	KindNoSuchComponent = 4 // destination component does not exist
	KindOverloaded      = 6 // shed by the callee node's admission control
)

// Reply answers a Call; Err is non-empty on failure.
type Reply struct {
	Corr uint64
	Err  string
	// Kind classifies Err structurally (Kind* constants) so callers can
	// errors.Is against context.DeadlineExceeded and friends without string
	// matching.
	Kind    uint8
	Results []any
	// RawResults, when non-nil, is the result list in AppendValues form and
	// stands in for Results, the way Call.RawArgs stands in for Args:
	// AppendReply splices it verbatim, and ParseReplyRaw leaves the validated
	// block here — aliasing the frame body — instead of decoding it.
	RawResults []byte
}

// AppendCall encodes c. When RawArgs is set it is spliced verbatim in place
// of Args; the output is byte-identical either way, so the fast path is
// invisible to the receiving peer. The trailing version argument of this and
// the other Call and Reply codecs is unused — every link runs the one
// version — and stays because benchmark/probes.go compiles against it.
func AppendCall(dst []byte, c Call, _ uint8) ([]byte, error) {
	dst = binary.AppendUvarint(dst, c.Corr)
	dst = AppendString(dst, c.Component)
	dst = AppendString(dst, c.Op)
	dst = AppendString(dst, c.Principal)
	dst = binary.AppendVarint(dst, c.DeadlineNanos)
	var err error
	if c.RawArgs != nil {
		dst = append(dst, c.RawArgs...)
	} else if dst, err = AppendValues(dst, c.Args); err != nil {
		return dst, err
	}
	dst = appendTrace(dst, c.Trace, c.Span)
	if c.RespTag != 0 {
		dst = append(dst, c.RespTag)
	}
	return dst, nil
}

// RawCall is a Call body parsed without materializing anything: the names
// and the argument block alias the frame body, so they are valid only until
// the decoder reads its next frame. RawArgs has been walked by SkipValues — a
// later ReadValues of it cannot fail.
type RawCall struct {
	Corr                     uint64
	Component, Op, Principal []byte
	DeadlineNanos            int64
	RawArgs                  []byte
	Trace, Span              int64
	RespTag                  uint8
}

// parseCallHeader reads a call body up to its argument list, which it
// returns as the rest.
func parseCallHeader(b []byte, h *RawCall) (rest []byte, err error) {
	corr, n := binary.Uvarint(b)
	if n <= 0 {
		return b, ErrTruncated
	}
	h.Corr = corr
	if h.Component, b, err = readRaw(b[n:]); err != nil {
		return b, err
	}
	if h.Op, b, err = readRaw(b); err != nil {
		return b, err
	}
	if h.Principal, b, err = readRaw(b); err != nil {
		return b, err
	}
	dl, n := binary.Varint(b)
	if n <= 0 {
		return b, ErrTruncated
	}
	h.DeadlineNanos = dl
	return b[n:], nil
}

// ParseCall decodes a Call body. An untraced call's trailer still rides but
// holds zeros.
func ParseCall(b []byte, _ uint8) (c Call, err error) {
	var h RawCall
	b, err = parseCallHeader(b, &h)
	c.Corr, c.Component, c.Op, c.Principal = h.Corr, string(h.Component), string(h.Op), string(h.Principal)
	c.DeadlineNanos = h.DeadlineNanos
	if err != nil {
		return c, err
	}
	if c.Args, b, err = ReadValues(b); err != nil {
		return c, err
	}
	c.Trace, c.Span, err = parseTrace(b)
	c.RespTag = parseRespTag(b)
	return c, err
}

// ParseCallRaw decodes a Call body for a receiver that hands the arguments
// on as bytes: same header, same acceptance, but the argument list is walked
// and validated in place instead of decoded. It allocates nothing.
func ParseCallRaw(b []byte) (h RawCall, err error) {
	if b, err = parseCallHeader(b, &h); err != nil {
		return h, err
	}
	rest, err := SkipValues(b)
	if err != nil {
		return h, err
	}
	h.RawArgs = b[:len(b)-len(rest)]
	h.Trace, h.Span, err = parseTrace(rest)
	h.RespTag = parseRespTag(rest)
	return h, err
}

// parseRespTag reads a call's optional response tag from the bytes after its
// argument list; anything after the tag belongs to newer builds.
func parseRespTag(b []byte) uint8 {
	if len(b) > traceTrailerSize {
		return b[traceTrailerSize]
	}
	return 0
}

// traceTrailerSize is the fixed encoding of the trace-context trailer: trace
// id and packed span word, little-endian. Fixed-width rather than varint
// because trace ids are uniformly random 64-bit values — a varint would
// average 10 bytes against the fixed 16 for the pair.
const traceTrailerSize = 16

// appendTrace appends the trace-context trailer.
func appendTrace(dst []byte, trace, span int64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(trace))
	return binary.LittleEndian.AppendUint64(dst, uint64(span))
}

// parseTrace reads the trailer from the bytes remaining after a body's
// argument list.
func parseTrace(b []byte) (trace, span int64, err error) {
	if len(b) < traceTrailerSize {
		return 0, 0, ErrTruncated
	}
	return int64(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint64(b[8:])), nil
}

// AppendReply encodes r; the error-kind byte sits between Err and Results.
func AppendReply(dst []byte, r Reply, _ uint8) ([]byte, error) {
	dst = binary.AppendUvarint(dst, r.Corr)
	dst = AppendString(dst, r.Err)
	dst = append(dst, r.Kind)
	if r.RawResults != nil {
		return append(dst, r.RawResults...), nil
	}
	return AppendValues(dst, r.Results)
}

// parseReplyHeader reads a reply body up to its result list, which it
// returns as the rest.
func parseReplyHeader(b []byte) (corr uint64, errText string, kind uint8, rest []byte, err error) {
	corr, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, "", 0, b, ErrTruncated
	}
	if errText, b, err = ReadString(b[n:]); err != nil {
		return corr, "", 0, b, err
	}
	if len(b) < 1 {
		return corr, errText, 0, b, ErrTruncated
	}
	return corr, errText, b[0], b[1:], nil
}

// ParseReply decodes a Reply body.
func ParseReply(b []byte, _ uint8) (r Reply, err error) {
	if r.Corr, r.Err, r.Kind, b, err = parseReplyHeader(b); err != nil {
		return r, err
	}
	r.Results, _, err = ReadValues(b)
	return r, err
}

// ParseReplyRaw decodes a Reply body leaving the result list as validated
// bytes in RawResults (see RawCall): a successful reply costs no allocation
// here, and whoever the reply is for decodes the block into the shape it
// wants.
func ParseReplyRaw(b []byte) (r Reply, err error) {
	if r.Corr, r.Err, r.Kind, b, err = parseReplyHeader(b); err != nil {
		return r, err
	}
	rest, err := SkipValues(b)
	if err != nil {
		return r, err
	}
	r.RawResults = b[:len(b)-len(rest)]
	return r, nil
}

// ---------------------------------------------------------------------------
// Framed stream I/O.

// Encoder writes frames to a stream. It is not safe for concurrent use; the
// peer link serializes writers with its own mutex. The scratch buffer is
// reused across frames, so steady-state encoding allocates only when a body
// outgrows every previous one.
type Encoder struct {
	w       *bufio.Writer
	scratch []byte
	// batch is assembled independently of scratch so batched sub-frames and
	// interleaved standalone frames (gossip, migrations) never fight over
	// one buffer.
	batch      []byte
	batchCount int
}

// NewEncoder wraps w. Every frame it writes is stamped MaxVersion.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w)}
}

// stamp fills in the header of a frame whose first headerSize bytes are
// reserved.
func (e *Encoder) stamp(t FrameType, buf []byte) error {
	body := len(buf) - headerSize
	if body > MaxFrame {
		return ErrFrameTooBig
	}
	buf[0] = magic0
	buf[1] = magic1
	buf[2] = MaxVersion
	buf[3] = byte(t)
	binary.BigEndian.PutUint32(buf[4:8], uint32(body))
	return nil
}

// write puts one stamped frame on the stream.
func (e *Encoder) write(buf []byte) error {
	if _, err := e.w.Write(buf); err != nil {
		return err
	}
	return e.w.Flush()
}

// Encode writes a standalone frame of type t: the handshake (FrameHello,
// FrameWelcome) and the link-control frames, which never ride a batch. The
// frame is assembled behind its reserved header in the reusable scratch
// buffer, in one allocation-free pass.
func (e *Encoder) Encode(t FrameType, b Body) error {
	if e.scratch == nil {
		e.scratch = make([]byte, headerSize, 256)
	}
	buf, err := Append(e.scratch[:headerSize], b)
	if err == nil {
		err = e.stamp(t, buf)
	}
	if err != nil {
		return err
	}
	if cap(buf) <= retainLimit {
		e.scratch = buf // keep the grown buffer for reuse
	} else {
		e.scratch = nil // oversized one-off (migration state): let it go
	}
	return e.write(buf)
}

// ---------------------------------------------------------------------------
// Batch assembly: how every data frame is written. A batch is built
// incrementally — BeginBatch, then BatchAdd per frame, then FlushBatch — and
// goes out as one write: a FrameBatch when it holds several sub-frames, the
// bare standalone frame when it holds one (no sub-frame overhead on an idle
// link). Sub-frame layout inside a FrameBatch body:
//
//	offset  size  field
//	0       1     sub-frame type (a data frame type, see FrameType)
//	1       4     sub-frame body length (big-endian u32)
//	5       n     sub-frame body (same encoding as the standalone frame)

const subHeaderSize = 5

// BeginBatch resets the batch buffer for a new batch.
func (e *Encoder) BeginBatch() {
	if e.batch == nil {
		e.batch = make([]byte, headerSize, 4096)
	}
	e.batch = e.batch[:headerSize]
	e.batchCount = 0
}

// BatchAdd appends one sub-frame of type t, whose body appendBody produces,
// to the open batch. It fails only for reasons of the frame's own data — an
// error from appendBody, or ErrFrameTooBig when the body would push the
// batch past MaxFrame — and then leaves the batch as it was: the caller
// drops that frame and the stream stays intact.
func (e *Encoder) BatchAdd(t FrameType, appendBody func(dst []byte) ([]byte, error)) error {
	start := len(e.batch)
	e.batch = append(e.batch, byte(t), 0, 0, 0, 0)
	buf, err := appendBody(e.batch)
	if err == nil && len(buf)-headerSize > MaxFrame {
		err = ErrFrameTooBig
	}
	if err != nil {
		e.batch = e.batch[:start] // drop the partial sub-frame
		return err
	}
	e.batch = buf
	binary.BigEndian.PutUint32(e.batch[start+1:], uint32(len(e.batch)-start-subHeaderSize))
	e.batchCount++
	return nil
}

// BatchLen reports the assembled batch size in bytes (header included).
func (e *Encoder) BatchLen() int { return len(e.batch) }

// BatchCount reports the number of sub-frames in the open batch.
func (e *Encoder) BatchCount() int { return e.batchCount }

// FlushBatch writes the assembled batch. A batch with no sub-frames is a
// no-op.
func (e *Encoder) FlushBatch() error {
	if e.batchCount == 0 {
		return nil
	}
	buf, t := e.batch, FrameBatch
	if e.batchCount == 1 {
		// The bare frame: its header overwrites the sub-frame header and
		// the tail of the reserved batch header, which end exactly where
		// the body starts.
		buf, t = buf[subHeaderSize:], FrameType(buf[headerSize])
	}
	e.batchCount = 0
	if cap(e.batch) <= retainLimit {
		e.batch = e.batch[:headerSize]
	} else {
		e.batch = nil
	}
	if err := e.stamp(t, buf); err != nil {
		return err
	}
	return e.write(buf)
}

// ReadBatchFrame decodes one sub-frame from a FrameBatch body, returning its
// type, body, and the remaining bytes. The body aliases b.
func ReadBatchFrame(b []byte) (FrameType, []byte, []byte, error) {
	if len(b) < subHeaderSize {
		return 0, nil, b, ErrTruncated
	}
	t := FrameType(b[0])
	size := binary.BigEndian.Uint32(b[1:subHeaderSize])
	if uint64(size) > uint64(len(b)-subHeaderSize) {
		return 0, nil, b, ErrTruncated
	}
	return t, b[subHeaderSize : subHeaderSize+size], b[subHeaderSize+size:], nil
}

// Decoder reads frames from a stream. Not safe for concurrent use; each
// peer link owns one reader goroutine.
type Decoder struct {
	r    *bufio.Reader
	body []byte
	// hdr is the frame header scratch. It lives here because io.ReadFull
	// takes it as a slice, which would move a local array to the heap on
	// every frame.
	hdr [headerSize]byte
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Next reads one frame and returns its type and body. The body slice is
// valid until the next call to Next (it reuses the decoder's buffer).
func (d *Decoder) Next() (FrameType, []byte, error) {
	if cap(d.body) > retainLimit {
		// The previous frame was an oversized one-off (migration state);
		// its body has been consumed by now, so release the buffer.
		d.body = nil
	}
	hdr := &d.hdr
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, nil, ErrBadMagic
	}
	if hdr[2] < MinVersion || hdr[2] > MaxVersion {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	t := FrameType(hdr[3])
	size := binary.BigEndian.Uint32(hdr[4:8])
	if size > MaxFrame {
		return 0, nil, ErrFrameTooBig
	}
	// Reserve no more than a chunk, or as much again as has arrived, ahead
	// of the bytes actually read — never what the header merely claims: a
	// peer has to send the bytes to make us hold them.
	d.body = d.body[:0]
	for rest := int(size); rest > 0; {
		n := min(rest, max(readChunk, len(d.body)))
		d.body = slices.Grow(d.body, n)[:len(d.body)+n]
		if _, err := io.ReadFull(d.r, d.body[len(d.body)-n:]); err != nil {
			return 0, nil, err
		}
		rest -= n
	}
	return t, d.body, nil
}
