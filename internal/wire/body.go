package wire

import (
	"bytes"
	"encoding/binary"
	"math"
)

// Frame bodies other than Call and Reply (the per-call path, hand-written in
// wire.go). Each is described once, by its fields method; one walk of that
// description encodes the body and another parses it, and the rules a parser
// of bytes off a peer link keeps — how many entries a count may claim, what
// an absent tail reads as — are the codec's, declared once below.

// Body is a frame body the codec walks: *Hello, *Cancel, *StreamOpen,
// *StreamChunk, *StreamCredit, *StreamEnd, *Migrate, *MigrateAck, *Announce,
// *Gossip, *Replicate or *ReplicateAck. The set is closed.
type Body interface {
	fields(c *codec)
}

// Append appends the encoding of b to dst. It fails only for a value the
// value codec cannot ship: a stream open's argument or a stream chunk's item.
func Append(dst []byte, b Body) ([]byte, error) {
	c := codec{out: dst}
	walk(&c, b)
	return c.out, c.err
}

// Parse decodes data into b, overwriting every field. A body that ends
// inside a field is ErrTruncated; bytes after the body belong to newer
// builds and are ignored.
func Parse(data []byte, b Body) error {
	c := codec{decode: true, in: data}
	walk(&c, b)
	return c.err
}

// walk runs b's description. The switch names every body so that each call
// is static: through the interface, the body and the codec would both move
// to the heap on every Append and Parse.
func walk(c *codec, b Body) {
	switch b := b.(type) {
	case *Hello:
		b.fields(c)
	case *Cancel:
		b.fields(c)
	case *StreamOpen:
		b.fields(c)
	case *StreamChunk:
		b.fields(c)
	case *StreamCredit:
		b.fields(c)
	case *StreamEnd:
		b.fields(c)
	case *Migrate:
		b.fields(c)
	case *MigrateAck:
		b.fields(c)
	case *Announce:
		b.fields(c)
	case *Gossip:
		b.fields(c)
	case *Replicate:
		b.fields(c)
	case *ReplicateAck:
		b.fields(c)
	default:
		panic("wire: a Body that walk does not name")
	}
}

// codec walks a body's fields in order: encoding appends each to out,
// decoding reads each from in. It has one method per field kind, each
// taking a pointer to the field.
type codec struct {
	decode bool
	out    []byte // encoding: the body so far
	in     []byte // decoding: the bytes not yet read
	// tail is set once the walk has passed optional(): from there on, input
	// that ends at a field boundary reads the remaining fields as zero.
	tail bool
	err  error // the first failure; a decode reads nothing after it
}

// optional declares the fields after it an optional tail, which is how a
// body grows: a reader that predates a new field ignores it as trailing
// bytes, and a reader given a body from before the field reads it as zero.
func (c *codec) optional() { c.tail = true }

// count is the length of a list whose entries encode in at least minSize
// bytes each. Decoding, a count that claims more entries than the bytes left
// could hold is ErrTruncated: an entry is larger in memory than on the wire,
// so a count checked against less would let one crafted frame reserve
// gigabytes before its first entry failed to read.
func (c *codec) count(n, minSize int) int {
	if !c.decode {
		c.out = binary.AppendUvarint(c.out, uint64(n))
		return n
	}
	v := c.readUvarint()
	if v > uint64(len(c.in)/minSize) {
		c.fail(ErrTruncated)
		return 0
	}
	return int(v)
}

// list is count for a slice: decoding, it makes *p that many zero entries
// (nil for none) for the caller's loop to fill.
func list[T any](c *codec, p *[]T, minSize int) int {
	n := c.count(len(*p), minSize)
	if c.decode {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
	return n
}

func (c *codec) uvarint(p *uint64) {
	if c.decode {
		*p = c.readUvarint()
	} else {
		c.out = binary.AppendUvarint(c.out, *p)
	}
}

// varint is a signed varint: binary.AppendVarint's zig-zag over a uvarint.
func (c *codec) varint(p *int64) {
	if c.decode {
		u := c.readUvarint()
		*p = int64(u>>1) ^ -int64(u&1)
	} else {
		c.out = binary.AppendVarint(c.out, *p)
	}
}

// u32 is a uvarint that must fit 32 bits.
func (c *codec) u32(p *uint32) {
	if !c.decode {
		c.out = binary.AppendUvarint(c.out, uint64(*p))
		return
	}
	v := c.readUvarint()
	if v > math.MaxUint32 {
		c.fail(ErrTruncated)
		v = 0
	}
	*p = uint32(v)
}

func (c *codec) u8(p *uint8) {
	if c.decode {
		*p = c.next(1)[0]
	} else {
		c.out = append(c.out, *p)
	}
}

// boolean is one byte, 1 or 0; any nonzero byte reads as true.
func (c *codec) boolean(p *bool) {
	switch {
	case c.decode:
		*p = c.next(1)[0] != 0
	case *p:
		c.out = append(c.out, 1)
	default:
		c.out = append(c.out, 0)
	}
}

// f64 is a float64's bits, big-endian.
func (c *codec) f64(p *float64) {
	if c.decode {
		*p = math.Float64frombits(binary.BigEndian.Uint64(c.next(8)))
	} else {
		c.out = binary.BigEndian.AppendUint64(c.out, math.Float64bits(*p))
	}
}

func (c *codec) str(p *string) {
	if c.decode {
		*p = string(c.raw())
	} else {
		c.out = AppendString(c.out, *p)
	}
}

// blob is a length-prefixed byte slice, copied out of the body: an empty one
// reads as empty, not nil.
func (c *codec) blob(p *[]byte) {
	if c.decode {
		*p = bytes.Clone(c.raw())
	} else {
		c.out = AppendBytes(c.out, *p)
	}
}

// value is one tagged value (see AppendValue).
func (c *codec) value(p *any) {
	var err error
	if !c.decode {
		c.out, err = AppendValue(c.out, *p)
	} else if *p = nil; !c.done() {
		*p, c.in, err = ReadValue(c.in)
	}
	c.fail(err)
}

// values is a counted value list. Encoding splices *raw in its place when it
// is non-nil — the list already encoded; decoding reads the list into *p and
// leaves *raw nil.
func (c *codec) values(p *[]any, raw *[]byte) {
	var err error
	if !c.decode && *raw != nil {
		c.out = append(c.out, *raw...)
	} else if !c.decode {
		c.out, err = AppendValues(c.out, *p)
	} else if *p, *raw = nil, nil; !c.done() {
		*p, c.in, err = ReadValues(c.in)
	}
	c.fail(err)
}

// trace is the 16-byte trace-context trailer (see appendTrace).
func (c *codec) trace(trace, span *int64) {
	if c.decode {
		*trace = int64(binary.LittleEndian.Uint64(c.next(8)))
		*span = int64(binary.LittleEndian.Uint64(c.next(8)))
	} else {
		c.out = appendTrace(c.out, *trace, *span)
	}
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// done reports whether a decode reads no further: after a failure, or at
// the end of an optional tail. What it would have read is zero.
func (c *codec) done() bool {
	return c.err != nil || c.tail && len(c.in) == 0
}

// zeros is what next yields once the decode is done.
var zeros [8]byte

// next reads n (at most 8) fixed bytes.
func (c *codec) next(n int) []byte {
	if !c.done() && len(c.in) < n {
		c.fail(ErrTruncated)
	}
	if c.done() {
		return zeros[:n]
	}
	b := c.in[:n]
	c.in = c.in[n:]
	return b
}

func (c *codec) readUvarint() uint64 {
	if c.done() {
		return 0
	}
	v, n := binary.Uvarint(c.in)
	if n <= 0 {
		c.fail(ErrTruncated)
		return 0
	}
	c.in = c.in[n:]
	return v
}

// raw reads a length-prefixed field without copying it; nil once the decode
// is done.
func (c *codec) raw() []byte {
	if c.done() {
		return nil
	}
	p, rest, err := readRaw(c.in)
	if err != nil {
		c.fail(err)
		return nil
	}
	c.in = rest
	return p
}

// Hello is the handshake payload, sent as FrameHello by the dialer and
// echoed back as FrameWelcome by the accepter.
type Hello struct {
	Node       string   // sender's node id
	System     string   // architecture name, for sanity checking
	Components []string // components the sender hosts (exported providers)
	// MaxVersion is the highest protocol version the sender speaks; both
	// sides run the link at min(ours, theirs). Zero (a body that ends before
	// the field) is an offer no build accepts.
	MaxVersion uint8
	// Addr is the sender's advertised listen address, so gossip can tell
	// third parties where to dial this member; empty means the peer did not
	// advertise one.
	Addr string
}

// fields: a hello from any build parses — whether the link is acceptable is
// the negotiation's verdict, not the parser's — so everything after the
// component list is an optional tail, and an offer too large for a byte
// reads as the largest.
func (h *Hello) fields(c *codec) {
	c.str(&h.Node)
	c.str(&h.System)
	for i := range list(c, &h.Components, 1) {
		c.str(&h.Components[i])
	}
	c.optional()
	offer := uint64(h.MaxVersion)
	c.uvarint(&offer)
	if c.decode {
		h.MaxVersion = uint8(min(offer, math.MaxUint8))
	}
	c.str(&h.Addr)
}

// Cancel revokes an in-flight call by correlation id. The sender has already
// settled the call locally (context cancel or deadline expiry), so the
// receiver frees the serving slot and pending entry and suppresses the reply.
type Cancel struct {
	Corr uint64
}

func (x *Cancel) fields(c *codec) {
	c.uvarint(&x.Corr)
}

// StreamOpen asks the peer to start a server stream. It is a call body plus
// the consumer's initial credit window: the producer may have at most Window
// un-credited chunks in flight before blocking.
type StreamOpen struct {
	Corr      uint64
	Component string
	Op        string
	Principal string
	// DeadlineNanos is the caller's remaining budget at encode time
	// (relative, like Call.DeadlineNanos; 0 = no deadline).
	DeadlineNanos int64
	// Window is the initial credit window in items (>= 1).
	Window uint32
	Args   []any
	// RawArgs, when non-nil, is spliced in place of Args, as on Call.
	RawArgs []byte
	// Trace and Span carry the stream's trace context, exactly as on Call.
	Trace int64
	Span  int64
}

func (o *StreamOpen) fields(c *codec) {
	c.uvarint(&o.Corr)
	c.str(&o.Component)
	c.str(&o.Op)
	c.str(&o.Principal)
	c.varint(&o.DeadlineNanos)
	c.u32(&o.Window)
	c.values(&o.Args, &o.RawArgs)
	c.trace(&o.Trace, &o.Span)
}

// StreamChunk carries one pushed stream item. Seq is the 1-based position of
// the item in its stream, for conservation accounting on the consumer side.
type StreamChunk struct {
	Corr uint64
	Seq  uint64
	Item any
}

func (x *StreamChunk) fields(c *codec) {
	c.uvarint(&x.Corr)
	c.uvarint(&x.Seq)
	c.value(&x.Item)
}

// StreamCredit extends the producer's send window by Credit items.
type StreamCredit struct {
	Corr   uint64
	Credit uint32
}

func (x *StreamCredit) fields(c *codec) {
	c.uvarint(&x.Corr)
	c.u32(&x.Credit)
}

// StreamEnd terminates a stream: clean end when Err is empty, failure
// otherwise. Kind classifies Err like Reply.Kind does.
type StreamEnd struct {
	Corr uint64
	Err  string
	Kind uint8
}

func (x *StreamEnd) fields(c *codec) {
	c.uvarint(&x.Corr)
	c.str(&x.Err)
	c.u8(&x.Kind)
}

// Migrate ships one quiesced component to a peer.
type Migrate struct {
	Corr       uint64 // ack correlation
	Component  string
	Implements string
	Properties map[string]string
	// CPU is the component's declared requirement, advisory: the
	// destination places the adopted instance by its own topology and may
	// use this to pick a node. It is not an allocation transfer — the
	// origin releases exactly what it allocated, independently.
	CPU      float64
	HasState bool
	State    []byte
}

func (m *Migrate) fields(c *codec) {
	c.uvarint(&m.Corr)
	c.str(&m.Component)
	c.str(&m.Implements)
	n := c.count(len(m.Properties), 2) // an entry is two strings
	if !c.decode {
		for k, v := range m.Properties {
			c.str(&k)
			c.str(&v)
		}
	} else if m.Properties = nil; n > 0 {
		m.Properties = make(map[string]string, n)
		for range n {
			var k, v string
			c.str(&k)
			c.str(&v)
			m.Properties[k] = v
		}
	}
	c.f64(&m.CPU)
	c.boolean(&m.HasState)
	c.blob(&m.State)
}

// MigrateAck confirms (empty Err) or refuses an adoption.
type MigrateAck struct {
	Corr uint64
	Err  string
}

func (a *MigrateAck) fields(c *codec) {
	c.uvarint(&a.Corr)
	c.str(&a.Err)
}

// Announce updates component ownership: Add means "I now host Component",
// !Add means "I no longer host it".
type Announce struct {
	Add       bool
	Component string
}

func (a *Announce) fields(c *codec) {
	c.boolean(&a.Add)
	c.str(&a.Component)
}

// Member statuses carried in gossip entries. The numbering is the merge
// precedence at equal (Incarnation, Version): a worse status wins.
const (
	GossipAlive   = 1
	GossipSuspect = 2
	GossipDead    = 3
)

// GossipComp is one hosted component inside a gossip entry: its observed
// load (EWMA-smoothed busy nanoseconds per second, from the admission
// estimator) and the node id of its replication follower ("" = none). The
// follower assignment riding gossip is what lets every node agree, without
// any coordination frame, on who promotes a component when its host dies.
type GossipComp struct {
	Name     string
	Load     float64
	Follower string
}

// GossipMember is one member entry in a gossip exchange. Incarnation orders
// reincarnations of the same node id (a member refutes its own suspicion by
// bumping it); Version orders updates within one incarnation (the origin
// bumps it every beacon, so a fresh heartbeat relayed through any path
// clears a stale suspicion). Merge rule: higher Incarnation wins, then
// higher Version, then worse Status.
type GossipMember struct {
	Node        string
	Addr        string
	Incarnation uint64
	Version     uint64
	Status      uint8
	Load        float64
	Comps       []GossipComp
}

// Gossip is the full membership view one node pushes to a peer on every
// beacon.
type Gossip struct {
	Members []GossipMember
}

// Smallest encodings of a gossip member (two empty strings, two one-byte
// uvarints, status, load, component count) and of a hosted component (two
// empty strings and a load): the count bounds of their lists.
const (
	minGossipMember = 14
	minGossipComp   = 10
)

// fields: an empty view parses to an empty member list, not nil.
func (g *Gossip) fields(c *codec) {
	for i := range list(c, &g.Members, minGossipMember) {
		g.Members[i].entry(c)
	}
	if c.decode && g.Members == nil {
		g.Members = []GossipMember{}
	}
}

func (m *GossipMember) entry(c *codec) {
	c.str(&m.Node)
	c.str(&m.Addr)
	c.uvarint(&m.Incarnation)
	c.uvarint(&m.Version)
	c.u8(&m.Status)
	c.f64(&m.Load)
	for i := range list(c, &m.Comps, minGossipComp) {
		m.Comps[i].entry(c)
	}
}

func (gc *GossipComp) entry(c *codec) {
	c.str(&gc.Name)
	c.f64(&gc.Load)
	c.str(&gc.Follower)
}

// Replicate ships one warm-standby state snapshot to a follower. Seq is
// monotonic per (origin, component); a follower ignores any snapshot at or
// below the sequence it already installed.
type Replicate struct {
	Corr      uint64
	Component string
	Seq       uint64
	State     []byte
}

func (r *Replicate) fields(c *codec) {
	c.uvarint(&r.Corr)
	c.str(&r.Component)
	c.uvarint(&r.Seq)
	c.blob(&r.State)
}

// ReplicateAck confirms (empty Err) or refuses a standby snapshot.
type ReplicateAck struct {
	Corr      uint64
	Component string
	Seq       uint64
	Err       string
}

func (a *ReplicateAck) fields(c *codec) {
	c.uvarint(&a.Corr)
	c.str(&a.Component)
	c.uvarint(&a.Seq)
	c.str(&a.Err)
}
