package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The sample frames the round-trip tests ship and the fuzz targets seed
// their corpora with.
var (
	sampleHello = Hello{Node: "n1", System: "Cluster", Components: []string{"Store", "Front"},
		MaxVersion: MaxVersion, Addr: "10.0.0.1:7000"}
	sampleCall = Call{Corr: 7, Component: "Store", Op: "get", Principal: "alice",
		DeadlineNanos: int64(1500 * time.Millisecond), Args: []any{"k", 2}, Trace: 0x1234, Span: 0x500000004}
	sampleReply   = Reply{Corr: 7, Results: []any{"v"}}
	sampleMigrate = Migrate{Corr: 3, Component: "Store", Implements: "KV",
		Properties: map[string]string{"statefulness": "stateful", "cpu": "2"},
		CPU:        2, HasState: true, State: []byte("state-bytes")}
	sampleMigrateAck = MigrateAck{Corr: 3, Err: "nope"}
	sampleAnnounce   = Announce{Add: true, Component: "Store"}
	sampleCancel     = Cancel{Corr: 7_000_000_001}
	sampleOpen       = StreamOpen{Corr: 41, Component: "Feed", Op: "list",
		Principal: "alice", DeadlineNanos: 5_000_000, Window: 32,
		Args: []any{"prefix", 10}, Trace: 9, Span: 0x100000000}
	sampleChunk  = StreamChunk{Corr: 41, Seq: 3, Item: "item-3"}
	sampleCredit = StreamCredit{Corr: 41, Credit: 8}
	sampleEnd    = StreamEnd{Corr: 41, Err: "boom", Kind: KindAppError}
	sampleGossip = Gossip{Members: []GossipMember{
		{Node: "n1", Addr: "127.0.0.1:7001", Incarnation: 3, Version: 91, Status: GossipAlive,
			Load: 0.75, Comps: []GossipComp{
				{Name: "Store", Load: 1.25e6, Follower: "n2"},
				{Name: "Front", Load: 0, Follower: ""},
			}},
		{Node: "n2", Addr: "127.0.0.1:7002", Incarnation: 1, Version: 40, Status: GossipSuspect, Load: 0.1},
		{Node: "n3", Addr: "", Incarnation: 0, Version: 0, Status: GossipDead},
	}}
	sampleReplicate    = Replicate{Corr: 11, Component: "Store", Seq: 42, State: []byte("snapshot-bytes")}
	sampleReplicateAck = ReplicateAck{Corr: 11, Component: "Store", Seq: 42, Err: "busy"}
)

// Body closures in the shape Encoder.BatchAdd takes.
func callBody(c Call) func([]byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) { return AppendCall(dst, c, MaxVersion) }
}

func replyBody(r Reply) func([]byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) { return AppendReply(dst, r, MaxVersion) }
}

func bodyOf(b Body) func([]byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) { return Append(dst, b) }
}

// encodeBody is the closure for v: a *Call, a *Reply or a Body.
func encodeBody(v any) func([]byte) ([]byte, error) {
	switch x := v.(type) {
	case *Call:
		return callBody(*x)
	case *Reply:
		return replyBody(*x)
	}
	return bodyOf(v.(Body))
}

// encodeFrame writes v, a Body, as a standalone frame of type t.
func encodeFrame(enc *Encoder, t FrameType, v any) error { return enc.Encode(t, v.(Body)) }

// parseAs decodes b into a new value of want's type: a *Call, a *Reply or a
// Body.
func parseAs(want any, b []byte) (any, error) {
	switch want.(type) {
	case *Call:
		c, err := ParseCall(b, MaxVersion)
		return &c, err
	case *Reply:
		r, err := ParseReply(b, MaxVersion)
		return &r, err
	}
	got := reflect.New(reflect.TypeOf(want).Elem()).Interface().(Body)
	return got, Parse(b, got)
}

// parsed is parseAs for a test: the value, or a fatal error.
func parsed[T any](t *testing.T, b []byte) T {
	t.Helper()
	var want T
	got, err := parseAs(&want, b)
	if err != nil {
		t.Fatalf("parse %T: %v", want, err)
	}
	return *got.(*T)
}

// sendAlone writes one data frame the way the egress writes a lone one: a
// batch of one, which the encoder puts on the stream as the bare frame.
func sendAlone(t *testing.T, enc *Encoder, ft FrameType, body func([]byte) ([]byte, error)) {
	t.Helper()
	enc.BeginBatch()
	if err := enc.BatchAdd(ft, body); err != nil {
		t.Fatal(err)
	}
	if err := enc.FlushBatch(); err != nil {
		t.Fatal(err)
	}
}

// next reads one frame and checks its type.
func next(t *testing.T, dec *Decoder, want FrameType) []byte {
	t.Helper()
	typ, body, err := dec.Next()
	if err != nil || typ != want {
		t.Fatalf("frame: got %v %v, want %v", typ, err, want)
	}
	return body
}

func TestValueRoundTrip(t *testing.T) {
	cases := []any{
		nil,
		true,
		false,
		42,
		-7,
		int64(1 << 40),
		uint64(18446744073709551615),
		3.25,
		"hello",
		"",
		[]byte{1, 2, 3},
		250 * time.Millisecond,
		[]any{"a", 1, []any{true, nil}},
	}
	for _, want := range cases {
		buf, err := AppendValue(nil, want)
		if err != nil {
			t.Fatalf("AppendValue(%v): %v", want, err)
		}
		got, rest, err := ReadValue(buf)
		if err != nil {
			t.Fatalf("ReadValue(%v): %v", want, err)
		}
		if len(rest) != 0 {
			t.Fatalf("ReadValue(%v): %d trailing bytes", want, len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %#v want %#v", got, want)
		}
	}
}

func TestValueUnsupported(t *testing.T) {
	if _, err := AppendValue(nil, struct{ X int }{1}); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("want ErrUnsupportedType, got %v", err)
	}
	if _, err := AppendValue(nil, []any{"ok", make(chan int)}); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("nested unsupported: want ErrUnsupportedType, got %v", err)
	}
}

func TestEmptyResultsStayNil(t *testing.T) {
	buf, err := AppendValues(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadValues(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("want nil results, got %#v", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	if err := enc.Encode(FrameHello, &sampleHello); err != nil {
		t.Fatal(err)
	}
	sendAlone(t, enc, FrameCall, callBody(sampleCall))
	sendAlone(t, enc, FrameReply, replyBody(sampleReply))
	for _, f := range []struct {
		t FrameType
		b Body
	}{{FrameMigrate, &sampleMigrate}, {FrameMigrateAck, &sampleMigrateAck}, {FrameAnnounce, &sampleAnnounce}} {
		if err := enc.Encode(f.t, f.b); err != nil {
			t.Fatal(err)
		}
	}

	// Every frame carries the one version, the handshake's included.
	if got := conn.Bytes()[2]; got != MaxVersion {
		t.Fatalf("hello stamped v%d, want MaxVersion", got)
	}
	if got := parsed[Hello](t, next(t, dec, FrameHello)); !reflect.DeepEqual(got, sampleHello) {
		t.Fatalf("hello: %#v", got)
	}
	gotCall, err := ParseCall(next(t, dec, FrameCall), MaxVersion)
	if err != nil || !reflect.DeepEqual(gotCall, sampleCall) {
		t.Fatalf("call: %#v %v", gotCall, err)
	}
	gotReply, err := ParseReply(next(t, dec, FrameReply), MaxVersion)
	if err != nil || !reflect.DeepEqual(gotReply, sampleReply) {
		t.Fatalf("reply: %#v %v", gotReply, err)
	}
	if got := parsed[Migrate](t, next(t, dec, FrameMigrate)); !reflect.DeepEqual(got, sampleMigrate) {
		t.Fatalf("migrate: %#v", got)
	}
	if got := parsed[MigrateAck](t, next(t, dec, FrameMigrateAck)); got != sampleMigrateAck {
		t.Fatalf("ack: %#v", got)
	}
	if got := parsed[Announce](t, next(t, dec, FrameAnnounce)); got != sampleAnnounce {
		t.Fatalf("announce: %#v", got)
	}
}

func TestHelloVersionNegotiation(t *testing.T) {
	// The offer rides the hello unclamped — a newer build's offer above this
	// build's MaxVersion must reach the negotiation as sent.
	buf, err := Append(nil, &Hello{Node: "n1", System: "S", MaxVersion: MaxVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	if h := parsed[Hello](t, buf); h.MaxVersion != MaxVersion+1 {
		t.Fatalf("newer hello: MaxVersion=%d", h.MaxVersion)
	}
	// A hello that ends before the offer parses as offering nothing: the
	// parser accepts it and the negotiation refuses it.
	bare := AppendString(nil, "n1")
	bare = AppendString(bare, "S")
	bare = append(bare, 0) // zero components
	if h := parsed[Hello](t, bare); h.MaxVersion != 0 {
		t.Fatalf("bare hello: MaxVersion=%d", h.MaxVersion)
	}
}

func TestReplyKindRoundTrip(t *testing.T) {
	r := Reply{Corr: 9, Err: "core: deadline exceeded", Kind: KindDeadline}
	buf, err := AppendReply(nil, r, MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReply(buf, MaxVersion)
	if err != nil || !reflect.DeepEqual(got, r) {
		t.Fatalf("reply: %#v %v", got, err)
	}
	// The kind byte is not optional.
	if _, err := ParseReply(buf[:len(buf)-2], MaxVersion); !errors.Is(err, ErrTruncated) {
		t.Fatalf("reply without kind byte: %v", err)
	}
}

func TestRawArgsEquivalence(t *testing.T) {
	args := []any{"key-1", 42, true}
	raw, err := AppendValues(nil, args)
	if err != nil {
		t.Fatal(err)
	}
	boxed, err := AppendCall(nil, Call{Corr: 5, Component: "Store", Op: "get", Args: args}, MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := AppendCall(nil, Call{Corr: 5, Component: "Store", Op: "get", RawArgs: raw}, MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(boxed, pre) {
		t.Fatalf("RawArgs encoding diverges:\n boxed %x\n pre   %x", boxed, pre)
	}
}

// TestCallRespTag: the response tag is one byte after the trace trailer,
// written only when set. An untagged body is the body without the byte, and a
// tagged one reads, under the rules of a reader that predates the byte (the
// trailer parse ignores what follows it), as the same call minus its tag.
func TestCallRespTag(t *testing.T) {
	untagged, err := AppendCall(nil, sampleCall, MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []uint8{tString, tInt, 0xFF} {
		c := sampleCall
		c.RespTag = tag
		body, err := AppendCall(nil, c, MaxVersion)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, append(untagged[:len(untagged):len(untagged)], tag)) {
			t.Fatalf("tag %d: body %x, want the untagged body and the byte", tag, body)
		}
		// Bytes after the tag belong to newer builds.
		for _, b := range [][]byte{body, append(body, 0xAB)} {
			got, err := ParseCall(b, MaxVersion)
			if err != nil || !reflect.DeepEqual(got, c) {
				t.Fatalf("tag %d: ParseCall = %+v, %v", tag, got, err)
			}
			if raw, err := ParseCallRaw(b); err != nil || raw.RespTag != tag {
				t.Fatalf("tag %d: ParseCallRaw tag %d, %v", tag, raw.RespTag, err)
			}
		}
		// The reader that predates the byte: header, arguments, trailer.
		var h RawCall
		rest, err := parseCallHeader(body, &h)
		if err == nil {
			rest, err = SkipValues(rest)
		}
		if err != nil {
			t.Fatal(err)
		}
		if tr, sp, err := parseTrace(rest); err != nil || tr != sampleCall.Trace || sp != sampleCall.Span {
			t.Fatalf("tag %d: old reader's trailer %x %x, %v", tag, tr, sp, err)
		}
	}
	if c, err := ParseCall(untagged, MaxVersion); err != nil || c.RespTag != 0 {
		t.Fatalf("untagged: tag %d, %v", c.RespTag, err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	calls := []Call{
		{Corr: 1, Component: "Store", Op: "get", Args: []any{"a"}},
		{Corr: 2, Component: "Store", Op: "put", Args: []any{"b", 7}},
	}
	reply := Reply{Corr: 3, Err: "boom", Kind: KindAppError, Results: nil}

	enc.BeginBatch()
	for _, c := range calls {
		if err := enc.BatchAdd(FrameCall, callBody(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.BatchAdd(FrameReply, replyBody(reply)); err != nil {
		t.Fatal(err)
	}
	if enc.BatchCount() != 3 {
		t.Fatalf("batch count = %d", enc.BatchCount())
	}
	if err := enc.FlushBatch(); err != nil {
		t.Fatal(err)
	}

	typ, body, err := dec.Next()
	if err != nil || typ != FrameBatch {
		t.Fatalf("frame: %v %v", typ, err)
	}
	for i, want := range calls {
		st, sb, rest, err := ReadBatchFrame(body)
		if err != nil || st != FrameCall {
			t.Fatalf("sub %d: %v %v", i, st, err)
		}
		got, err := ParseCall(sb, MaxVersion)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("sub %d: %#v %v", i, got, err)
		}
		body = rest
	}
	st, sb, rest, err := ReadBatchFrame(body)
	if err != nil || st != FrameReply {
		t.Fatalf("reply sub: %v %v", st, err)
	}
	gotReply, err := ParseReply(sb, MaxVersion)
	if err != nil || !reflect.DeepEqual(gotReply, reply) {
		t.Fatalf("reply: %#v %v", gotReply, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after batch", len(rest))
	}
	// A sub-frame whose body fails to encode leaves the batch as it was.
	enc.BeginBatch()
	if err := enc.BatchAdd(FrameCall, callBody(calls[0])); err != nil {
		t.Fatal(err)
	}
	before := enc.BatchLen()
	bad := Call{Corr: 9, Component: "Store", Op: "put", Args: []any{make(chan int)}}
	if err := enc.BatchAdd(FrameCall, callBody(bad)); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("unencodable sub-frame: %v", err)
	}
	if enc.BatchLen() != before || enc.BatchCount() != 1 {
		t.Fatalf("failed add left %d bytes / %d frames, want %d / 1", enc.BatchLen(), enc.BatchCount(), before)
	}
	// An empty flush writes nothing.
	enc.BeginBatch()
	if err := enc.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if conn.Len() != 0 {
		t.Fatalf("empty batch wrote %d bytes", conn.Len())
	}
	// A truncated sub-frame is rejected, not mis-parsed.
	if _, _, _, err := ReadBatchFrame([]byte{byte(FrameCall), 0, 0, 0, 9, 1}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated sub-frame: %v", err)
	}
}

func TestCancelRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	// Alone on the link: the bare frame.
	want := sampleCancel
	sendAlone(t, enc, FrameCancel, bodyOf(&want))
	if got := parsed[Cancel](t, next(t, dec, FrameCancel)); got != want {
		t.Fatalf("cancel: %#v", got)
	}

	// Batched sub-frame, coalescing with a call.
	enc.BeginBatch()
	if err := enc.BatchAdd(FrameCall, callBody(Call{Corr: 1, Component: "C", Op: "op"})); err != nil {
		t.Fatal(err)
	}
	if err := enc.BatchAdd(FrameCancel, bodyOf(&want)); err != nil {
		t.Fatal(err)
	}
	if err := enc.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	st, _, rest, err := ReadBatchFrame(next(t, dec, FrameBatch))
	if err != nil || st != FrameCall {
		t.Fatalf("call sub: %v %v", st, err)
	}
	st, sb, rest, err := ReadBatchFrame(rest)
	if err != nil || st != FrameCancel {
		t.Fatalf("cancel sub: %v %v", st, err)
	}
	if got := parsed[Cancel](t, sb); got != want {
		t.Fatalf("batched cancel: %#v", got)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	// Truncation is rejected.
	if err := Parse(nil, &Cancel{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty cancel body: %v", err)
	}
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte{0, 0, 1, 1, 0, 0, 0, 0}))
	if _, _, err := dec.Next(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestDecoderRejectsBadVersion(t *testing.T) {
	for _, v := range []byte{0, MinVersion - 1, MaxVersion + 1, 99} {
		dec := NewDecoder(bytes.NewReader([]byte{magic0, magic1, v, 1, 0, 0, 0, 0}))
		if _, _, err := dec.Next(); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("v%d: want ErrBadVersion, got %v", v, err)
		}
	}
}

func TestDecoderRejectsOversizedFrame(t *testing.T) {
	hdr := []byte{magic0, magic1, MaxVersion, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	dec := NewDecoder(bytes.NewReader(hdr))
	if _, _, err := dec.Next(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig, got %v", err)
	}
}

// loopReader replays one byte stream forever without allocating.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// TestDecoderNextAllocs pins the read pump's per-frame cost: once the body
// buffer has grown to the frame size, Next allocates nothing — the header
// scratch lives in the Decoder, not on a heap-escaping stack slot.
func TestDecoderNextAllocs(t *testing.T) {
	var stream bytes.Buffer
	enc := NewEncoder(&stream)
	enc.BeginBatch()
	if err := enc.BatchAdd(FrameCall, callBody(sampleCall)); err != nil {
		t.Fatal(err)
	}
	if err := enc.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&loopReader{data: stream.Bytes()})
	next := func() {
		if ft, _, err := dec.Next(); err != nil || ft != FrameCall {
			t.Fatalf("Next = %v, %v", ft, err)
		}
	}
	next() // grows the body buffer
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Fatalf("Decoder.Next allocates %.1f/frame in steady state, want 0", allocs)
	}
}

func TestTruncatedBodies(t *testing.T) {
	if _, _, err := ReadString([]byte{5, 'a'}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("string: want ErrTruncated, got %v", err)
	}
	if _, err := ParseCall([]byte{}, MaxVersion); !errors.Is(err, ErrTruncated) {
		t.Fatalf("call: want ErrTruncated, got %v", err)
	}
	if err := Parse([]byte{1, 0}, &Migrate{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("migrate: want ErrTruncated, got %v", err)
	}
	// A migrate body claiming more property entries than bytes remaining
	// must not pre-size a huge map.
	if err := Parse([]byte{1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, &Migrate{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("migrate property bomb: want ErrTruncated, got %v", err)
	}
	// A slice claiming more elements than bytes remaining must not
	// over-allocate or loop.
	if _, _, err := ReadValue([]byte{tSlice, 0xFF, 0xFF, 0x01}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("slice bomb: want ErrTruncated, got %v", err)
	}
}

func BenchmarkEncodeCall(b *testing.B) {
	enc := NewEncoder(noopWriter{})
	call := Call{Corr: 1, Component: "Store", Op: "get", Principal: "", Args: []any{"key-0001", 42}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call.Corr = uint64(i)
		enc.BeginBatch()
		if err := enc.BatchAdd(FrameCall, callBody(call)); err != nil {
			b.Fatal(err)
		}
		if err := enc.FlushBatch(); err != nil {
			b.Fatal(err)
		}
	}
}

type noopWriter struct{}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestStreamFramesRoundTrip covers the four stream frames alone and as batch
// sub-frames — the coalescing path a flowing stream actually uses.
func TestStreamFramesRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	open, chunk, credit, end := sampleOpen, sampleChunk, sampleCredit, sampleEnd

	sendAlone(t, enc, FrameStreamOpen, bodyOf(&open))
	if got := parsed[StreamOpen](t, next(t, dec, FrameStreamOpen)); !reflect.DeepEqual(got, open) {
		t.Fatalf("open: %#v", got)
	}
	sendAlone(t, enc, FrameStreamChunk, bodyOf(&chunk))
	if got := parsed[StreamChunk](t, next(t, dec, FrameStreamChunk)); got != chunk {
		t.Fatalf("chunk: %#v", got)
	}
	sendAlone(t, enc, FrameStreamCredit, bodyOf(&credit))
	if got := parsed[StreamCredit](t, next(t, dec, FrameStreamCredit)); got != credit {
		t.Fatalf("credit: %#v", got)
	}
	sendAlone(t, enc, FrameStreamEnd, bodyOf(&end))
	if got := parsed[StreamEnd](t, next(t, dec, FrameStreamEnd)); got != end {
		t.Fatalf("end: %#v", got)
	}

	// All four coalesce as batch sub-frames alongside a reply.
	enc.BeginBatch()
	for _, sub := range []struct {
		t    FrameType
		body func([]byte) ([]byte, error)
	}{
		{FrameStreamOpen, bodyOf(&open)},
		{FrameStreamChunk, bodyOf(&chunk)},
		{FrameReply, replyBody(Reply{Corr: 9, Results: []any{"r"}})},
		{FrameStreamCredit, bodyOf(&credit)},
		{FrameStreamEnd, bodyOf(&end)},
	} {
		if err := enc.BatchAdd(sub.t, sub.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	body := next(t, dec, FrameBatch)
	wantSubs := []FrameType{FrameStreamOpen, FrameStreamChunk, FrameReply, FrameStreamCredit, FrameStreamEnd}
	for i, want := range wantSubs {
		st, sb, rest, err := ReadBatchFrame(body)
		if err != nil || st != want {
			t.Fatalf("sub %d: %v %v", i, st, err)
		}
		switch st {
		case FrameStreamChunk:
			if got := parsed[StreamChunk](t, sb); got != chunk {
				t.Fatalf("batched chunk: %#v", got)
			}
		case FrameStreamEnd:
			if got := parsed[StreamEnd](t, sb); got != end {
				t.Fatalf("batched end: %#v", got)
			}
		}
		body = rest
	}
	if len(body) != 0 {
		t.Fatalf("%d trailing bytes", len(body))
	}

	// Truncated bodies are rejected, not crashed on.
	for _, b := range []Body{&StreamOpen{}, &StreamChunk{}, &StreamCredit{}, &StreamEnd{}} {
		if err := Parse(nil, b); !errors.Is(err, ErrTruncated) {
			t.Fatalf("empty %T body: %v", b, err)
		}
	}
}

func TestGossipRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	g := sampleGossip
	if err := enc.Encode(FrameGossip, &g); err != nil {
		t.Fatal(err)
	}
	body := next(t, dec, FrameGossip)
	if got := parsed[Gossip](t, body); !reflect.DeepEqual(got, g) {
		t.Fatalf("gossip round trip: %#v", got)
	}
	if err := Parse(body[:len(body)-3], &Gossip{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated gossip: %v", err)
	}
	if err := Parse(nil, &Gossip{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty gossip: %v", err)
	}
}

// TestCountBombs feeds every counted list of the codec a count one above the
// bound its entries' smallest encoding sets: the bytes left divided by that
// size. An entry is several times larger in memory than its smallest
// encoding, so sizing a list from such a count would reserve ~100x the frame
// (gigabytes at MaxFrame) before the first entry failed to read; the parser
// must reject the count itself and allocate next to nothing. At the bound, a
// list of smallest entries that ends the body parses.
func TestCountBombs(t *testing.T) {
	const size = 1 << 20
	member := AppendString(AppendString(nil, "n1"), "")
	member = append(member, 1, 1, GossipAlive)
	member = append(member, make([]byte, 8)...) // load
	for _, c := range []struct {
		name    string
		body    Body
		prefix  []byte // the body before the count
		minSize int
		ends    bool // whether the list is the end of the body
	}{
		{"hello components", &Hello{}, AppendString(AppendString(nil, "n1"), "S"), 1, true},
		{"migrate properties", &Migrate{}, AppendString(AppendString([]byte{1}, "C"), "KV"), 2, false},
		{"gossip members", &Gossip{}, nil, minGossipMember, true},
		{"gossip components", &Gossip{}, append([]byte{1}, member...), minGossipComp, true},
	} {
		// count entries' worth of zero bytes: an entry of smallest encoding
		// is all zeros.
		frame := func(count int) []byte {
			b := binary.AppendUvarint(bytes.Clone(c.prefix), uint64(count))
			return append(b, make([]byte, size)...)
		}
		bomb := frame(size/c.minSize + 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Parse(bomb, c.body)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s bomb: want ErrTruncated, got %v", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > size {
			t.Fatalf("%s bomb: parsing a %d-byte frame allocated %d bytes", c.name, len(bomb), grew)
		}
		if err := Parse(frame(size/c.minSize), c.body); c.ends && err != nil {
			t.Fatalf("%s at the bound: %v", c.name, err)
		}
	}
}

func TestReplicateRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	rep, ack := sampleReplicate, sampleReplicateAck
	sendAlone(t, enc, FrameReplicate, bodyOf(&rep))
	sendAlone(t, enc, FrameReplicateAck, bodyOf(&ack))
	enc.BeginBatch()
	if err := enc.BatchAdd(FrameReplicate, bodyOf(&rep)); err != nil {
		t.Fatal(err)
	}
	if err := enc.BatchAdd(FrameReplicateAck, bodyOf(&ack)); err != nil {
		t.Fatal(err)
	}
	if err := enc.FlushBatch(); err != nil {
		t.Fatal(err)
	}

	if got := parsed[Replicate](t, next(t, dec, FrameReplicate)); !reflect.DeepEqual(got, rep) {
		t.Fatalf("replicate: %#v", got)
	}
	if got := parsed[ReplicateAck](t, next(t, dec, FrameReplicateAck)); got != ack {
		t.Fatalf("ack: %#v", got)
	}
	st, sb, rest, err := ReadBatchFrame(next(t, dec, FrameBatch))
	if err != nil || st != FrameReplicate {
		t.Fatalf("sub 1: %v %v", st, err)
	}
	if got := parsed[Replicate](t, sb); !reflect.DeepEqual(got, rep) {
		t.Fatalf("batched replicate: %#v", got)
	}
	st, sb, rest, err = ReadBatchFrame(rest)
	if err != nil || st != FrameReplicateAck {
		t.Fatalf("sub 2: %v %v", st, err)
	}
	if got := parsed[ReplicateAck](t, sb); got != ack {
		t.Fatalf("batched ack: %#v", got)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	for _, b := range []Body{&Replicate{}, &ReplicateAck{}} {
		if err := Parse(nil, b); !errors.Is(err, ErrTruncated) {
			t.Fatalf("empty %T body: %v", b, err)
		}
	}
}

func TestHelloAddrTrailer(t *testing.T) {
	h := Hello{Node: "n1", System: "S", MaxVersion: MaxVersion, Addr: "10.0.0.1:7000"}
	body, err := Append(nil, &h)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed[Hello](t, body); got.Addr != h.Addr || got.MaxVersion != MaxVersion {
		t.Fatalf("addr trailer: %#v", got)
	}
	// Fields a newer build appends after Addr are ignored, not an error.
	if got := parsed[Hello](t, append(body, 1, 2, 3)); got.Addr != h.Addr {
		t.Fatalf("hello with newer trailing fields: %#v", got)
	}
	// A body that stops at the MaxVersion uvarint still parses, with an
	// empty Addr — also into a Hello that held one: an absent tail reads as
	// zero.
	short := AppendString(nil, "n1")
	short = AppendString(short, "S")
	short = append(short, 0) // zero components
	short = append(short, MaxVersion)
	got := h
	if err := Parse(short, &got); err != nil || got.Addr != "" || got.MaxVersion != MaxVersion {
		t.Fatalf("addr-less hello: %#v %v", got, err)
	}
	// A tail cut inside a field is truncated, not absent.
	if err := Parse(append(short[:len(short)-1], 0x80), &got); !errors.Is(err, ErrTruncated) {
		t.Fatalf("hello cut inside MaxVersion: %v", err)
	}
}

// TestBodyAllocs pins what routing every body through walk's exhaustive
// switch buys: appending any of the twelve bodies into a warm buffer
// allocates nothing, and neither does parsing a body of fixed-size fields.
// Through an interface call, the body and the codec would each move to the
// heap on every call.
func TestBodyAllocs(t *testing.T) {
	open, chunk, gossip, migrate := sampleOpen, sampleChunk, sampleGossip, sampleMigrate
	bodies := []Body{&sampleHello, &sampleCancel, &open, &chunk, &sampleCredit, &sampleEnd, &migrate,
		&sampleMigrateAck, &sampleAnnounce, &gossip, &sampleReplicate, &sampleReplicateAck}
	if len(bodies) != 12 {
		t.Fatalf("%d bodies, want all twelve", len(bodies))
	}
	buf := make([]byte, 0, 4096)
	for _, b := range bodies {
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := Append(buf[:0], b); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("Append(%T) allocates %.1f/op, want 0", b, allocs)
		}
	}
	cancel, _ := Append(nil, &sampleCancel)
	credit, _ := Append(nil, &sampleCredit)
	for name, parse := range map[string]func(){
		"Cancel":       func() { var c Cancel; _ = Parse(cancel, &c) },
		"StreamCredit": func() { var c StreamCredit; _ = Parse(credit, &c) },
	} {
		if allocs := testing.AllocsPerRun(1000, parse); allocs != 0 {
			t.Fatalf("Parse(%s) allocates %.1f/op, want 0", name, allocs)
		}
	}
}
