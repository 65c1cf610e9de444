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

func plainBody[T any](appendT func([]byte, T) []byte, v T) func([]byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) { return appendT(dst, v), nil }
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

	if err := enc.EncodeHello(FrameHello, sampleHello); err != nil {
		t.Fatal(err)
	}
	enc.SetVersion(MaxVersion)
	sendAlone(t, enc, FrameCall, callBody(sampleCall))
	sendAlone(t, enc, FrameReply, replyBody(sampleReply))
	if err := enc.EncodeMigrate(sampleMigrate); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeMigrateAck(sampleMigrateAck); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeAnnounce(sampleAnnounce); err != nil {
		t.Fatal(err)
	}

	// The handshake frame carries the handshake stamp, later frames the
	// negotiated version.
	if got := conn.Bytes()[2]; got != MinVersion {
		t.Fatalf("hello stamped v%d, want MinVersion", got)
	}
	gotHello, err := ParseHello(next(t, dec, FrameHello))
	if err != nil || !reflect.DeepEqual(gotHello, sampleHello) {
		t.Fatalf("hello: %#v %v", gotHello, err)
	}
	gotCall, err := ParseCall(next(t, dec, FrameCall), MaxVersion)
	if err != nil || !reflect.DeepEqual(gotCall, sampleCall) {
		t.Fatalf("call: %#v %v", gotCall, err)
	}
	gotReply, err := ParseReply(next(t, dec, FrameReply), MaxVersion)
	if err != nil || !reflect.DeepEqual(gotReply, sampleReply) {
		t.Fatalf("reply: %#v %v", gotReply, err)
	}
	gotMig, err := ParseMigrate(next(t, dec, FrameMigrate))
	if err != nil || !reflect.DeepEqual(gotMig, sampleMigrate) {
		t.Fatalf("migrate: %#v %v", gotMig, err)
	}
	gotAck, err := ParseMigrateAck(next(t, dec, FrameMigrateAck))
	if err != nil || gotAck != sampleMigrateAck {
		t.Fatalf("ack: %#v %v", gotAck, err)
	}
	gotAnn, err := ParseAnnounce(next(t, dec, FrameAnnounce))
	if err != nil || gotAnn != sampleAnnounce {
		t.Fatalf("announce: %#v %v", gotAnn, err)
	}
}

func TestHelloVersionNegotiation(t *testing.T) {
	// The offer rides the hello unclamped — a newer build's offer above this
	// build's MaxVersion must reach the negotiation as sent.
	buf := AppendHello(nil, Hello{Node: "n1", System: "S", MaxVersion: MaxVersion + 1})
	h, err := ParseHello(buf)
	if err != nil || h.MaxVersion != MaxVersion+1 {
		t.Fatalf("newer hello: MaxVersion=%d err=%v", h.MaxVersion, err)
	}
	// A hello that ends before the offer parses as offering nothing: the
	// parser accepts it and the negotiation refuses it.
	bare := AppendString(nil, "n1")
	bare = AppendString(bare, "S")
	bare = append(bare, 0) // zero components
	h, err = ParseHello(bare)
	if err != nil || h.MaxVersion != 0 {
		t.Fatalf("bare hello: MaxVersion=%d err=%v", h.MaxVersion, err)
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
	enc.SetVersion(MaxVersion)
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
	sendAlone(t, enc, FrameCancel, plainBody(AppendCancel, want))
	got, err := ParseCancel(next(t, dec, FrameCancel))
	if err != nil || got != want {
		t.Fatalf("cancel: %#v %v", got, err)
	}

	// Batched sub-frame, coalescing with a call.
	enc.BeginBatch()
	if err := enc.BatchAdd(FrameCall, callBody(Call{Corr: 1, Component: "C", Op: "op"})); err != nil {
		t.Fatal(err)
	}
	if err := enc.BatchAdd(FrameCancel, plainBody(AppendCancel, want)); err != nil {
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
	if got, err := ParseCancel(sb); err != nil || got != want {
		t.Fatalf("batched cancel: %#v %v", got, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	// Truncation is rejected.
	if _, err := ParseCancel(nil); !errors.Is(err, ErrTruncated) {
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
	enc.SetVersion(MaxVersion)
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
	if _, err := ParseMigrate([]byte{1, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("migrate: want ErrTruncated, got %v", err)
	}
	// A migrate body claiming more property entries than bytes remaining
	// must not pre-size a huge map.
	if _, err := ParseMigrate([]byte{1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); !errors.Is(err, ErrTruncated) {
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
	openBody := func(dst []byte) ([]byte, error) { return AppendStreamOpen(dst, open, MaxVersion) }
	chunkBody := func(dst []byte) ([]byte, error) { return AppendStreamChunk(dst, chunk) }

	sendAlone(t, enc, FrameStreamOpen, openBody)
	gotOpen, err := ParseStreamOpen(next(t, dec, FrameStreamOpen), MaxVersion)
	if err != nil || !reflect.DeepEqual(gotOpen, open) {
		t.Fatalf("open: %#v %v", gotOpen, err)
	}
	sendAlone(t, enc, FrameStreamChunk, chunkBody)
	if got, err := ParseStreamChunk(next(t, dec, FrameStreamChunk)); err != nil || got != chunk {
		t.Fatalf("chunk: %#v %v", got, err)
	}
	sendAlone(t, enc, FrameStreamCredit, plainBody(AppendStreamCredit, credit))
	if got, err := ParseStreamCredit(next(t, dec, FrameStreamCredit)); err != nil || got != credit {
		t.Fatalf("credit: %#v %v", got, err)
	}
	sendAlone(t, enc, FrameStreamEnd, plainBody(AppendStreamEnd, end))
	if got, err := ParseStreamEnd(next(t, dec, FrameStreamEnd)); err != nil || got != end {
		t.Fatalf("end: %#v %v", got, err)
	}

	// All four coalesce as batch sub-frames alongside a reply.
	enc.BeginBatch()
	for _, sub := range []struct {
		t    FrameType
		body func([]byte) ([]byte, error)
	}{
		{FrameStreamOpen, openBody},
		{FrameStreamChunk, chunkBody},
		{FrameReply, replyBody(Reply{Corr: 9, Results: []any{"r"}})},
		{FrameStreamCredit, plainBody(AppendStreamCredit, credit)},
		{FrameStreamEnd, plainBody(AppendStreamEnd, end)},
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
			if got, err := ParseStreamChunk(sb); err != nil || got != chunk {
				t.Fatalf("batched chunk: %#v %v", got, err)
			}
		case FrameStreamEnd:
			if got, err := ParseStreamEnd(sb); err != nil || got != end {
				t.Fatalf("batched end: %#v %v", got, err)
			}
		}
		body = rest
	}
	if len(body) != 0 {
		t.Fatalf("%d trailing bytes", len(body))
	}

	// Truncated bodies are rejected, not crashed on.
	for _, parse := range []func([]byte) error{
		func(b []byte) error { _, err := ParseStreamOpen(b, MaxVersion); return err },
		func(b []byte) error { _, err := ParseStreamChunk(b); return err },
		func(b []byte) error { _, err := ParseStreamCredit(b); return err },
		func(b []byte) error { _, err := ParseStreamEnd(b); return err },
	} {
		if err := parse(nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("empty body: %v", err)
		}
	}
}

func TestGossipRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	g := sampleGossip
	if err := enc.EncodeGossip(g); err != nil {
		t.Fatal(err)
	}
	body := next(t, dec, FrameGossip)
	got, err := ParseGossip(body)
	if err != nil || !reflect.DeepEqual(got, g) {
		t.Fatalf("gossip round trip: %#v %v", got, err)
	}
	if _, err := ParseGossip(body[:len(body)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated gossip: %v", err)
	}
	if _, err := ParseGossip(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty gossip: %v", err)
	}
}

// TestParseGossipCountBomb feeds ParseGossip frames whose member and
// component counts claim as many entries as there are bytes left. An entry
// is several times larger in memory than its smallest encoding, so sizing
// the slices from such a count would reserve ~100x the frame (gigabytes at
// MaxFrame) before the first field read failed; the parser must reject the
// count itself and allocate next to nothing.
func TestParseGossipCountBomb(t *testing.T) {
	const size = 1 << 20
	members := binary.AppendUvarint(nil, size)
	members = append(members, make([]byte, size)...)

	// One well-formed member header, then a component count bomb.
	comps := []byte{1}
	comps = AppendString(comps, "n1")
	comps = AppendString(comps, "")
	comps = append(comps, 1, 1, GossipAlive)
	comps = append(comps, make([]byte, 8)...) // load
	comps = append(comps, binary.AppendUvarint(nil, size)...)
	comps = append(comps, make([]byte, size)...)

	for name, frame := range map[string][]byte{"members": members, "components": comps} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseGossip(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s bomb: want ErrTruncated, got %v", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > size {
			t.Fatalf("%s bomb: parsing a %d-byte frame allocated %d bytes", name, len(frame), grew)
		}
	}
}

func TestReplicateRoundTrip(t *testing.T) {
	var conn bytes.Buffer
	enc := NewEncoder(&conn)
	dec := NewDecoder(&conn)

	rep, ack := sampleReplicate, sampleReplicateAck
	sendAlone(t, enc, FrameReplicate, plainBody(AppendReplicate, rep))
	sendAlone(t, enc, FrameReplicateAck, plainBody(AppendReplicateAck, ack))
	enc.BeginBatch()
	if err := enc.BatchAdd(FrameReplicate, plainBody(AppendReplicate, rep)); err != nil {
		t.Fatal(err)
	}
	if err := enc.BatchAdd(FrameReplicateAck, plainBody(AppendReplicateAck, ack)); err != nil {
		t.Fatal(err)
	}
	if err := enc.FlushBatch(); err != nil {
		t.Fatal(err)
	}

	if got, err := ParseReplicate(next(t, dec, FrameReplicate)); err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("replicate: %#v %v", got, err)
	}
	if got, err := ParseReplicateAck(next(t, dec, FrameReplicateAck)); err != nil || got != ack {
		t.Fatalf("ack: %#v %v", got, err)
	}
	st, sb, rest, err := ReadBatchFrame(next(t, dec, FrameBatch))
	if err != nil || st != FrameReplicate {
		t.Fatalf("sub 1: %v %v", st, err)
	}
	if got, err := ParseReplicate(sb); err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("batched replicate: %#v %v", got, err)
	}
	st, sb, rest, err = ReadBatchFrame(rest)
	if err != nil || st != FrameReplicateAck {
		t.Fatalf("sub 2: %v %v", st, err)
	}
	if got, err := ParseReplicateAck(sb); err != nil || got != ack {
		t.Fatalf("batched ack: %#v %v", got, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	for _, parse := range []func([]byte) error{
		func(b []byte) error { _, err := ParseReplicate(b); return err },
		func(b []byte) error { _, err := ParseReplicateAck(b); return err },
	} {
		if err := parse(nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("empty body: %v", err)
		}
	}
}

func TestHelloAddrTrailer(t *testing.T) {
	h := Hello{Node: "n1", System: "S", MaxVersion: MaxVersion, Addr: "10.0.0.1:7000"}
	body := AppendHello(nil, h)
	got, err := ParseHello(body)
	if err != nil || got.Addr != h.Addr || got.MaxVersion != MaxVersion {
		t.Fatalf("addr trailer: %#v %v", got, err)
	}
	// Fields a newer build appends after Addr are ignored, not an error.
	if got, err := ParseHello(append(body, 1, 2, 3)); err != nil || got.Addr != h.Addr {
		t.Fatalf("hello with newer trailing fields: %#v %v", got, err)
	}
	// A body that stops at the MaxVersion uvarint still parses, with an
	// empty Addr.
	short := AppendString(nil, "n1")
	short = AppendString(short, "S")
	short = append(short, 0) // zero components
	short = append(short, MaxVersion)
	got, err = ParseHello(short)
	if err != nil || got.Addr != "" || got.MaxVersion != MaxVersion {
		t.Fatalf("addr-less hello: %#v %v", got, err)
	}
}
