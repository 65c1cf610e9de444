package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// Fuzz targets for every parser that reads bytes off a peer link. Each
// checks the same three properties on arbitrary input:
//
//   - the parser never panics;
//   - it never allocates more than allocFactor times the input plus a small
//     constant — counts read off the wire must not size anything the input
//     could not pay for;
//   - an input it accepts survives a round trip: Parse(Append(x)) == x.
//
// Corpora are seeded from the frames the round-trip tests ship. CI runs each
// target for a few seconds; `go test -fuzz '^FuzzParseGossip$' ./internal/wire`
// runs one for as long as you like.

// allocFactor is the worst in-memory to encoded ratio of anything the codec
// decodes: a map entry of two empty strings (two bytes on the wire) costs a
// few dozen bytes of buckets. allocSlack covers the fixed costs: a decoder's
// read buffer and the first chunk of a frame body.
const (
	allocFactor = 64
	allocSlack  = 16 << 10
)

// allocBounded runs parse on data and fails when it allocates more than the
// bound allows. The counter is process-wide and the fuzz engine's own
// goroutines allocate now and then, so a reading over the limit is taken
// again: parse is deterministic, the noise is not, and the smallest of a few
// readings is parse's own.
func allocBounded(t *testing.T, data []byte, parse func()) {
	t.Helper()
	limit := uint64(allocFactor*len(data) + allocSlack)
	var grew uint64
	for attempt := 0; attempt < 5; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parse()
		runtime.ReadMemStats(&after)
		if grew = after.TotalAlloc - before.TotalAlloc; grew <= limit {
			return
		}
	}
	t.Fatalf("parsing %d bytes allocated %d bytes (limit %d): %x", len(data), grew, limit, data)
}

// sameValue compares two decoded frames. DeepEqual does it except when a
// float field holds a NaN, which the codec ships bit for bit but which is
// unequal to itself; the printed form (maps sorted, NaN as NaN) covers that.
func sameValue(a, b any) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// fuzzParser is the body of every Parse* target.
func fuzzParser[T any](f *testing.F, parse func([]byte) (T, error), encode func(T) ([]byte, error), seeds ...T) {
	for _, seed := range seeds {
		b, err := encode(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			got T
			err error
		)
		allocBounded(t, data, func() { got, err = parse(data) })
		if err != nil {
			return
		}
		again, err := encode(got)
		if err != nil {
			t.Fatalf("accepted %x but cannot re-encode %#v: %v", data, got, err)
		}
		back, err := parse(again)
		if err != nil || !sameValue(got, back) {
			t.Fatalf("round trip of %x: %#v became %#v (%v)", data, got, back, err)
		}
	})
}

// fuzzBody is fuzzParser for a Body: Parse and Append through a *T.
func fuzzBody[T any, P interface {
	*T
	Body
}](f *testing.F, seeds ...T) {
	fuzzParser(f,
		func(b []byte) (T, error) {
			var v T
			err := Parse(b, P(&v))
			return v, err
		},
		func(v T) ([]byte, error) { return Append(nil, P(&v)) },
		seeds...)
}

func FuzzParseHello(f *testing.F) {
	fuzzBody(f, sampleHello, Hello{Node: "n", System: "S"})
}

// deepSeed is the shape TestValueDepthBound pins, small: a value list nested
// far past MaxDepth, which unbounded recursion would follow to the end.
var deepSeed = nestedList(1024)

func FuzzParseCall(f *testing.F) {
	f.Add(callWithArgs(deepSeed))
	fuzzParser(f,
		func(b []byte) (Call, error) { return ParseCall(b, MaxVersion) },
		func(c Call) ([]byte, error) { return AppendCall(nil, c, MaxVersion) },
		sampleCall, Call{Corr: 1, Component: "C", Op: "op", Args: []any{nil, true, int64(-1), uint64(1), 2.5,
			[]byte{1}, sampleCall.DeadlineNanos, []any{"nested", []any{}}}},
		// The optional response-tag byte after the trailer: a scalar's tag, and
		// one that names no scalar.
		Call{Corr: 2, Component: "C", Op: "get", Args: []any{"k"}, RespTag: tString},
		Call{Corr: 3, Component: "C", Op: "get", Args: []any{"k"}, RespTag: 0xFF})
}

func FuzzParseReply(f *testing.F) {
	f.Add(replyWithResults(deepSeed))
	fuzzParser(f,
		func(b []byte) (Reply, error) { return ParseReply(b, MaxVersion) },
		func(r Reply) ([]byte, error) { return AppendReply(nil, r, MaxVersion) },
		sampleReply, Reply{Corr: 9, Err: "core: deadline exceeded", Kind: KindDeadline})
}

// FuzzSkipValues is differential: the validating walker accepts exactly the
// value lists ReadValues accepts, consumes the same length, and allocates
// nothing to do it. That agreement is what lets a read pump validate a block
// with the one and a serve worker decode it later with the other.
func FuzzSkipValues(f *testing.F) {
	for _, args := range [][]any{nil, sampleCall.Args, {nil, true, int64(-1), uint64(1), 2.5, []byte{1},
		sampleCall.DeadlineNanos, []any{"nested", []any{}}}} {
		b, err := AppendValues(nil, args)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(deepSeed)
	f.Add(nestedList(MaxDepth))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			rest []byte
			err  error
		)
		// The allocation counter is process-wide and the fuzz engine allocates
		// now and then: a nonzero reading is taken again, as in allocBounded.
		allocs := 1.0
		for attempt := 0; attempt < 5 && allocs != 0; attempt++ {
			allocs = testing.AllocsPerRun(1, func() { rest, err = SkipValues(data) })
		}
		if allocs != 0 && err == nil {
			t.Fatalf("SkipValues allocated %.0f times on %x", allocs, data)
		}
		_, want, werr := ReadValues(data)
		for _, class := range []error{nil, ErrTruncated, ErrTooDeep, ErrUnsupportedType} {
			if errors.Is(err, class) != errors.Is(werr, class) {
				t.Fatalf("SkipValues says %v, ReadValues says %v on %x", err, werr, data)
			}
		}
		if err == nil && len(rest) != len(want) {
			t.Fatalf("SkipValues left %d bytes, ReadValues %d on %x", len(rest), len(want), data)
		}
	})
}

func FuzzParseCancel(f *testing.F) {
	fuzzBody(f, sampleCancel)
}

func FuzzParseStreamOpen(f *testing.F) {
	fuzzBody(f, sampleOpen)
}

func FuzzParseStreamChunk(f *testing.F) {
	fuzzBody(f, sampleChunk, StreamChunk{Corr: 1, Seq: 1, Item: []any{1, "two"}})
}

func FuzzParseStreamCredit(f *testing.F) {
	fuzzBody(f, sampleCredit)
}

func FuzzParseStreamEnd(f *testing.F) {
	fuzzBody(f, sampleEnd, StreamEnd{Corr: 41})
}

func FuzzParseMigrate(f *testing.F) {
	fuzzBody(f, sampleMigrate, Migrate{Component: "C"})
}

func FuzzParseMigrateAck(f *testing.F) {
	fuzzBody(f, sampleMigrateAck)
}

func FuzzParseAnnounce(f *testing.F) {
	fuzzBody(f, sampleAnnounce)
}

func FuzzParseGossip(f *testing.F) {
	// The shape TestCountBombs pins, small: a count claiming every remaining
	// byte as a member.
	f.Add(append(binary.AppendUvarint(nil, 4096), make([]byte, 4096)...))
	fuzzBody(f, sampleGossip, Gossip{})
}

func FuzzParseReplicate(f *testing.F) {
	fuzzBody(f, sampleReplicate)
}

func FuzzParseReplicateAck(f *testing.F) {
	fuzzBody(f, sampleReplicateAck)
}

// FuzzReadBatchFrame walks an arbitrary FrameBatch body: the sub-frames it
// yields must tile the input exactly, aliasing it rather than copying.
func FuzzReadBatchFrame(f *testing.F) {
	enc := NewEncoder(io.Discard)
	enc.BeginBatch()
	_ = enc.BatchAdd(FrameCall, callBody(sampleCall))
	_ = enc.BatchAdd(FrameReply, replyBody(sampleReply))
	_ = enc.BatchAdd(FrameCancel, bodyOf(&sampleCancel))
	f.Add(bytes.Clone(enc.batch[headerSize:]))
	f.Add([]byte{byte(FrameCall), 0, 0, 0, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		allocBounded(t, data, func() {
			consumed := 0
			for rest := data; len(rest) > 0; {
				_, sub, next, err := ReadBatchFrame(rest)
				if err != nil {
					return
				}
				consumed += subHeaderSize + len(sub)
				if len(next) != len(rest)-subHeaderSize-len(sub) {
					t.Fatalf("sub-frame of %d bytes left %d of %d", len(sub), len(next), len(rest))
				}
				rest = next
			}
			if consumed != len(data) {
				t.Fatalf("sub-frames cover %d of %d bytes", consumed, len(data))
			}
		})
	})
}

// FuzzDecoderNext feeds an arbitrary byte stream to the frame reader: a body
// it yields is no longer than the stream, and a header's length claim alone
// must not make it allocate.
func FuzzDecoderNext(f *testing.F) {
	var stream bytes.Buffer
	enc := NewEncoder(&stream)
	_ = enc.Encode(FrameHello, &sampleHello)
	_ = enc.Encode(FrameGossip, &sampleGossip)
	enc.BeginBatch()
	_ = enc.BatchAdd(FrameCall, callBody(sampleCall))
	_ = enc.BatchAdd(FrameReply, replyBody(sampleReply))
	_ = enc.FlushBatch()
	f.Add(stream.Bytes())
	f.Add([]byte{magic0, magic1, MaxVersion, byte(FrameMigrate), 0x03, 0xFF, 0xFF, 0xFF}) // 64 MiB claimed, none sent
	f.Fuzz(func(t *testing.T, data []byte) {
		allocBounded(t, data, func() {
			dec := NewDecoder(bytes.NewReader(data))
			for {
				_, body, err := dec.Next()
				if err != nil {
					return
				}
				if len(body) > len(data)-headerSize {
					t.Fatalf("body of %d bytes from a %d-byte stream", len(body), len(data))
				}
			}
		})
	})
}
