package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
)

// nestedList is a value list of one element: levels one-element slices inside
// one another around a nil — two bytes a level, the cheapest way to make a
// decoder recurse.
func nestedList(levels int) []byte {
	b := make([]byte, 0, 2+2*levels)
	b = append(b, 1)
	for i := 0; i < levels; i++ {
		b = append(b, tSlice, 1)
	}
	return append(b, tNil)
}

// nestedValue is the value nestedList(levels) encodes.
func nestedValue(levels int) any {
	var v any
	for i := 0; i < levels; i++ {
		v = []any{v}
	}
	return v
}

// callWithArgs is a call body whose argument list is the given block.
func callWithArgs(raw []byte) []byte {
	b, _ := AppendCall(nil, Call{Corr: 1, Component: "C", Op: "op", RawArgs: raw}, MaxVersion)
	return b
}

// replyWithResults is a reply body whose result list is the given block.
func replyWithResults(raw []byte) []byte {
	b, _ := AppendReply(nil, Reply{Corr: 1, RawResults: raw}, MaxVersion)
	return b
}

// TestValueDepthBound: []any values nest MaxDepth deep and no deeper, in both
// directions and in both walkers, so nothing encodable is undecodable — and a
// body built to recurse a million levels comes back as the error. (Unbounded,
// it is a stack overflow: fatal to the process, not a panic.)
func TestValueDepthBound(t *testing.T) {
	atBound, err := AppendValues(nil, []any{nestedValue(MaxDepth)})
	if err != nil {
		t.Fatalf("encode at the bound: %v", err)
	}
	if !bytes.Equal(atBound, nestedList(MaxDepth)) {
		t.Fatalf("encoding at the bound is %x", atBound)
	}
	got, rest, err := ReadValues(atBound)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, []any{nestedValue(MaxDepth)}) {
		t.Fatalf("decode at the bound: %v, %d bytes left, %v", got, len(rest), err)
	}
	if rest, err := SkipValues(atBound); err != nil || len(rest) != 0 {
		t.Fatalf("skip at the bound: %d bytes left, %v", len(rest), err)
	}

	if _, err := AppendValues(nil, []any{nestedValue(MaxDepth + 1)}); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("encode past the bound: %v", err)
	}
	for _, levels := range []int{MaxDepth + 1, 1 << 20} {
		body := nestedList(levels)
		if _, _, err := ReadValues(body); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("decode %d levels: %v", levels, err)
		}
		if _, err := SkipValues(body); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("skip %d levels: %v", levels, err)
		}
		if _, err := ParseCall(callWithArgs(body), MaxVersion); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("call with %d levels: %v", levels, err)
		}
		if _, err := ParseCallRaw(callWithArgs(body)); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("raw call with %d levels: %v", levels, err)
		}
		if _, err := ParseReply(replyWithResults(body), MaxVersion); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("reply with %d levels: %v", levels, err)
		}
		if _, err := ParseReplyRaw(replyWithResults(body)); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("raw reply with %d levels: %v", levels, err)
		}
		open, _ := Append(nil, &StreamOpen{Corr: 1, Component: "C", Op: "op", Window: 1, RawArgs: body})
		if err := Parse(open, &StreamOpen{}); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("stream open with %d levels: %v", levels, err)
		}
		chunk := append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), body[1:]...)
		if err := Parse(chunk, &StreamChunk{}); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("stream chunk with %d levels: %v", levels, err)
		}
	}
}

// TestSkipValuesAllocs pins the validating walker at zero allocations on a
// list of every value kind.
func TestSkipValuesAllocs(t *testing.T) {
	raw, err := AppendValues(nil, []any{nil, true, 1, int64(-2), uint64(3), 4.5, "six", []byte{7},
		8 * time.Second, []any{"nested", []any{9}}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if rest, err := SkipValues(raw); err != nil || len(rest) != 0 {
			t.Fatalf("skip: %d left, %v", len(rest), err)
		}
	}); allocs != 0 {
		t.Fatalf("SkipValues allocates %.1f/op, want 0", allocs)
	}
}

// TestRawParsesMatchEager: the raw parses read the header the eager ones
// read, leave the value block exactly where ReadValues would find it, and
// allocate nothing for a call (nor for a reply that carries no error text).
func TestRawParsesMatchEager(t *testing.T) {
	body, err := AppendCall(nil, sampleCall, MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ParseCallRaw(body)
	if err != nil {
		t.Fatal(err)
	}
	args, rest, err := ReadValues(rc.RawArgs)
	if err != nil || len(rest) != 0 {
		t.Fatalf("raw args: %v, %d left", err, len(rest))
	}
	got := Call{Corr: rc.Corr, Component: string(rc.Component), Op: string(rc.Op), Principal: string(rc.Principal),
		DeadlineNanos: rc.DeadlineNanos, Args: args, Trace: rc.Trace, Span: rc.Span, RespTag: rc.RespTag}
	if !reflect.DeepEqual(got, sampleCall) {
		t.Fatalf("raw call %+v, want %+v", got, sampleCall)
	}
	tagged := sampleCall
	tagged.RespTag = tString
	body, err = AppendCall(nil, tagged, MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	if rc, err = ParseCallRaw(body); err != nil || rc.RespTag != tagged.RespTag {
		t.Fatalf("raw tagged call: tag %d, %v", rc.RespTag, err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _, _ = ParseCallRaw(body) }); allocs != 0 {
		t.Fatalf("ParseCallRaw allocates %.1f/op, want 0", allocs)
	}

	body, err = AppendReply(nil, sampleReply, MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ParseReplyRaw(body)
	if err != nil {
		t.Fatal(err)
	}
	results, rest, err := ReadValues(rr.RawResults)
	if err != nil || len(rest) != 0 || rr.Corr != sampleReply.Corr || !reflect.DeepEqual(results, sampleReply.Results) {
		t.Fatalf("raw reply %+v: results %v, %v, %d left", rr, results, err, len(rest))
	}
	// Spliced back, the raw block encodes the frame it came from.
	again, err := AppendReply(nil, rr, MaxVersion)
	if err != nil || !bytes.Equal(again, body) {
		t.Fatalf("RawResults encoding diverges: %x, want %x (%v)", again, body, err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _, _ = ParseReplyRaw(body) }); allocs != 0 {
		t.Fatalf("ParseReplyRaw allocates %.1f/op, want 0", allocs)
	}

	// Like the eager parses, the raw ones refuse what is cut short anywhere.
	for cut := 0; cut < len(body); cut++ {
		if _, err := ParseReplyRaw(body[:cut]); err == nil {
			t.Fatalf("reply cut at %d of %d accepted", cut, len(body))
		}
	}
}

// TestScalarCodec: the scalar set names each wire-native type by the tag
// AppendValue writes for it; AppendSole through a pointer writes what
// AppendValues writes for the one value, ReadSole reads it back without
// boxing, and a list of anything else is declined untouched.
func TestScalarCodec(t *testing.T) {
	var (
		b   = true
		i   = -7
		i64 = int64(1) << 40
		u64 = uint64(1) << 63
		f   = 2.5
		s   = "value-0000000001"
		p   = []byte{1, 2, 3}
		d   = 3 * time.Second
	)
	for _, c := range []struct {
		ptr, fresh any
		val        any
	}{
		{&b, new(bool), b}, {&i, new(int), i}, {&i64, new(int64), i64}, {&u64, new(uint64), u64},
		{&f, new(float64), f}, {&s, new(string), s}, {&p, new([]byte), p}, {&d, new(time.Duration), d},
	} {
		want, err := AppendValues(nil, []any{c.val})
		if err != nil {
			t.Fatal(err)
		}
		sc := ScalarOf(c.ptr)
		if sc == 0 || byte(sc) != want[1] {
			t.Fatalf("ScalarOf(%T) = %d, AppendValue tags it %d", c.ptr, sc, want[1])
		}
		if got := sc.AppendSole(nil, c.ptr); !bytes.Equal(got, want) {
			t.Fatalf("AppendSole(%T) = %x; AppendValues gives %x", c.ptr, got, want)
		}
		if !sc.ReadSole(want, c.fresh) || !reflect.DeepEqual(reflect.ValueOf(c.fresh).Elem().Interface(), c.val) {
			t.Fatalf("ReadSole(%T) read %v", c.fresh, reflect.ValueOf(c.fresh).Elem().Interface())
		}
		// The wrong shape on the wire: declined, destination untouched.
		zero := reflect.New(reflect.TypeOf(c.val)).Interface()
		nested, _ := AppendValues(nil, []any{[]any{c.val}})
		two, _ := AppendValues(nil, []any{c.val, c.val})
		for _, bad := range [][]byte{nested, two, append(want[:len(want):len(want)], 0xEE), want[:len(want)-1], {}} {
			if sc.ReadSole(bad, zero) || !reflect.ValueOf(zero).Elem().IsZero() {
				t.Fatalf("ReadSole(%T) took %x", zero, bad)
			}
		}
		// A slot of the type holds the value and gives it up zeroed.
		var sl Slot
		if !sl.HoldSole(want) {
			t.Fatalf("HoldSole(%x) declined", want)
		}
		if held, v := sl.Held(); held != sc || !reflect.DeepEqual(reflect.ValueOf(v).Elem().Interface(), c.val) {
			t.Fatalf("slot holds %d %v, want %d %v", held, v, sc, c.val)
		}
		_, v := sl.Held()
		sl.Release()
		if held, _ := sl.Held(); held != 0 || !reflect.ValueOf(v).Elem().IsZero() {
			t.Fatalf("released slot of %T holds %d, value %v", c.ptr, held, reflect.ValueOf(v).Elem().Interface())
		}
		if sl.Hold(sc) != v {
			t.Fatalf("slot of %T did not reuse its value", c.ptr)
		}
	}
	for _, ptr := range []any{&struct{}{}, new([]any), new(int32), "not a pointer", nil} {
		if sc := ScalarOf(ptr); sc != 0 {
			t.Fatalf("ScalarOf(%T) = %d", ptr, sc)
		}
	}
	var sl Slot
	for _, tag := range []Scalar{0, tNil, tSlice, 200} {
		if sl.Hold(tag) != nil || sl.HoldSole([]byte{1, byte(tag)}) {
			t.Fatalf("a slot held tag %d", tag)
		}
	}
	str, buf := ScalarOf(&s), make([]byte, 0, 32)
	if allocs := testing.AllocsPerRun(1000, func() { _ = str.AppendSole(buf, &s) }); allocs != 0 {
		t.Fatalf("AppendSole allocates %.1f/op, want 0", allocs)
	}
	block := ScalarOf(&i).AppendSole(nil, &i)
	if allocs := testing.AllocsPerRun(1000, func() { sl.HoldSole(block); sl.Release() }); allocs != 0 {
		t.Fatalf("a slot allocates %.1f/op, want 0", allocs)
	}
}
