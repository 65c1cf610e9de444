package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A golden frame is one frame exactly as an Encoder writes it — header and
// body — stored as hex under testdata/golden. The corpus pins the byte layout
// of every frame type: a change to the codec that alters one byte of any of
// them, or decodes any of them to a different value, fails here.
type goldenFrame struct {
	name string
	// subs is the frame: one standalone frame, or the sub-frames of a
	// FrameBatch when batch is set. Values are pointers to the frame structs.
	subs  []goldenSub
	batch bool
	// decodeOnly marks bytes no encoder writes but every decoder must accept:
	// the file is checked to decode to the value, not the value to encode to
	// the file.
	decodeOnly bool
}

type goldenSub struct {
	t FrameType
	v any
}

var goldenFrames = []goldenFrame{
	{name: "hello", subs: []goldenSub{{FrameHello, &Hello{Node: "n1", System: "Cluster",
		Components: []string{"Store", "Front"}, MaxVersion: MaxVersion, Addr: "10.0.0.1:7000"}}}},
	// A hello that ends after its component list: the optional tail reads as
	// zero.
	{name: "hello-short", decodeOnly: true, subs: []goldenSub{{FrameHello,
		&Hello{Node: "n1", System: "Cluster", Components: []string{"Store"}}}}},
	{name: "welcome", subs: []goldenSub{{FrameWelcome, &Hello{Node: "n2", System: "Cluster",
		MaxVersion: MaxVersion}}}},
	{name: "call", subs: []goldenSub{{FrameCall, &Call{Corr: 7, Component: "Store", Op: "get",
		Principal: "alice", DeadlineNanos: 1_500_000_000, Args: []any{"k", 2}, Trace: 0x1234, Span: 0x500000004}}}},
	{name: "call-resptag", subs: []goldenSub{{FrameCall, &Call{Corr: 8, Component: "Store", Op: "get",
		Args: []any{"k"}, RespTag: tString}}}},
	{name: "reply", subs: []goldenSub{{FrameReply, &Reply{Corr: 7, Results: []any{"v", int64(-3), 2.5, []byte{1, 2}}}}}},
	{name: "reply-error", subs: []goldenSub{{FrameReply, &Reply{Corr: 9, Err: "core: deadline exceeded",
		Kind: KindDeadline}}}},
	{name: "migrate", subs: []goldenSub{{FrameMigrate, &Migrate{Corr: 3, Component: "Store", Implements: "KV",
		Properties: map[string]string{"statefulness": "stateful"}, CPU: 2, HasState: true,
		State: []byte("state-bytes")}}}},
	{name: "migrate-ack", subs: []goldenSub{{FrameMigrateAck, &MigrateAck{Corr: 3, Err: "nope"}}}},
	{name: "announce", subs: []goldenSub{{FrameAnnounce, &Announce{Add: true, Component: "Store"}}}},
	{name: "cancel", subs: []goldenSub{{FrameCancel, &Cancel{Corr: 7_000_000_001}}}},
	{name: "stream-open", subs: []goldenSub{{FrameStreamOpen, &StreamOpen{Corr: 41, Component: "Feed",
		Op: "list", Principal: "alice", DeadlineNanos: 5_000_000, Window: 32, Args: []any{"prefix", 10},
		Trace: 9, Span: 0x100000000}}}},
	{name: "stream-chunk", subs: []goldenSub{{FrameStreamChunk, &StreamChunk{Corr: 41, Seq: 3,
		Item: []any{"item-3", nil, true}}}}},
	{name: "stream-credit", subs: []goldenSub{{FrameStreamCredit, &StreamCredit{Corr: 41, Credit: 8}}}},
	{name: "stream-end", subs: []goldenSub{{FrameStreamEnd, &StreamEnd{Corr: 41, Err: "boom", Kind: KindAppError}}}},
	{name: "gossip", subs: []goldenSub{{FrameGossip, &Gossip{Members: []GossipMember{
		{Node: "n1", Addr: "127.0.0.1:7001", Incarnation: 3, Version: 91, Status: GossipAlive, Load: 0.75,
			Comps: []GossipComp{{Name: "Store", Load: 1.25e6, Follower: "n2"}, {Name: "Front"}}},
		{Node: "n3", Incarnation: 1, Status: GossipDead},
	}}}}},
	// An empty view decodes to an empty member list, not to nil.
	{name: "gossip-empty", subs: []goldenSub{{FrameGossip, &Gossip{Members: []GossipMember{}}}}},
	{name: "replicate", subs: []goldenSub{{FrameReplicate, &Replicate{Corr: 11, Component: "Store", Seq: 42,
		State: []byte("snapshot-bytes")}}}},
	{name: "replicate-ack", subs: []goldenSub{{FrameReplicateAck, &ReplicateAck{Corr: 11, Component: "Store",
		Seq: 42, Err: "busy"}}}},
	{name: "batch", batch: true, subs: []goldenSub{
		{FrameCall, &Call{Corr: 1, Component: "Store", Op: "put", Args: []any{"b", 7}}},
		{FrameCancel, &Cancel{Corr: 1}},
	}},
}

// TestGoldenFrames: every frame of the corpus encodes to its file byte for
// byte, and every file decodes to its frame.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			text, err := os.ReadFile(filepath.Join("testdata", "golden", g.name+".hex"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(strings.TrimSpace(string(text)))
			if err != nil {
				t.Fatal(err)
			}
			if !g.decodeOnly {
				var out bytes.Buffer
				enc := NewEncoder(&out)
				if g.batch || len(g.subs) == 1 && dataFrame(g.subs[0].t) {
					enc.BeginBatch()
					for _, s := range g.subs {
						if err := enc.BatchAdd(s.t, encodeBody(s.v)); err != nil {
							t.Fatal(err)
						}
					}
					err = enc.FlushBatch()
				} else {
					err = encodeFrame(enc, g.subs[0].t, g.subs[0].v)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("encodes to\n%x\nwant\n%x", out.Bytes(), want)
				}
			}

			ft, body, err := NewDecoder(bytes.NewReader(want)).Next()
			if err != nil {
				t.Fatal(err)
			}
			types, bodies := []FrameType{ft}, [][]byte{body}
			if g.batch {
				if ft != FrameBatch {
					t.Fatalf("frame type %v, want a batch", ft)
				}
				types, bodies = nil, nil
				for len(body) > 0 {
					st, sb, rest, err := ReadBatchFrame(body)
					if err != nil {
						t.Fatal(err)
					}
					types, bodies, body = append(types, st), append(bodies, sb), rest
				}
			}
			if len(types) != len(g.subs) {
				t.Fatalf("%d frames, want %d", len(types), len(g.subs))
			}
			for i, st := range types {
				if st != g.subs[i].t {
					t.Fatalf("frame %d: type %v, want %v", i, st, g.subs[i].t)
				}
				got, err := parseAs(g.subs[i].v, bodies[i])
				if err != nil || !reflect.DeepEqual(got, g.subs[i].v) {
					t.Fatalf("frame %d decodes to %#v (%v), want %#v", i, got, err, g.subs[i].v)
				}
			}
		})
	}
}

// dataFrame reports whether t travels through the batch writer.
func dataFrame(t FrameType) bool {
	switch t {
	case FrameCall, FrameReply, FrameCancel, FrameStreamOpen, FrameStreamChunk, FrameStreamCredit,
		FrameStreamEnd, FrameReplicate, FrameReplicateAck:
		return true
	}
	return false
}
