// Tests of the typed relay (DESIGN.md §8, "Arguments stay bytes"): a call
// from a scalar typed handle states its response tag on the wire, and the
// callee serves it through HandleTyped from the argument bytes, writing the
// reply straight from the response slot. Every other call — and every typed
// one the serve outcome leaves boxed — is served and answered as before.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspects"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/wire"
)

// typedStats counts how a typedStore's get calls were served, across every
// instance sharing it (a migrated Store is a new instance).
type typedStats struct {
	typed, handled atomic.Int64
	// leaked counts typed entries that found a response slot already written:
	// a value left over from another call.
	leaked atomic.Int64
}

// typedStore serves get both ways, and the reply says which: HandleTyped
// answers "typed:<key>", Handle "handled:<key>". Keys steer the typed path:
// "untyped..." declines it, "boom" fails after counting a get (which a
// transactional container rolls back), "silent" succeeds without writing the
// response. count reports the gets.
type typedStore struct {
	stats *typedStats
	mu    sync.Mutex
	gets  int64
}

func (s *typedStore) HandleTyped(op string, req, resp any) error {
	key, ok := req.(*string)
	out, okOut := resp.(*string)
	if op != "get" || !ok || !okOut || strings.HasPrefix(*key, "untyped") {
		return container.ErrUntypedOp
	}
	if *out != "" {
		s.stats.leaked.Add(1)
	}
	s.stats.typed.Add(1)
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	switch *key {
	case "boom":
		return errors.New("store: boom")
	case "silent":
		return nil
	}
	*out = "typed:" + *key
	return nil
}

func (s *typedStore) Handle(op string, args []any) ([]any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if op == "count" {
		return []any{int(s.gets)}, nil
	}
	s.stats.handled.Add(1)
	s.gets++
	switch key, _ := args[0].(string); key {
	case "untyped-int":
		return []any{7}, nil
	case "pair":
		return []any{"left", 2}, nil
	case "none":
		return nil, nil
	default:
		return []any{"handled:" + key}, nil
	}
}

func (s *typedStore) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []byte(strconv.FormatInt(s.gets, 10)), nil
}

func (s *typedStore) Restore(b []byte) error {
	n, err := strconv.ParseInt(string(b), 10, 64)
	s.mu.Lock()
	s.gets = n
	s.mu.Unlock()
	return err
}

// twoArgs is a request of two arguments (core.TypedRequest): it has no
// scalar form, so its calls are never tagged.
type twoArgs struct {
	Key string
	N   int
}

func (r *twoArgs) AppendArgs(dst []byte) ([]byte, error) { return wire.AppendValues(dst, r.CallArgs()) }
func (r *twoArgs) CallArgs() []any                       { return []any{r.Key, r.N} }

// ghostCall ships one call frame over a ghost link and returns its reply,
// the result block copied out of the frame and also decoded. A beacon is
// answered with a cancel for a corr nobody holds, so the link outlives
// FailAfter.
func ghostCall(t *testing.T, conn net.Conn, dec *wire.Decoder, c wire.Call) wire.Reply {
	t.Helper()
	body, err := wire.AppendCall(nil, c, wire.MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(rawFrame(wire.MaxVersion, wire.FrameCall, body)); err != nil {
		t.Fatal(err)
	}
	for {
		ft, body, err := dec.Next()
		if err != nil {
			t.Fatalf("waiting for the reply to corr %d: %v", c.Corr, err)
		}
		switch ft {
		case wire.FrameGossip:
			if _, err := conn.Write(rawFrame(wire.MaxVersion, wire.FrameCancel, wire.AppendCancel(nil, wire.Cancel{Corr: 1 << 40}))); err != nil {
				t.Fatal(err)
			}
		case wire.FrameReply:
			r, err := wire.ParseReplyRaw(body)
			if err != nil || r.Corr != c.Corr {
				t.Fatalf("reply %+v, %v; want one for corr %d", r, err, c.Corr)
			}
			r.RawResults = bytes.Clone(r.RawResults)
			r.Results, _, _ = wire.ReadValues(r.RawResults)
			return r
		}
	}
}

// TestTypedRelayServe pins the typed relay's lifecycle: which calls are
// served typed across a link, what their replies carry, and that the pooled
// envelope's slots hold nothing from one call into the next.
func TestTypedRelayServe(t *testing.T) {
	ctx := context.Background()
	strTag := uint8(wire.ScalarOf(new(string)))

	t.Run("served typed, answered typed, fallen back as before", func(t *testing.T) {
		stats := &typedStats{}
		h, _ := storeCluster(t, &typedStore{stats: stats}, nil)
		sys1, sys2, n2 := h.System("n1"), h.System("n2"), h.Node("n2")
		str := core.ClientOf[string, string](sys1, "Store")
		// served checks how many of the calls since the last check took each
		// path.
		var lastTyped, lastHandled int64
		served := func(what string, typed, handled int64) {
			t.Helper()
			gotTyped, gotHandled := stats.typed.Load(), stats.handled.Load()
			if gotTyped-lastTyped != typed || gotHandled-lastHandled != handled {
				t.Fatalf("%s: %d served typed and %d through Handle, want %d and %d",
					what, gotTyped-lastTyped, gotHandled-lastHandled, typed, handled)
			}
			lastTyped, lastHandled = gotTyped, gotHandled
		}
		served("warm-up", 0, 1)

		// A scalar typed handle's call is served through HandleTyped, its reply
		// block is the one string, and the caller reads it in place.
		for i := 0; i < 3; i++ {
			if got, err := str.Call(ctx, "get", "k"); err != nil || got != "typed:k" {
				t.Fatalf("typed call = %q, %v", got, err)
			}
		}
		served("typed calls", 3, 0)
		conn, dec := ghostLink(t, n2)
		defer conn.Close()
		want, _ := wire.AppendValues(nil, []any{"typed:g"})
		if r := ghostCall(t, conn, dec, wire.Call{Corr: 1, Component: "Store", Op: "get", Args: []any{"g"}, RespTag: strTag}); r.Err != "" || !bytes.Equal(r.RawResults, want) {
			t.Fatalf("tagged call's reply: %q, block %x, want %x", r.Err, r.RawResults, want)
		}
		served("tagged ghost call", 1, 0)

		// ErrUntypedOp falls back to Handle, whose results ship as they are;
		// a result of the wrong type fails on the caller as it always has.
		if got, err := str.Call(ctx, "get", "untyped-x"); err != nil || got != "handled:untyped-x" {
			t.Fatalf("declined typed call = %q, %v", got, err)
		}
		if _, err := str.Call(ctx, "get", "untyped-int"); err == nil || !strings.Contains(err.Error(), "result is int, want string") {
			t.Fatalf("declined call with an int result: %v", err)
		}
		if got, err := core.ClientOf[string, int](sys1, "Store").Call(ctx, "get", "untyped-int"); err != nil || got != 7 {
			t.Fatalf("int handle = %d, %v", got, err)
		}
		served("declined typed calls", 0, 3)

		// An aspect that replaces the results wins over the written slot.
		if err := sys2.AttachAspect(aspects.Aspect{Name: "replace", Advice: []aspects.Advice{{
			Pointcut: aspects.Pointcut{Component: "Store", Op: "get"},
			Around: func(inv *aspects.Invocation, next aspects.Handler) (any, error) {
				_, err := next(inv)
				return []any{"aspect"}, err
			},
		}}}); err != nil {
			t.Fatal(err)
		}
		if got, err := str.Call(ctx, "get", "k"); err != nil || got != "aspect" {
			t.Fatalf("typed call under a replacing aspect = %q, %v", got, err)
		}
		if err := sys2.RemoveAspect("replace"); err != nil {
			t.Fatal(err)
		}
		served("replaced results", 1, 0)

		// An application error answers with the error and no result.
		if got, err := str.Call(ctx, "get", "boom"); err == nil || !strings.Contains(err.Error(), "store: boom") || got != "" {
			t.Fatalf("failing typed call = %q, %v", got, err)
		}
		if r := ghostCall(t, conn, dec, wire.Call{Corr: 2, Component: "Store", Op: "get", Args: []any{"boom"}, RespTag: strTag}); !strings.Contains(r.Err, "store: boom") || len(r.Results) != 0 {
			t.Fatalf("failing tagged call's reply: %q, results %v", r.Err, r.Results)
		}
		served("failing typed calls", 2, 0)

		// Untagged calls are served through Handle as they always were.
		if res, err := sys1.Client("Store").Call(ctx, "get", "u"); err != nil || len(res) != 1 || res[0] != "handled:u" {
			t.Fatalf("untyped call = %v, %v", res, err)
		}
		if got, err := core.ClientOf[twoArgs, string](sys1, "Store").Call(ctx, "get", twoArgs{"two", 2}); err != nil || got != "handled:two" {
			t.Fatalf("two-argument typed call = %q, %v", got, err)
		}
		if got, err := core.ClientOf[string, pairResp](sys1, "Store").Call(ctx, "get", "pair"); err != nil || got != (pairResp{"left", 2}) {
			t.Fatalf("TypedResponse call = %+v, %v", got, err)
		}
		if _, err := core.ClientOf[string, struct{}](sys1, "Store").Call(ctx, "get", "none"); err != nil {
			t.Fatalf("struct{} call: %v", err)
		}
		// The frame a build without the tag sends, and tags that name no
		// scalar: served through Handle, and the link stays up.
		for i, tag := range []uint8{0, 1, 9, 0xFF} {
			key := fmt.Sprintf("g%d", i)
			if r := ghostCall(t, conn, dec, wire.Call{Corr: uint64(10 + i), Component: "Store", Op: "get", Args: []any{key}, RespTag: tag}); r.Err != "" || len(r.Results) != 1 || r.Results[0] != "handled:"+key {
				t.Fatalf("call with tag %d: %q, results %v", tag, r.Err, r.Results)
			}
		}
		served("untagged calls", 0, 8)

		// One pooled envelope after another: a typed call, a fallback, a typed
		// call that writes no response, a typed call again. Nothing of one is
		// seen by the next — not the response slot (leaked), not the result.
		for i := 0; i < 3; i++ {
			if got, err := str.Call(ctx, "get", "first"); err != nil || got != "typed:first" {
				t.Fatalf("typed call = %q, %v", got, err)
			}
			if got, err := str.Call(ctx, "get", "untyped-y"); err != nil || got != "handled:untyped-y" {
				t.Fatalf("fallback after a typed call = %q, %v", got, err)
			}
			if got, err := str.Call(ctx, "get", "silent"); err != nil || got != "" {
				t.Fatalf("typed call writing no response = %q, %v", got, err)
			}
			if r := ghostCall(t, conn, dec, wire.Call{Corr: uint64(20 + i), Component: "Store", Op: "get", Args: []any{"untyped-z"}, RespTag: strTag}); r.Err != "" || len(r.Results) != 1 || r.Results[0] != "handled:untyped-z" {
				t.Fatalf("tagged fallback after a typed call: %q, results %v", r.Err, r.Results)
			}
		}
		served("alternating calls", 6, 6)
		if n := stats.leaked.Load(); n != 0 {
			t.Fatalf("%d typed calls found another call's response in their slot", n)
		}
		conn.Close()
		eventually(t, "the ghost's link to go", func() bool { return len(n2.Peers()) == 1 })
		assertQuiescent(t, h)
	})

	t.Run("transactional rollback answers with the error alone", func(t *testing.T) {
		stats := &typedStats{}
		h, err := StartHarness(ctx, Spec{
			ADL:       strings.Replace(clusterADL, "provide count() -> (n)", "provide count() -> (n)\n    property transactional = true", 1),
			Nodes:     []string{"n1", "n2"},
			Placement: map[string]string{"Front": "n1", "Store": "n2"},
			Registry: func(string) *registry.Registry {
				reg := &registry.Registry{}
				for name, impl := range map[string]func() any{"Front": func() any { return &front{} }, "Store": func() any { return &typedStore{stats: stats} }} {
					if err := reg.Register(registry.Entry{Name: name, Version: registry.Version{Major: 1}, New: impl}); err != nil {
						panic(err)
					}
				}
				return reg
			},
			Cluster: fastCluster,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		sys1 := h.System("n1")
		str := core.ClientOf[string, string](sys1, "Store")
		if got, err := str.Call(ctx, "get", "k"); err != nil || got != "typed:k" {
			t.Fatalf("typed call = %q, %v", got, err)
		}
		count := func() any {
			t.Helper()
			res, err := sys1.Client("Store").Call(ctx, "count")
			if err != nil || len(res) != 1 {
				t.Fatalf("count = %v, %v", res, err)
			}
			return res[0]
		}
		before := count()
		if got, err := str.Call(ctx, "get", "boom"); err == nil || !strings.Contains(err.Error(), "store: boom") || got != "" {
			t.Fatalf("rolled-back typed call = %q, %v", got, err)
		}
		if after := count(); after != before {
			t.Fatalf("count %v after the rolled-back call, want %v", after, before)
		}
		if n := stats.typed.Load(); n != 2 {
			t.Fatalf("%d calls served typed, want 2", n)
		}
		assertQuiescent(t, h)
	})

	// A typed call parked on n2 when its component moves to n3 is forwarded
	// on in the envelope it arrived in, carrying its tag: n3 serves it typed.
	t.Run("re-forwarded after migration, served typed on the third node", func(t *testing.T) {
		const each = 8
		stats := &typedStats{}
		h, _ := relayCluster(t, []string{"n1", "n2", "n3"}, func() any { return &typedStore{stats: stats} })
		sys2 := h.System("n2")
		str := core.ClientOf[string, string](h.System("n1"), "Store").With(core.WithDeadline(10 * time.Second))
		if got, err := str.Call(ctx, "get", "warm"); err != nil || got != "typed:warm" {
			t.Fatalf("warm-up = %q, %v", got, err)
		}
		sys2.Bus().PauseRequests(core.ComponentAddress("Store"))
		futs := make([]*core.TypedFuture[string, string], each)
		for i := range futs {
			futs[i] = str.Async(ctx, "get", fmt.Sprintf("moved-%d", i))
		}
		eventually(t, "the calls to park on n2", func() bool { return h.Node("n2").ServedCalls() == each })
		if err := sys2.Migrate("Store", netsim.NodeID("n3")); err != nil {
			t.Fatal(err)
		}
		for i, f := range futs {
			if got, err := f.Wait(); err != nil || got != fmt.Sprintf("typed:moved-%d", i) {
				t.Fatalf("call %d across the migration = %q, %v", i, got, err)
			}
		}
		if typed, handled := stats.typed.Load(), stats.handled.Load(); typed != 1+each || handled != 0 {
			t.Fatalf("%d served typed and %d through Handle, want %d and 0", typed, handled, 1+each)
		}
		assertQuiescent(t, h)
	})
}
