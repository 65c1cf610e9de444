// Every place the platform answers a request because its deadline lapsed
// must stamp the structured deadline kind on the answer: that kind — not the
// answer's text — is what gives the caller's error its
// context.DeadlineExceeded identity, across connectors, gateways and peer
// links.
package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/filters"
	"repro/internal/registry"
)

const deadlineADL = `
system Deadlines {
  component Front {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component Store {
    provide get(key) -> (value)
    provide count() -> (n)
  }
  component Feed {
    provide list(n) -> (item)
    provide pump() -> (item)
  }
  connector Link { kind rpc }
  bind Front.get -> Store.get via Link
}
`

// TestDeadlineIdentityFromEveryProducer drives each deadline producer with a
// caller whose own wait has NOT expired, so the only source of the error's
// identity is the kind the producer stamped.
//
// A unary caller's wait ends with its deadline, so the unary rows go through
// Front: the outer call carries a generous deadline, Front's nested get
// carries none, and a filter on the Front.get binding stamps the deadline
// under test on the nested request. The producer's answer then crosses the
// connector and Front's own reply before the outer caller classifies it. A
// stream consumer waits under Recv's context, not the open's, so the stream
// rows open with a short deadline and receive with a long one; pausing the
// producer's address holds the open until it has lapsed.
//
// Overload control is off so mailboxes are plain FIFO: the deadline lane
// would shed a lapsed request silently at dequeue, and the producers under
// test sit behind it.
func TestDeadlineIdentityFromEveryProducer(t *testing.T) {
	const linger = 150 * time.Millisecond
	remote := map[string]string{"Front": "n1", "Store": "n2", "Feed": "n2"}
	lapsed := func() int64 { return time.Now().Add(-time.Millisecond).UnixNano() }
	lapsesInEgress := func() int64 { return time.Now().Add(linger / 4).UnixNano() }

	// heldOpen opens a stream on Feed whose deadline lapses while the open
	// is parked in front of Feed's address.
	heldOpen := func(t *testing.T, sys *core.System) *core.Stream {
		// A completed round trip first: the acceptor side of a fresh link may
		// still be attaching Feed's gateway, which ends by resuming the
		// address — and would lift the pause below.
		_, _ = sys.Client("Feed").Call(context.Background(), "warm-up")
		addr := core.ComponentAddress("Feed")
		sys.Bus().PauseRequests(addr)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		st, err := sys.Client("Feed").Stream(ctx, "pump")
		if err != nil {
			t.Fatal(err)
		}
		<-ctx.Done()
		if _, err := sys.Bus().Resume(addr); err != nil {
			t.Fatal(err)
		}
		return st
	}

	rows := []struct {
		name      string
		producer  string            // the phrase the producer under test signs its answer with
		placement map[string]string // nil: everything on n1
		stamp     func() int64      // unary rows: the nested request's deadline
		open      func(t *testing.T, sys *core.System) *core.Stream
	}{
		{name: "component rejects an unserved call", producer: "before service", stamp: lapsed},
		{name: "gateway rejects a call", producer: "at gateway", placement: remote, stamp: lapsed},
		{name: "call expires in the egress queue", producer: "in egress queue", placement: remote, stamp: lapsesInEgress},
		{name: "component ends an unserved stream", producer: "before service", open: heldOpen},
		{name: "gateway ends a stream open", producer: "at gateway", placement: remote, open: heldOpen},
		{name: "stream open expires in the egress queue", producer: "in egress queue", placement: remote,
			open: func(t *testing.T, sys *core.System) *core.Stream {
				ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, lapsesInEgress()))
				defer cancel()
				st, err := sys.Client("Feed").Stream(ctx, "pump")
				if err != nil {
					t.Fatal(err)
				}
				return st
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nodes := []string{"n1"}
			if row.placement != nil {
				nodes = []string{"n1", "n2"}
			}
			h, err := StartHarness(context.Background(), Spec{
				ADL:       deadlineADL,
				Nodes:     nodes,
				Placement: row.placement,
				Registry: func(node string) *registry.Registry {
					reg := testRegistry(node)
					if err := reg.Register(registry.Entry{Name: "Feed", Version: registry.Version{Major: 1},
						New: func() any { return &feedComp{} }}); err != nil {
						panic(err)
					}
					return reg
				},
				Options: func(string) core.Options { return core.Options{NoOverloadControl: true} },
				Cluster: func(node string) Options {
					o := fastCluster(node)
					o.BatchLinger = linger // the egress rows' requests lapse while the flush lingers
					return o
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			sys := h.System("n1")
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			if row.open != nil {
				st := row.open(t, sys)
				defer st.Close()
				for {
					if _, err = st.Recv(ctx); err != nil {
						break
					}
				}
			} else {
				if err := sys.AttachFilter("Front", "get", filters.Input, filters.Transform{
					FilterName: "stamp-deadline", Match: filters.Matcher{Kind: bus.Request},
					Fn: func(m *bus.Message) { m.Deadline = row.stamp() },
				}); err != nil {
					t.Fatal(err)
				}
				_, err = sys.Client("Front").Call(ctx, "fetch", "k")
			}
			if ctx.Err() != nil {
				t.Fatalf("the caller's own wait expired (%v): the producer never answered", err)
			}
			if err == nil || !strings.Contains(err.Error(), row.producer) {
				t.Fatalf("err = %v, want the answer of the producer that says %q", err, row.producer)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded identity", err)
			}
		})
	}
}
