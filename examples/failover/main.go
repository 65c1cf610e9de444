// Command failover demonstrates error recovery at two scales.
//
// Act 1 is Durra-style event-triggered reconfiguration "used for error
// recovery purposes, where the reconfiguration is based on event-triggering
// mechanism" (§1): a primary store starts failing, the RAML's event trigger
// fires, and the frontend's binding is reconfigured to a standby replica —
// no request is lost afterward.
//
// Act 2 moves the same idea to the elastic cluster plane (DESIGN.md §12): a
// three-node cluster replicates a stateful store's snapshots to a
// gossip-advertised follower; when the hosting node is killed, the follower
// promotes the store warm — the restored counter proves no acked state was
// lost.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	aas "repro"

	"repro/internal/registry"
)

// store serves lookups; Broken simulates a node/software failure.
type store struct {
	Tag    string
	Broken atomic.Bool
}

func (s *store) Handle(op string, args []any) ([]any, error) {
	if s.Broken.Load() {
		return nil, errors.New("store: disk failure")
	}
	if op != "get" {
		return nil, fmt.Errorf("unknown op %s", op)
	}
	return []any{"value-from-" + s.Tag}, nil
}

// frontend fans requests to its bound store.
type frontend struct{ caller aas.Caller }

func (f *frontend) SetCaller(c aas.Caller) { f.caller = c }
func (f *frontend) Handle(op string, args []any) ([]any, error) {
	return f.caller.Call("get", args...)
}

const config = `
system Failover {
  component Front {
    provide read(key) -> (value)
    require get(key) -> (value)
  }
  component Primary {
    provide get(key) -> (value)
  }
  component Standby {
    provide get(key) -> (value)
  }
  connector Link { kind rpc }
  bind Front.get -> Primary.get via Link
}
`

func main() {
	primary := &store{Tag: "primary"}
	standby := &store{Tag: "standby"}

	reg := aas.NewRegistry()
	reg.MustRegister("Front", "1.0", nil, func() any { return &frontend{} })
	reg.MustRegister("Primary", "1.0", nil, func() any { return primary })
	reg.MustRegister("Standby", "1.0", nil, func() any { return standby })

	sys, err := aas.Load(config, aas.Options{Registry: reg.Registry})
	if err != nil {
		log.Fatal(err)
	}

	// Durra-style error-recovery trigger: on a failed request at Primary,
	// rebind the frontend to the standby.
	failedOver := make(chan struct{}, 1)
	err = sys.AddEventTrigger(aas.EventTrigger{
		Name: "primary-error-recovery",
		Kind: aas.EvRequestFailed,
		Action: func(s *aas.System, e aas.Event) error {
			if e.Component != "Primary" {
				return nil
			}
			if err := s.Rebind("Front", "get", "Standby"); err != nil {
				return err
			}
			select {
			case failedOver <- struct{}{}:
			default:
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := sys.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	// One compiled binding handle for the whole session: it stays valid
	// across the Rebind below — the next call simply routes to the standby.
	ctx := context.Background()
	front := sys.Client("Front")

	res, err := front.Call(ctx, "read", "k")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy:   read(k) = %v\n", res[0])

	fmt.Println("injecting primary failure...")
	primary.Broken.Store(true)

	// The next request fails once; the trigger reconfigures the binding.
	if _, err := front.Call(ctx, "read", "k"); err != nil {
		fmt.Printf("during:    read(k) failed as expected: %v\n", err)
	}
	<-failedOver

	ok, failed := 0, 0
	for i := 0; i < 100; i++ {
		res, err := front.Call(ctx, "read", "k")
		if err != nil {
			failed++
			continue
		}
		ok++
		if i == 0 {
			fmt.Printf("recovered: read(k) = %v\n", res[0])
		}
	}
	fmt.Printf("after failover: %d ok, %d failed of 100 requests\n", ok, failed)

	for _, e := range sys.Events().History(aas.EvTriggerFired) {
		fmt.Printf("[raml] trigger fired: %s (component %s)\n", e.Detail, e.Component)
	}

	sys.Stop()
	clusterAct()
}

// counter is the stateful store for the cluster act: Snapshot/Restore make
// it replicable, and its count proves what survived the failover.
type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) Handle(op string, args []any) ([]any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "get":
		c.n++
		return []any{args[0]}, nil
	case "count":
		return []any{int(c.n)}, nil
	}
	return nil, fmt.Errorf("counter: unknown op %s", op)
}

func (c *counter) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(strconv.FormatInt(c.n, 10)), nil
}

func (c *counter) Restore(b []byte) error {
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.n = n
	c.mu.Unlock()
	return nil
}

const clusterConfig = `
system Elastic {
  component Front {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component Store {
    provide get(key) -> (value)
    provide count() -> (n)
  }
  connector Link { kind rpc }
  bind Front.get -> Store.get via Link
}
`

// clusterAct: warm-standby promotion across a three-node cluster.
func clusterAct() {
	fmt.Println()
	fmt.Println("=== act 2: three-node warm-standby promotion ===")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := aas.StartCluster(ctx, aas.ClusterSpec{
		ADL:       clusterConfig,
		Nodes:     []string{"n1", "n2", "n3"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry: func(string) *registry.Registry {
			reg := aas.NewRegistry()
			reg.MustRegister("Front", "1.0", nil, func() any { return &frontend{} })
			reg.MustRegister("Store", "1.0", nil, func() any { return &counter{} })
			return reg.Registry
		},
		Cluster: func(string) aas.ClusterOptions {
			return aas.ClusterOptions{Heartbeat: 50 * time.Millisecond,
				FailAfter: 300 * time.Millisecond, SuspectAfter: 300 * time.Millisecond}
		},
		SeedJoin: true, // n2 and n3 discover the mesh through n1's address
	})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	fmt.Println("cluster up: Front on n1, Store on n2, n3 idle (joined via seed + gossip)")

	for _, id := range h.Nodes() {
		if err := h.Node(id).EnableFailover(); err != nil {
			log.Fatal(err)
		}
	}
	rep := h.Node("n2").StartReplicator(aas.ReplicatorOptions{Interval: time.Hour})
	defer rep.Stop()

	// Put load through the stateful store.
	completed := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if out, err := h.System("n1").Client("Front").Call(context.Background(), "fetch", key); err != nil || out[0] != key {
			log.Fatalf("fetch %s: %v %v", key, out, err)
		}
		completed++
	}
	fmt.Printf("load:      %d fetches completed against Store on n2\n", completed)

	// Ship the state and wait until the follower acked it and the survivors
	// learned the follower assignment through gossip.
	rep.ReplicateNow()
	deadline := time.Now().Add(10 * time.Second)
	follower := ""
	for follower == "" {
		if time.Now().After(deadline) {
			log.Fatal("replication never acked")
		}
		snap := h.Node("n2").Telemetry()
		if len(snap.Replication) == 1 && snap.Replication[0].AckedSeq > 0 &&
			snap.Replication[0].AckedSeq == snap.Replication[0].ShippedSeq {
			follower = snap.Replication[0].Follower
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range []string{"n1", "n3"} {
		for {
			m, ok := h.Node(id).Member("n2")
			if ok && len(m.Components) == 1 && m.Components[0].Follower == follower {
				break
			}
			if time.Now().After(deadline) {
				log.Fatal("follower assignment never gossiped")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	fmt.Printf("replicate: snapshot seq acked by follower %s\n", follower)

	fmt.Println("killing n2 (hard stop, no goodbye)...")
	h.Kill("n2")

	// The follower promotes Store warm; service resumes with state intact.
	for {
		if out, err := h.System("n1").Client("Front").Call(context.Background(), "fetch", "post-kill"); err == nil && out[0] == "post-kill" {
			completed++
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("service never recovered after the kill")
		}
		time.Sleep(20 * time.Millisecond)
	}
	out, err := h.System(follower).Client("Store").Call(context.Background(), "count")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: Store promoted warm on %s, count=%v (completed=%d)\n", follower, out[0], completed)
	if out[0].(int) != completed {
		log.Fatalf("state mismatch after warm failover: count=%v completed=%d", out[0], completed)
	}
	if lost := h.System(follower).Events().History(aas.EvStateLost); len(lost) != 0 {
		log.Fatalf("warm failover emitted EvStateLost: %v", lost)
	}
	fmt.Println("warm failover: zero state lost, zero mismatches")
}
