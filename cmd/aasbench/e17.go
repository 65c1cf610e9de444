package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	aas "repro"

	"repro/internal/netsim"
	"repro/internal/registry"
)

// E17: the client-binding call surface under distribution stress. Two
// cluster nodes over TCP loopback host a stateful Store on n2, called from
// n1 through a compiled Client handle while the component live-migrates
// between the nodes continuously. Two phases:
//
//   - async fan-out: batches of concurrent Async calls issued through one
//     handle and gathered with Future.Wait — the batch completes in roughly
//     one round-trip instead of N, and no call is lost to the migrations;
//   - cancellation storm: calls with deadlines far below the fallback
//     timeout. Each aborted call must return in deadline-order time (not
//     the 10s fallback), release its reply-waiter slot immediately, and the
//     propagated deadline must reach the remote callee over the wire.
//
// The storm clients retry in a tight loop without backoff, so when the host
// stalls a few serves admission control sheds what piles up behind them
// (ErrOverloaded, ~100 ns a call): that is the platform working, and it is
// counted as shed. The experiment asserts zero lost fan-out calls, zero
// errors that are neither deadline nor overload, zero leaked waiter slots and
// served-call records on both nodes (PendingCalls and ServedCalls drain to
// zero), and reports how much faster a cancelled call returns than the
// fallback would allow.
const e17ADL = `
system AsyncDist {
  component Store {
    provide get(key) -> (value)
    provide count() -> (n)
  }
}
`

func runE17() {
	mkReg := func(string) *registry.Registry {
		reg := &registry.Registry{}
		if err := reg.Register(registry.Entry{Name: "Store", Version: registry.Version{Major: 1},
			New: func() any { return &e16Store{} }}); err != nil {
			log.Fatal(err)
		}
		return reg
	}
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL:       e17ADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Store": "n2"},
		Registry:  mkReg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	sys1, sys2 := h.System("n1"), h.System("n2")
	store := sys1.Client("Store") // one compiled handle for the whole run

	// Migration churn for both phases.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	var migrations atomic.Uint64
	go func() {
		defer close(churnDone)
		owner := "n2"
		systems := map[string]*aas.System{"n1": sys1, "n2": sys2}
		for {
			select {
			case <-stop:
				return
			default:
			}
			target := "n1"
			if owner == "n1" {
				target = "n2"
			}
			if err := systems[owner].Migrate("Store", netsim.NodeID(target)); err != nil {
				log.Fatalf("E17: migration %s -> %s: %v", owner, target, err)
			}
			owner = target
			migrations.Add(1)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Phase 1: async fan-out under churn.
	const (
		fanout  = 32
		batches = 100
	)
	ctx := context.Background()
	var fanoutErrs uint64
	var batchLats []time.Duration
	completed := 0
	for b := 0; b < batches; b++ {
		futures := make([]*aas.Future, fanout)
		t0 := time.Now()
		for i := range futures {
			futures[i] = store.Async(ctx, "get", fmt.Sprintf("b%d-%d", b, i))
		}
		for _, f := range futures {
			if _, err := f.Wait(); err != nil {
				fanoutErrs++
				continue
			}
			completed++
		}
		batchLats = append(batchLats, time.Since(t0))
	}
	sort.Slice(batchLats, func(i, j int) bool { return batchLats[i] < batchLats[j] })
	fmt.Printf("async fan-out under migration churn: %d batches x %d calls, batch p50=%v p99=%v\n",
		batches, fanout, batchLats[len(batchLats)/2].Round(time.Microsecond),
		batchLats[len(batchLats)*99/100].Round(time.Microsecond))
	fmt.Printf("fan-out calls completed: %d, errors: %d\n", completed, fanoutErrs)

	// Phase 2: cancellation storm under churn. Deadlines straddle the remote
	// round-trip time, so a large fraction of calls abort mid-flight.
	const (
		stormClients = 8
		stormWindow  = 1500 * time.Millisecond
	)
	var (
		mu                 sync.Mutex
		cancelReturn       []time.Duration
		ok, cancelled      atomic.Uint64
		shed, unexpected   atomic.Uint64
		stormWG            sync.WaitGroup
		stormDeadlineSteps = []time.Duration{200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}
	)
	stormEnd := time.Now().Add(stormWindow)
	for c := 0; c < stormClients; c++ {
		c := c
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			var local []time.Duration
			for i := 0; time.Now().Before(stormEnd); i++ {
				budget := stormDeadlineSteps[i%len(stormDeadlineSteps)]
				cctx, cancel := context.WithTimeout(ctx, budget)
				t0 := time.Now()
				_, err := store.Call(cctx, "get", fmt.Sprintf("s%d-%d", c, i))
				elapsed := time.Since(t0)
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
					local = append(local, elapsed)
				case errors.Is(err, aas.ErrOverloaded):
					shed.Add(1)
				default:
					unexpected.Add(1)
				}
			}
			mu.Lock()
			cancelReturn = append(cancelReturn, local...)
			mu.Unlock()
		}()
	}
	stormWG.Wait()
	close(stop)
	<-churnDone

	fmt.Printf("\ncancellation storm (%d clients, deadlines %v): %d completed, %d cancelled, %d shed, %d unexpected errors\n",
		stormClients, stormDeadlineSteps, ok.Load(), cancelled.Load(), shed.Load(), unexpected.Load())
	if len(cancelReturn) > 0 {
		sort.Slice(cancelReturn, func(i, j int) bool { return cancelReturn[i] < cancelReturn[j] })
		p99 := cancelReturn[len(cancelReturn)*99/100]
		fmt.Printf("cancelled-call return time: p50=%v p99=%v max=%v (fallback timeout is 10s: %.0fx faster at p99)\n",
			cancelReturn[len(cancelReturn)/2].Round(time.Microsecond), p99.Round(time.Microsecond),
			cancelReturn[len(cancelReturn)-1].Round(time.Microsecond), float64(10*time.Second)/float64(p99))
	}
	fmt.Printf("live migrations during the run: %d\n", migrations.Load())

	// Every aborted call must have released its reply-waiter slot; give
	// stragglers (replies racing the deadline) a moment to drain.
	// A node holds a waiter slot for a call it made and a served-call record
	// for one a peer made to it (an inbound call has no waiter); both count.
	held := func(node string) int {
		return h.System(node).PendingCalls() + h.Node(node).ServedCalls()
	}
	deadline := time.Now().Add(2 * time.Second)
	for held("n1")+held("n2") > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	p1, p2 := held("n1"), held("n2")
	fmt.Printf("reply-waiter slots outstanding after the storm: n1=%d n2=%d\n", p1, p2)
	if fanoutErrs != 0 || unexpected.Load() != 0 || p1 != 0 || p2 != 0 {
		log.Fatal("E17 FAILED: lost fan-out calls, errors other than deadline and overload, or leaked waiter slots")
	}
	fmt.Println("zero lost fan-out calls, zero unexpected errors, zero leaked waiter slots")
}
