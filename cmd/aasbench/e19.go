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
)

// E19: goodput under open-loop overload. A single system hosts a Busy
// component whose handler occupies one of a fixed pool of service slots for
// a fixed service time; an open-loop generator offers deadline-budgeted
// traffic at 1x, 4x and 10x of a measured base rate, never slowing down when
// the system does — the regime where a FIFO system collapses, because queues
// grow without bound and every slot of capacity is spent serving requests
// whose callers already left.
//
// Service is modeled as sleeping on a slot pool rather than spinning the
// CPU: the slot pool is the capacity limit, so the harness (generator,
// classification goroutines, the runtime itself) does not contend with the
// workload for cycles and the experiment holds on a single-core box.
//
// The governed system (deadline-aware admission at the client edge, EDF
// mailbox ordering, expired-work shedding at dequeue) is asserted to hold
// the line at 4x: at least 90% of the calls it admits complete within their
// budget, and the p99 of successful calls stays within 2x of its 1x value.
// The same workload is then replayed against a seed-configured system
// (Options.NoOverloadControl: FIFO mailboxes, no admission) whose collapse
// is reported for the record but not asserted — its exact failure mix
// (deadline misses vs mailbox overflow) is load- and machine-dependent.
const e19ADL = `
system Overload {
  component Busy {
    provide work(x) -> (r)
  }
}
`

// e19Busy holds one of slots for service per call. A handler that cannot
// claim a slot within patience gives up and frees its goroutine; patience is
// set well past the caller budget, so by then the caller has already counted
// the call as missed and the bail is invisible to the experiment — it only
// bounds how much wedged work a collapse leaves behind.
type e19Busy struct {
	slots    chan struct{}
	service  time.Duration
	patience time.Duration
}

func (b *e19Busy) Handle(op string, args []any) ([]any, error) {
	select {
	case b.slots <- struct{}{}:
	case <-time.After(b.patience):
		return nil, errors.New("busy: no slot within patience")
	}
	time.Sleep(b.service)
	<-b.slots
	return []any{"ok"}, nil
}

// e19Phase is the outcome mix of one open-loop phase.
type e19Phase struct {
	offered, ok, rejected, missed, other uint64
	p50, p99                             time.Duration
}

// goodput is the fraction of admitted calls that completed within budget.
func (p e19Phase) goodput() float64 {
	admitted := p.ok + p.missed + p.other
	if admitted == 0 {
		return 1
	}
	return float64(p.ok) / float64(admitted)
}

func (p e19Phase) String() string {
	return fmt.Sprintf("offered=%d ok=%d rejected=%d missed=%d other=%d goodput=%.1f%% p50=%v p99=%v",
		p.offered, p.ok, p.rejected, p.missed, p.other, 100*p.goodput(),
		p.p50.Round(time.Microsecond), p.p99.Round(time.Microsecond))
}

// e19Drive offers rate calls/s open-loop for dur, one goroutine per call,
// and classifies every outcome. The issue count tracks the wall clock, not
// the tick count, so a dropped ticker tick is made up on the next one and
// the offered load is what was asked for even when the box stalls.
func e19Drive(cl *aas.Client, rate int, dur time.Duration) e19Phase {
	var (
		ph                          e19Phase
		ok, rejected, missed, other atomic.Uint64
		mu                          sync.Mutex
		lat                         []time.Duration
		wg                          sync.WaitGroup
	)
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	ctx := context.Background()
	start := time.Now()
	issued := 0
	for {
		<-ticker.C
		elapsed := time.Since(start)
		if elapsed > dur {
			elapsed = dur
		}
		target := int(float64(rate) * elapsed.Seconds())
		for ; issued < target; issued++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				_, err := cl.Call(ctx, "work", "x")
				el := time.Since(t0)
				switch {
				case err == nil:
					ok.Add(1)
					mu.Lock()
					lat = append(lat, el)
					mu.Unlock()
				case errors.Is(err, aas.ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					missed.Add(1)
				default:
					other.Add(1)
				}
			}()
		}
		if elapsed >= dur {
			break
		}
	}
	ph.offered = uint64(issued)
	wg.Wait()
	ph.ok, ph.rejected, ph.missed, ph.other = ok.Load(), rejected.Load(), missed.Load(), other.Load()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		ph.p50, ph.p99 = lat[len(lat)/2], lat[len(lat)*99/100]
	}
	return ph
}

// e19Capacity measures closed-loop throughput with twice as many callers as
// service slots, so the slots never idle between calls — the sustainable
// service rate everything else is scaled from. The closed-loop calls also
// train the admission estimator's service-time EWMA before the phases run.
func e19Capacity(cl *aas.Client, callers int) int {
	const window = 600 * time.Millisecond
	var served atomic.Uint64
	var wg sync.WaitGroup
	end := time.Now().Add(window)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(end) {
				if _, err := cl.Call(ctx, "work", "x"); err == nil {
					served.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(float64(served.Load()) / window.Seconds())
}

// e19System boots one Busy system; seed toggles the pre-governance
// configuration (FIFO mailboxes, no admission control).
func e19System(slots int, service, patience time.Duration, seed bool) *aas.System {
	reg := aas.NewRegistry()
	reg.MustRegister("Busy", "1.0", nil, func() any {
		return &e19Busy{slots: make(chan struct{}, slots), service: service, patience: patience}
	})
	sys, err := aas.Load(e19ADL, aas.Options{Registry: reg.Registry, NoOverloadControl: seed})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	return sys
}

func runE19() {
	const (
		// The slot pool, not the platform, is the capacity limit: a component
		// runs as many handlers at once as requests are delivered to it. 4 is
		// the parallelism the admission estimator divides its backlog by.
		slots    = 4
		service  = 5 * time.Millisecond
		budget   = 3 * service // callers wait at most 3 service times
		phaseDur = 1200 * time.Millisecond
	)
	multipliers := []int{1, 4, 10}

	run := func(label string, seed bool) map[int]e19Phase {
		sys := e19System(slots, service, 2*budget, seed)
		defer sys.Stop()
		cl := sys.Client("Busy")
		capacity := e19Capacity(cl, 2*slots)
		base := capacity * 7 / 10
		fmt.Printf("%s: measured capacity %d calls/s, base rate %d calls/s (0.7x)\n", label, capacity, base)
		budgeted := cl.With(aas.WithDeadline(budget))
		out := map[int]e19Phase{}
		for _, m := range multipliers {
			ph := e19Drive(budgeted, base*m, phaseDur)
			out[m] = ph
			fmt.Printf("  %2dx: %s\n", m, ph)
			// Let any backlog (seed mode builds a deep one) drain before the
			// next phase so phases measure steady state, not leftovers.
			drain := time.Now().Add(10 * time.Second)
			for sys.PendingCalls() > 0 && time.Now().Before(drain) {
				time.Sleep(10 * time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond)
		}
		return out
	}

	gov := run("governed (admission + EDF + shedding)", false)
	seed := run("seed (FIFO, no admission)", true)

	fmt.Printf("\ngoodput of admitted calls at 4x overload: governed %.1f%% vs seed %.1f%%\n",
		100*gov[4].goodput(), 100*seed[4].goodput())
	if p1, p4 := gov[1].p99, gov[4].p99; p1 > 0 && p4 > 0 {
		fmt.Printf("governed p99 of successful calls: 1x=%v 4x=%v (%.2fx)\n",
			p1.Round(time.Microsecond), p4.Round(time.Microsecond), float64(p4)/float64(p1))
	}

	// Assertions cover the governed system only; the seed numbers above
	// document the collapse this PR exists to prevent.
	g4 := gov[4]
	if g4.goodput() < 0.90 {
		log.Fatalf("E19 FAILED: governed goodput at 4x = %.1f%%, want >= 90%%", 100*g4.goodput())
	}
	if gov[1].p99 > 0 && g4.p99 > 2*gov[1].p99 {
		log.Fatalf("E19 FAILED: governed p99 at 4x = %v, more than 2x the 1x p99 %v", g4.p99, gov[1].p99)
	}
	if g4.other != 0 {
		log.Fatalf("E19 FAILED: %d unexpected errors under overload", g4.other)
	}
	fmt.Println("governed system holds >=90% goodput and flat p99 through 4x overload; seed numbers above show the collapse")
}
