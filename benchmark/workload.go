package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	aas "repro"
)

// workload is one closed-loop traffic shape. Callers are components that
// wait for a reply, so every workload is a closed loop with one caller
// goroutine; remote workloads cross one loopback TCP peer link.
type workload struct {
	name, why string
	remote    bool // two-node cluster, Front@n1 and Store@n2
	adapted   bool // untyped Front.fetch through Link and the adaptation set
	window    int  // calls kept in flight: 1 is unary
	churnAll  bool // churn beside every slice, end to end too, not only in a traced run
}

var workloads = []workload{
	{name: "local_typed", window: 1,
		why: "typed handle to a local Store with empty pipelines: client edge, admission, mailbox, serve loop, container and reply pump do all the work"},
	{name: "local_reconfig", window: 1, adapted: true, churnAll: true,
		why: "Front.fetch through connector, filters, meta-object and aspects while every 10 ms a churn round rewrites them: control-plane writes beside data-plane reads"},
	{name: "remote_unary", window: 1, remote: true,
		why: "typed get with a 5 s deadline across a 2-node loopback cluster, one call in flight: gateway, egress, wire codec, TCP and peer serve in batches of one"},
	{name: "remote_pipelined", window: 16, remote: true,
		why: "same cluster with a sliding window of 16 calls in flight: egress coalescing and read-pump reuse do the work, so a latency win that costs batching shows here"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	churnPeriod = 10 * time.Millisecond
	callBudget  = 5 * time.Second
	// maxSamples bounds the per-slice latency log (two uint32 per call);
	// 512 Ki calls in a 0.5 s slice is a 1 µs call, a third of today's fastest.
	maxSamples = 1 << 19
	// firstCalls is how many verified calls count as set-up: the ones that
	// pay for lazily built state (pools, estimators, socket buffers).
	firstCalls = 256
	// traceBatch is how many calls run between two span drains in a traced
	// slice: 3 spans a call must fit the recorder's 4096-slot rings.
	traceBatch = 1024
)

// session is a built rig plus the handles the caller drives it through.
type session struct {
	w     workload
	rig   *rig
	seq   []uint16
	pos   int
	typed *aas.TypedClient[string, string]
	front *aas.Client

	// Per-slice call log, in issue order: start offset from the slice start
	// t0 and latency, both in nanoseconds. The call at log index i asked for
	// the key at sequence position pos0+i.
	t0           time.Time
	pos0         int
	starts, lats []uint32
	ok, failed   int
	firstErr     error

	// What set-up took: built is Load or StartCluster with Start, ready adds
	// the handle compile and the first verified calls.
	built, ready time.Duration
}

func build(w workload) (*rig, error) {
	if w.remote {
		return buildCluster()
	}
	return buildLocal(w.adapted)
}

// open builds the system, compiles the handle and makes the first verified
// calls, one at a time: everything a user waits for before the system
// answers at its steady pace.
func open(w workload, seq []uint16) (*session, error) {
	t0 := time.Now()
	r, err := build(w)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, rig: r, seq: seq, built: time.Since(t0)}
	if w.adapted {
		s.front = r.front.Client("Front")
	} else {
		s.typed = aas.ClientOf[string, string](r.front, "Store")
		if w.remote {
			s.typed = s.typed.With(aas.WithDeadline(callBudget))
		}
	}
	for _, k := range seq[:firstCalls] {
		if v, err := s.call(keys[k]); err != nil || v != vals[k] {
			r.close()
			return nil, fmt.Errorf("first calls: key %s: got %q, %v", keys[k], v, err)
		}
		s.ok++
	}
	s.ready = time.Since(t0)
	return s, nil
}

func (s *session) call(key string) (string, error) {
	if s.typed != nil {
		return s.typed.Call(context.Background(), "get", key)
	}
	res, err := s.front.Call(context.Background(), "fetch", key)
	if err != nil {
		return "", err
	}
	if len(res) != 1 {
		return "", fmt.Errorf("fetch returned %d results", len(res))
	}
	v, _ := res[0].(string)
	return v, nil
}

func (s *session) nextKey() uint16 {
	k := s.keyAt(s.pos - s.pos0)
	s.pos++
	return k
}

func (s *session) keyAt(i int) uint16 { return s.seq[(s.pos0+i)&(len(s.seq)-1)] }

// settle verifies one reply and logs the call.
func (s *session) settle(k uint16, v string, err error, start, lat time.Duration) {
	if err == nil && v != vals[k] {
		err = fmt.Errorf("key %s: got %q, want %q", keys[k], v, vals[k])
	}
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.ok++
	if len(s.lats) < cap(s.lats) {
		s.starts = append(s.starts, uint32(start))
		s.lats = append(s.lats, uint32(lat))
	}
}

// drive runs the closed loop for d. batch, when set, is called after every
// traceBatch calls with nothing in flight; it receives the index of the
// batch's first call in the log.
func (s *session) drive(d time.Duration, batch func(first int)) time.Duration {
	s.starts, s.lats, s.pos0 = s.starts[:0], s.lats[:0], s.pos
	s.t0 = time.Now()
	if s.w.window > 1 {
		return s.drivePipelined(d, batch)
	}
	t0 := s.t0
	prev, first := t0, 0
	for {
		k := s.nextKey()
		v, err := s.call(keys[k])
		now := time.Now()
		s.settle(k, v, err, prev.Sub(t0), now.Sub(prev))
		if batch != nil && len(s.lats)-first >= traceBatch {
			batch(first)
			first = len(s.lats)
			now = time.Now()
		}
		prev = now
		if now.Sub(t0) >= d {
			return now.Sub(t0)
		}
	}
}

// drivePipelined keeps window calls in flight: wait for the oldest, issue
// the next. Replies are waited for in issue order, so the log stays in
// issue order and its end times are monotonic.
func (s *session) drivePipelined(d time.Duration, batch func(first int)) time.Duration {
	type flight struct {
		f      *aas.TypedFuture[string, string]
		k      uint16
		issued time.Duration
	}
	ring := make([]flight, s.w.window)
	ctx := context.Background()
	t0 := s.t0
	issue := func(i int) {
		k := s.nextKey()
		ring[i] = flight{k: k, issued: time.Since(t0)}
		ring[i].f = s.typed.Async(ctx, "get", keys[k])
	}
	collect := func(i int) time.Duration {
		v, err := ring[i].f.Wait()
		now := time.Since(t0)
		s.settle(ring[i].k, v, err, ring[i].issued, now-ring[i].issued)
		return now
	}
	first, issued := 0, 0
	for {
		for i := range ring {
			issue(i)
		}
		issued += len(ring)
		for i := 0; ; i = (i + 1) % len(ring) {
			now := collect(i)
			if now >= d || (batch != nil && issued-first >= traceBatch) {
				// Drain: the rest of the window completes, nothing new starts.
				for j := (i + 1) % len(ring); j != i; j = (j + 1) % len(ring) {
					now = collect(j)
				}
				if now >= d {
					return now
				}
				break
			}
			issue(i)
			issued++
		}
		batch(first)
		first = len(s.lats)
		issued = first
	}
}

// round is one pass of the churn goroutine: the paper's reconfiguration
// repertoire, each kind once. Times are offsets from the slice start.
type round struct {
	start, end time.Duration
	late       time.Duration    // how long after its 10 ms schedule it began
	part       [4]time.Duration // swap, aspects, meta-object, filters
	held       int              // messages parked by the swap
}

// churn runs rounds on a 10 ms schedule until stop closes. Every operation
// goes through the System's public intercession surface.
func (s *session) churn(t0 time.Time, stop <-chan struct{}, out *[]round, errs *error) {
	r := s.rig
	transient := storeAspects()[0]
	transient.Name = "churn"
	filter := linkFilters()[0].(aas.TransformFilter)
	filter.FilterName = "churn"
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for due := time.Since(t0) + churnPeriod; ; due += churnPeriod {
		timer.Reset(due - time.Since(t0))
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		rd := round{start: time.Since(t0)}
		rd.late = rd.start - due
		mark, n := rd.start, 0
		lap := func() {
			now := time.Since(t0)
			rd.part[n] = now - mark
			mark = now
			n++
		}
		rep, err := r.back.SwapImplementation("Store", r.entry, true)
		rd.held = rep.HeldMessages
		lap()
		err = errors.Join(err,
			r.back.AttachAspect(transient),
			r.back.EnableAspect("churn", false),
			r.back.EnableAspect("churn", true),
			r.back.RemoveAspect("churn"))
		lap()
		err = errors.Join(err,
			r.back.InsertMetaObject("Store", storeMetaObject("churn")),
			r.back.RemoveMetaObject("Store", "churn"))
		lap()
		err = errors.Join(err,
			r.front.AttachFilter("Front", "get", aas.FilterInput, filter),
			r.front.DetachFilter("Front", "get", aas.FilterInput, "churn"))
		lap()
		rd.end = mark
		if err != nil {
			*errs = errors.Join(*errs, err)
		}
		*out = append(*out, rd)
	}
}

// slice is what one measured slice yields. Timings are nanoseconds.
type slice struct {
	churned bool
	traced  bool // set by the traced run: spans were on
	dur     time.Duration
	calls   int
	p50     float64
	p99     float64
	cpu     float64 // process user+sys CPU per call
	allocs  float64 // heap allocations per call, whole process
	bytes   float64 // heap bytes per call, whole process
	rounds  []round
	// blackouts holds, per round, the longest call that overlapped it.
	blackouts []float64
	busSent   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *session) busSent() uint64 {
	var n uint64
	for _, sys := range s.rig.systems {
		n += sys.Telemetry().Bus.Sent
	}
	return n
}

// measure runs one slice of d, with the churn goroutine beside it when
// churned, and reduces its log.
func (s *session) measure(d time.Duration, churned bool, batch func(first int)) (slice, error) {
	out := slice{churned: churned}
	var (
		stop     = make(chan struct{})
		done     = make(chan struct{})
		churnErr error
		before   runtime.MemStats
		after    runtime.MemStats
	)
	if s.lats == nil {
		s.starts, s.lats = make([]uint32, 0, maxSamples), make([]uint32, 0, maxSamples)
	}
	failedBefore, okBefore := s.failed, s.ok
	sent := s.busSent()
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	t0 := time.Now()
	if churned {
		out.rounds = make([]round, 0, int(d/churnPeriod)+1)
		go func() {
			defer close(done)
			s.churn(t0, stop, &out.rounds, &churnErr)
		}()
	} else {
		close(done)
	}
	out.dur = s.drive(d, batch)
	close(stop)
	<-done
	cpu = cpuTime() - cpu
	runtime.ReadMemStats(&after)
	out.busSent = s.busSent() - sent
	out.calls = s.ok - okBefore
	if churnErr != nil {
		return out, fmt.Errorf("churn: %w", churnErr)
	}
	if s.failed != failedBefore || out.calls == 0 {
		return out, fmt.Errorf("%d of %d calls failed, first: %v",
			s.failed-failedBefore, s.failed-failedBefore+out.calls, s.firstErr)
	}
	n := float64(out.calls)
	out.cpu = float64(cpu) / n
	out.allocs = float64(after.Mallocs-before.Mallocs) / n
	out.bytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	out.blackouts = s.blackouts(out.rounds)
	slices.Sort(s.lats)
	out.p50 = quantileSorted(s.lats, 0.50)
	out.p99 = quantileSorted(s.lats, 0.99)
	return out, nil
}

// blackouts finds, for each round, the longest call whose interval
// overlapped it. The log is in issue order with monotonic end times.
func (s *session) blackouts(rounds []round) []float64 {
	out := make([]float64, 0, len(rounds))
	p := 0
	for _, rd := range rounds {
		a, b := uint32(rd.start), uint32(rd.end)
		for p < len(s.lats) && s.starts[p]+s.lats[p] <= a {
			p++
		}
		worst := uint32(0)
		for j := p; j < len(s.lats) && s.starts[j] < b; j++ {
			worst = max(worst, s.lats[j])
		}
		if worst > 0 {
			out = append(out, float64(worst))
		}
	}
	return out
}

// warm runs the closed loop unrecorded for d, so lazy set-up (pools, EWMA
// estimators, TCP buffers) is paid before the first slice.
func (s *session) warm(d time.Duration) error {
	failed := s.failed
	s.drive(d, nil)
	if s.failed != failed {
		return fmt.Errorf("warm-up: %d calls failed, first: %v", s.failed-failed, s.firstErr)
	}
	return nil
}
