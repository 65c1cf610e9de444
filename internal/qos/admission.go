package qos

import "sync/atomic"

// Admission is a per-component queueing-delay estimator used for
// deadline-aware admission control (DESIGN.md §9). The serve loop feeds it
// one observation per completed request (the measured service time, in
// nanoseconds); callers ask, before committing any resources to a call,
// whether the estimated wait in front of the component already exceeds the
// caller's remaining deadline budget.
//
// The estimate is deliberately simple and deliberately cheap:
//
//	estimatedWait = ewma(serviceTime) × pendingDepth / workers
//
// where pendingDepth is supplied by the caller (mailbox depth plus in-flight
// serves — both readable from existing atomics) and workers is the
// parallelism the estimate assumes: the component's resident serve workers.
// That is a model, not a limit — a component starts spare workers on demand
// and serves everything delivered to it at once, which is why in-flight
// serves count toward pendingDepth. Both Observe and Admit are lock-free and
// allocation-free: the EWMA update is a racy load-compute-store (lost
// updates merely slow convergence, they cannot corrupt the value — the store
// is always a whole int64), which keeps the admission check off every mutex
// in the system.
//
// This file must stay free of the time package: all quantities are int64
// nanoseconds, matching bus.Message.Deadline (the PR 5 size-class lesson —
// a time.Time on the hot path costs an allocation size class).
type Admission struct {
	workers   int64
	ewmaNanos atomic.Int64 // smoothed service time, ns; 0 until first Observe
	admitted  atomic.Uint64
	rejected  atomic.Uint64
}

// ewmaShift is the smoothing factor exponent: α = 1/2^ewmaShift = 1/8.
// Small enough to ride out single-call jitter, large enough that a phase
// change in service time is reflected within ~a dozen calls.
const ewmaShift = 3

// NewAdmission returns an estimator for a component served by the given
// number of workers (≥1 is enforced).
func NewAdmission(workers int) *Admission {
	if workers < 1 {
		workers = 1
	}
	return &Admission{workers: int64(workers)}
}

// Observe folds one measured service time (nanoseconds) into the EWMA.
// Racy by design; see the type comment.
func (a *Admission) Observe(serviceNanos int64) {
	if serviceNanos < 0 {
		return
	}
	cur := a.ewmaNanos.Load()
	if cur == 0 {
		a.ewmaNanos.Store(serviceNanos)
		return
	}
	a.ewmaNanos.Store(cur + (serviceNanos-cur)>>ewmaShift)
}

// EstimatedWaitNanos returns the expected queueing delay for a request
// arriving behind pending others: ewma × pending / workers, clamped against
// overflow. Zero until the first observation (an idle or never-called
// component admits everything).
func (a *Admission) EstimatedWaitNanos(pending int64) int64 {
	ewma := a.ewmaNanos.Load()
	if ewma <= 0 || pending <= 0 {
		return 0
	}
	// Clamp: beyond ~292 years of estimated wait the caller is rejected
	// regardless; avoid the multiply overflowing into a negative admit.
	const maxNanos = int64(1) << 62
	if pending > maxNanos/ewma {
		return maxNanos
	}
	return ewma * pending / a.workers
}

// Verdict is Admit's decision about one call.
type Verdict uint8

const (
	Admitted Verdict = iota
	// Overloaded: the budget covers one expected service time but not the
	// estimated wait as well; a retry once the backlog drains can succeed.
	Overloaded
	// Unmeetable: the call would queue and its budget is shorter than one
	// expected service time; no retry with that budget can succeed.
	Unmeetable
)

// Admit decides a call with the given remaining budget (nanoseconds) given
// the current pending depth. A call arriving behind fewer than workers
// others — a resident worker is parked to take it — is always admitted: an
// idle component is never overloaded, and whether the budget covers the
// service time is the caller's gamble (it expires as DeadlineExceeded, not
// as a retry-later signal). A call that will queue must have budget for
// both the estimated queueing delay AND one expected service time —
// admitting with just enough budget to reach the front of the queue dooms
// the call to expire mid-service, wasting the very capacity admission
// exists to protect. Calls with no deadline (remaining ≤ 0 by convention of
// the caller) must not reach Admit — the caller short-circuits them to
// accepted. Counters are updated either way so operators can see shed
// rates; both refusals count as rejected.
func (a *Admission) Admit(pending, remainingNanos int64) Verdict {
	if pending < a.workers {
		a.admitted.Add(1)
		return Admitted
	}
	ewma := a.ewmaNanos.Load()
	switch {
	case ewma > remainingNanos:
		a.rejected.Add(1)
		return Unmeetable
	case a.EstimatedWaitNanos(pending)+ewma > remainingNanos:
		a.rejected.Add(1)
		return Overloaded
	}
	a.admitted.Add(1)
	return Admitted
}

// AdmissionStats is a point-in-time snapshot of an estimator.
type AdmissionStats struct {
	EWMAServiceNanos int64  // smoothed service time, ns
	Admitted         uint64 // calls accepted by Admit
	Rejected         uint64 // calls shed by Admit
}

// Stats snapshots the estimator's counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		EWMAServiceNanos: a.ewmaNanos.Load(),
		Admitted:         a.admitted.Load(),
		Rejected:         a.rejected.Load(),
	}
}
