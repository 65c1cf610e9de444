// Package qos models quality-of-service contracts and run-time monitors —
// the substrate behind the paper's requirement that "systems should also
// keep compliant with the contracted quality of service" and behind the
// quality-aware middleware it cites ([Blair00], [Berg00]).
//
// A Contract bounds statistics over QoS dimensions; a Monitor ingests
// timestamped samples into sliding windows and evaluates contracts,
// producing violation reports that the RAML uses as adaptation triggers.
package qos

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Dimension is a QoS dimension.
type Dimension int

// The QoS dimensions used across the framework.
const (
	Latency Dimension = iota + 1
	Throughput
	Availability
	Jitter
	Loss
)

var dimNames = map[Dimension]string{
	Latency:      "latency",
	Throughput:   "throughput",
	Availability: "availability",
	Jitter:       "jitter",
	Loss:         "loss",
}

// String implements fmt.Stringer.
func (d Dimension) String() string {
	if s, ok := dimNames[d]; ok {
		return s
	}
	return "unknown"
}

// Stat selects the statistic a bound constrains.
type Stat int

// Statistics computable over a window.
const (
	Mean Stat = iota + 1
	P50
	P95
	P99
	Max
	Min
	Rate // samples per second over the window span
)

var statNames = map[Stat]string{
	Mean: "mean", P50: "p50", P95: "p95", P99: "p99", Max: "max", Min: "min", Rate: "rate",
}

// String implements fmt.Stringer.
func (s Stat) String() string {
	if n, ok := statNames[s]; ok {
		return n
	}
	return "unknown"
}

// Bound is one clause of a contract: the statistic of a dimension must stay
// below (Upper) or above (lower) the limit.
type Bound struct {
	Dimension Dimension
	Stat      Stat
	Limit     float64
	Upper     bool // true: observed must be <= Limit; false: >= Limit
}

// String renders e.g. "latency.p95 <= 0.050".
func (b Bound) String() string {
	op := ">="
	if b.Upper {
		op = "<="
	}
	return fmt.Sprintf("%s.%s %s %g", b.Dimension, b.Stat, op, b.Limit)
}

// Contract is a named set of bounds ("the contracted quality of service").
type Contract struct {
	Name   string
	Bounds []Bound
}

// Violation reports one bound whose observed statistic breaks the limit.
type Violation struct {
	Bound    Bound
	Observed float64
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s (observed %g)", v.Bound, v.Observed)
}

// Report is the result of evaluating a contract against a monitor.
type Report struct {
	Contract   string
	At         time.Time
	Compliant  bool
	Violations []Violation
}

// String implements fmt.Stringer.
func (r Report) String() string {
	if r.Compliant {
		return r.Contract + ": compliant"
	}
	parts := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		parts[i] = v.String()
	}
	return r.Contract + ": VIOLATED [" + strings.Join(parts, "; ") + "]"
}

// The observation data plane: every served request records samples, so
// Record must not serialize the traffic it observes. Each dimension owns a
// ring of sample slots behind one atomic claim cursor. A writer claims a
// globally-ordered index with one atomic add; consecutive claims are striped
// across ringShards shard regions so concurrent writers land on distinct
// cache lines. Slots publish through a per-slot sequence word (a seqlock):
// the writer zeroes the sequence, stores timestamp and value, then stores
// the claim index + 1; readers who observe a zero or a changed sequence skip
// the slot. Record therefore takes no lock and performs no allocation;
// window trimming and the maxN cap are deferred to read time, where the
// reader gathers valid slots, drops those older than the window cutoff, and
// keeps the maxN most recently claimed.
//
// A writer suspended for an entire ring revolution (≥ ringShards×perShard
// claims) can in principle publish a slot whose timestamp and value come
// from two different Record calls; both halves are genuine window samples,
// so the window statistics stay sound. The minimum per-shard capacity below
// makes the revolution at least 512 claims long.
const (
	ringShards       = 8 // power of two
	minShardCapacity = 64
)

// slot is one published sample. All fields are atomics so the read side
// never races the lock-free write side.
type slot struct {
	seq  atomic.Uint64 // claim index + 1; 0 while empty or being written
	at   atomic.Int64  // sample time, UnixNano
	bits atomic.Uint64 // math.Float64bits of the value
}

// dimRing is one dimension's sharded ring buffer.
type dimRing struct {
	cursor   atomic.Uint64
	_        [7]uint64 // keep neighbouring dimensions' cursors off this line
	perShard uint64    // power of two
	slots    []slot    // ringShards × perShard
}

func newDimRing(maxN int) *dimRing {
	per := uint64(minShardCapacity)
	for per*ringShards < uint64(maxN) {
		per <<= 1
	}
	return &dimRing{perShard: per, slots: make([]slot, ringShards*per)}
}

// record claims the next global index and publishes the sample.
func (r *dimRing) record(atNanos int64, v float64) {
	g := r.cursor.Add(1) - 1
	shard := g & (ringShards - 1)
	idx := (g / ringShards) & (r.perShard - 1)
	s := &r.slots[shard*r.perShard+idx]
	s.seq.Store(0)
	s.at.Store(atNanos)
	s.bits.Store(math.Float64bits(v))
	s.seq.Store(g + 1)
}

// rsample is a sample gathered by the read side.
type rsample struct {
	seq uint64
	at  int64
	v   float64
}

// gather snapshots every published slot not older than cutoff, in slot
// order. Every statistic is order-free, so only a window over maxN is sorted
// by claim sequence, to keep the maxN most recently claimed.
func (r *dimRing) gather(cutoff int64, maxN int) []rsample {
	// At most cursor claims have ever been published; size the result for
	// the early window instead of the full ring capacity.
	n := uint64(len(r.slots))
	if c := r.cursor.Load(); c < n {
		n = c
	}
	if n == 0 {
		return nil
	}
	out := make([]rsample, 0, n)
	for i := range r.slots {
		s := &r.slots[i]
		s1 := s.seq.Load()
		if s1 == 0 {
			continue
		}
		at := s.at.Load()
		bits := s.bits.Load()
		if s.seq.Load() != s1 {
			continue // overwritten mid-read; the newer sample has its own slot pass
		}
		if at < cutoff {
			continue
		}
		out = append(out, rsample{seq: s1, at: at, v: math.Float64frombits(bits)})
	}
	if len(out) > maxN {
		sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
		out = out[len(out)-maxN:]
	}
	return out
}

// Monitor keeps sliding windows of samples per dimension. It is safe for
// concurrent use; Record is lock-free and, after a dimension's first
// sample, allocation-free.
type Monitor struct {
	clk    clock.Clock
	window time.Duration
	maxN   int

	// rings are installed lazily on a dimension's first Record (one CAS),
	// so dimensions that are never recorded cost nothing — at the core
	// default maxN of 1<<14 an eager ring would be ~400KB per dimension.
	rings    [Loss + 1]atomic.Pointer[dimRing]
	rejected atomic.Uint64
}

// NewMonitor builds a monitor keeping at most maxN samples per dimension
// within the trailing window. Zero values get sane defaults (10s window,
// 4096 samples).
func NewMonitor(clk clock.Clock, window time.Duration, maxN int) *Monitor {
	if clk == nil {
		clk = clock.Real{}
	}
	if window <= 0 {
		window = 10 * time.Second
	}
	if maxN <= 0 {
		maxN = 4096
	}
	return &Monitor{clk: clk, window: window, maxN: maxN}
}

// ring returns d's ring, installing it on first use. Lock-free: losers of
// the install race simply adopt the winner's ring.
func (m *Monitor) ring(d Dimension) *dimRing {
	if r := m.rings[d].Load(); r != nil {
		return r
	}
	fresh := newDimRing(m.maxN)
	if m.rings[d].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return m.rings[d].Load()
}

// Record ingests one sample for d. Non-finite samples (NaN, ±Inf) are
// rejected at ingestion — a single poisoned sample would otherwise wedge
// every mean/percentile statistic and the trigger predicates reading them —
// and counted in Rejected. Unknown dimensions are ignored.
func (m *Monitor) Record(d Dimension, v float64) {
	if d < Latency || d > Loss {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.rejected.Add(1)
		return
	}
	m.ring(d).record(m.clk.Now().UnixNano(), v)
}

// RecordAt ingests one sample for d stamped with a caller-supplied unix-ns
// timestamp. The telemetry auto-feed path uses it: a finished span already
// holds its end timestamp from the serve clock read, so feeding Latency and
// Throughput through RecordAt costs no extra clock read per request.
// Validation matches Record.
func (m *Monitor) RecordAt(d Dimension, atNanos int64, v float64) {
	if d < Latency || d > Loss {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.rejected.Add(1)
		return
	}
	m.ring(d).record(atNanos, v)
}

// Rejected reports how many non-finite samples were refused at ingestion.
func (m *Monitor) Rejected() uint64 { return m.rejected.Load() }

// live gathers the current window for d (nil for unknown or never-recorded
// dimensions).
func (m *Monitor) live(d Dimension) []rsample {
	if d < Latency || d > Loss {
		return nil
	}
	r := m.rings[d].Load()
	if r == nil {
		return nil
	}
	cutoff := m.clk.Now().Add(-m.window).UnixNano()
	return r.gather(cutoff, m.maxN)
}

// Count returns the number of live samples for d.
func (m *Monitor) Count(d Dimension) int {
	return len(m.live(d))
}

// Stat computes the statistic for d over the live window. ok is false when
// the window is empty.
func (m *Monitor) Stat(d Dimension, st Stat) (float64, bool) {
	return statFromSamples(m.live(d), st)
}

// statFromSamples computes one statistic over an already-gathered window,
// so readers needing several statistics (Evaluate) gather once.
func statFromSamples(s []rsample, st Stat) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	switch st {
	case Mean:
		return mean(s), true
	case P50:
		return percentile(values(s), 0.50), true
	case P95:
		return percentile(values(s), 0.95), true
	case P99:
		return percentile(values(s), 0.99), true
	case Max, Min:
		ext := s[0].v
		for _, smp := range s {
			if st == Max {
				ext = max(ext, smp.v)
			} else {
				ext = min(ext, smp.v)
			}
		}
		return ext, true
	case Rate:
		// Span from timestamp extremes, not first/last-by-sequence: a Record
		// reads the clock before claiming its ring slot, so a preempted
		// writer can publish a high sequence with an older timestamp.
		minAt, maxAt := s[0].at, s[0].at
		for _, smp := range s {
			minAt, maxAt = min(minAt, smp.at), max(maxAt, smp.at)
		}
		if maxAt <= minAt {
			return 0, false
		}
		return float64(len(s)-1) / time.Duration(maxAt-minAt).Seconds(), true
	default:
		return 0, false
	}
}

// mean sums the window in gather order, so every reader agrees to the bit.
func mean(s []rsample) float64 {
	sum := 0.0
	for _, smp := range s {
		sum += smp.v
	}
	return sum / float64(len(s))
}

// values copies the window's sample values.
func values(s []rsample) []float64 {
	vals := make([]float64, len(s))
	for i, smp := range s {
		vals[i] = smp.v
	}
	return vals
}

// percentile computes the nearest-rank percentile (0 ≤ p ≤ 1) of vals,
// sorting vals in place.
func percentile(vals []float64, p float64) float64 {
	sort.Float64s(vals)
	return vals[int(p*float64(len(vals)-1)+0.5)]
}

// Snapshot exports every dimension's mean/p95/max as a flat metric map
// ("latency.p95" etc.) for the strategy and trigger layers. Each dimension
// is gathered from its ring once and its values copied and sorted once; all
// three statistics derive from that one window.
func (m *Monitor) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for d := Latency; d <= Loss; d++ {
		s := m.live(d)
		if len(s) == 0 {
			continue
		}
		vals := values(s)
		name := d.String() + "."
		out[name+Mean.String()] = mean(s)
		out[name+P95.String()] = percentile(vals, 0.95) // sorts vals
		out[name+Max.String()] = vals[len(vals)-1]
	}
	return out
}

// Evaluate checks every bound of c against the live windows. Bounds over
// empty windows are skipped (no data is not a violation). Each dimension's
// window is gathered once, however many bounds constrain it.
func (m *Monitor) Evaluate(c Contract) Report {
	rep := Report{Contract: c.Name, At: m.clk.Now(), Compliant: true}
	windows := map[Dimension][]rsample{}
	for _, b := range c.Bounds {
		s, ok := windows[b.Dimension]
		if !ok {
			s = m.live(b.Dimension)
			windows[b.Dimension] = s
		}
		obs, ok := statFromSamples(s, b.Stat)
		if !ok {
			continue
		}
		broken := (b.Upper && obs > b.Limit) || (!b.Upper && obs < b.Limit)
		if broken {
			rep.Compliant = false
			rep.Violations = append(rep.Violations, Violation{Bound: b, Observed: obs})
		}
	}
	return rep
}
