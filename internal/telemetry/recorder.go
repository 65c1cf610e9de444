package telemetry

import "sync/atomic"

// Kind classifies which edge of the call path a span covers.
type Kind uint8

// Span kinds.
const (
	KindClient  Kind = 1 // compiled client-handle edge: admit → reply
	KindServer  Kind = 2 // component serve: dequeue → reply built
	KindForward Kind = 3 // cluster gateway: wire forward → remote reply
	KindStream  Kind = 4 // stream open edge (client or serving side)
)

// Outcome classifies how a span ended. Values 0–5 mirror
// connector.ErrKind / the wire reply kind byte, so outcomes cross layers
// unmapped; the shed outcomes extend the numbering.
type Outcome uint8

// Span outcomes.
const (
	OutcomeOK                Outcome = 0
	OutcomeAppError          Outcome = 1
	OutcomeDeadline          Outcome = 2
	OutcomeCancelled         Outcome = 3
	OutcomeNoSuchComponent   Outcome = 4
	OutcomeStreamUnsupported Outcome = 5
	OutcomeOverload          Outcome = 6 // rejected by admission control
	OutcomeShed              Outcome = 7 // expired work shed before service
)

// Span is one recorded hop of a traced call: a plain struct so recording is
// a handful of word stores into a preallocated ring slot. Op, Component,
// Src and Dst are string headers copied from values the caller already
// holds (interned op/component names, node names) — assignment copies the
// header, never the bytes.
type Span struct {
	Trace   int64   `json:"trace"`  // trace id; never zero in a recorded span
	ID      uint32  `json:"id"`     // this span's id
	Parent  uint32  `json:"parent"` // parent span id; zero for the root
	Start   int64   `json:"start"`  // unix nanoseconds
	End     int64   `json:"end"`    // unix nanoseconds
	Queue   int64   `json:"queue"`  // nanoseconds queued before service (server spans)
	Op      string  `json:"op"`
	Comp    string  `json:"comp"`          // component name
	Src     string  `json:"src,omitempty"` // originating node ("" when unknown/local)
	Dst     string  `json:"dst,omitempty"` // destination node ("" when unknown/local)
	Kind    Kind    `json:"kind"`
	Outcome Outcome `json:"outcome"`
}

// Recorder keeps recent spans in per-shard rings of fixed size. Writes are
// lock-free and allocation-free: the writer claims the next ring position
// with one atomic add, then claims the slot itself with a CAS-based
// try-lock (state even = free, odd = held). Readers use the same claim to
// copy a slot out, so a slot's plain fields are only ever touched by the
// claim holder — mutually exclusive without blocking, and race-detector
// clean. A writer that loses a slot claim (two writers a full ring
// revolution apart landing on the same slot, or a reader mid-copy) drops
// the span and counts it in lost; with the default geometry that needs two
// concurrent claims 4096 positions apart, so in practice lost stays zero.
type Recorder struct {
	rate      atomic.Uint32 // head sampling: 0 = off, n = 1 in n roots
	roots     atomic.Uint64 // sampling counter
	recorded  atomic.Uint64
	lost      atomic.Uint64
	shardMask uint32
	ringMask  uint64
	shards    []recShard
}

// recShard is one ring. The claim cursor gets its own cache line so
// neighbouring shards' writers don't false-share.
type recShard struct {
	pos  atomic.Uint64
	_    [56]byte
	ring []recSlot
}

// recSlot holds one span behind a CAS claim word.
type recSlot struct {
	state atomic.Uint32 // even = free, odd = claimed
	span  Span
}

// Recorder geometry defaults.
const (
	recorderShards  = 8 // power of two
	defaultPerShard = 512
)

// NewRecorder builds a recorder keeping up to perShard spans in each of its
// 8 shards (rounded up to a power of two; <=0 selects the default of 512,
// i.e. 4096 spans total). Sampling starts at 1 (every root traced); use
// SetSampling to thin or disable.
func NewRecorder(perShard int) *Recorder {
	if perShard <= 0 {
		perShard = defaultPerShard
	}
	n := 1
	for n < perShard {
		n <<= 1
	}
	r := &Recorder{
		shardMask: recorderShards - 1,
		ringMask:  uint64(n - 1),
		shards:    make([]recShard, recorderShards),
	}
	for i := range r.shards {
		r.shards[i].ring = make([]recSlot, n)
	}
	r.rate.Store(1)
	return r
}

// SetSampling sets the head-sampling rate: 0 disables tracing, 1 traces
// every root, n traces one root in n. Mid-flight traces keep their original
// decision — sampling is decided once, at the root.
func (r *Recorder) SetSampling(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	r.rate.Store(uint32(n))
}

// Sampling returns the current head-sampling rate.
func (r *Recorder) Sampling() int {
	if r == nil {
		return 0
	}
	return int(r.rate.Load())
}

// SampleRoot decides whether a new root call is traced. One atomic load on
// the always/never paths, one atomic add when thinning.
func (r *Recorder) SampleRoot() bool {
	if r == nil {
		return false
	}
	switch n := r.rate.Load(); n {
	case 0:
		return false
	case 1:
		return true
	default:
		return r.roots.Add(1)%uint64(n) == 0
	}
}

// Record publishes one finished span. Lock-free, 0 allocs/op (pinned in
// alloc_test.go); spans with a zero trace id are ignored so callers can
// record unconditionally after stamping.
func (r *Recorder) Record(s Span) { r.RecordClosing(s, nil) }

// RecordClosing is Record for a span that ends with the act of recording
// it: a non-nil now is read into End once the ring slot is claimed, so the
// span covers the claim and leaves only the copy into the slot outside. The
// clock is the caller's — this file stays off the time package.
func (r *Recorder) RecordClosing(s Span, now func() int64) {
	if r == nil || s.Trace == 0 {
		return
	}
	sh := &r.shards[s.ID&r.shardMask]
	i := sh.pos.Add(1) - 1
	sl := &sh.ring[i&r.ringMask]
	st := sl.state.Load()
	if st&1 != 0 || !sl.state.CompareAndSwap(st, st+1) {
		r.lost.Add(1)
		return
	}
	if now != nil {
		s.End = now()
	}
	sl.span = s
	sl.state.Store(st + 2)
	r.recorded.Add(1)
}

// Stats reports lifetime recorder counters: spans recorded, spans dropped
// to slot-claim collisions, and roots considered for sampling.
func (r *Recorder) Stats() (recorded, lost, roots uint64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.recorded.Load(), r.lost.Load(), r.roots.Load()
}

// Spans copies out every live span, appended to dst (pass nil to allocate).
// This is the cold read side — the /trace endpoint and tests — so it simply
// claims each slot the same way a writer would and skips slots it loses.
// Spans within a shard come out oldest-first; across shards the caller
// sorts by Start if order matters.
func (r *Recorder) Spans(dst []Span) []Span {
	if r == nil {
		return dst
	}
	for si := range r.shards {
		sh := &r.shards[si]
		pos := sh.pos.Load()
		n := uint64(len(sh.ring))
		start := uint64(0)
		if pos > n {
			start = pos - n
		}
		for i := start; i < pos; i++ {
			sl := &sh.ring[i&r.ringMask]
			st := sl.state.Load()
			if st&1 != 0 || !sl.state.CompareAndSwap(st, st+1) {
				continue
			}
			s := sl.span
			sl.state.Store(st + 2)
			if s.Trace != 0 {
				dst = append(dst, s)
			}
		}
	}
	return dst
}
