package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	aas "repro"
)

// layerDef names one per-layer metric of BENCHMARK.json, with the
// prediction it is there to test: which end-to-end metric it should move,
// and on which workloads. bench_test.go holds the list to that file.
type layerDef struct {
	name, unit string
	moves      string // end-to-end metric a change in this layer should move
	on         string // workloads where it should; elsewhere: no change
}

const (
	everywhere = "local_typed local_reconfig remote_unary remote_pipelined"
	remotes    = "remote_unary remote_pipelined"
)

var perLayer = []layerDef{
	{"core.client_self_p50_us", "us", "call_p50_us", "local_typed"},
	{"core.server_queue_p50_us", "us", "call_p50_us", "local_typed"},
	{"core.server_service_p50_us", "us", "call_p50_us", "local_typed"},
	{"core.span_coverage_pct", "%", "call_p50_us", "local_typed"},
	{"core.calls_per_s", "1/s", "call_p50_us", everywhere},
	{"core.call_p99_us", "us", "call_p50_us", everywhere},
	{"core.call_p99_samples", "count", "call_p50_us", everywhere},
	{"core.reconfig_p50_us", "us", "cpu_us_per_call", "local_reconfig"},
	{"core.blackout_p50_us", "us", "call_p50_us", "local_reconfig"},
	{"core.swap_p50_us", "us", "cpu_us_per_call", "local_reconfig"},
	{"core.held_per_swap", "count", "call_p50_us", "local_reconfig"},
	{"core.build_ms", "ms", "setup_s", everywhere},
	{"bus.send_recv_ns", "ns", "call_p50_us", "local_typed"},
	{"bus.edf_send_recv_ns", "ns", "call_p50_us", "remote_unary"},
	{"bus.sent_per_call", "count", "call_p50_us", everywhere},
	{"bus.dropped", "count", "call_p50_us", everywhere},
	{"qos.admit_ns", "ns", "call_p50_us", "remote_unary"},
	{"qos.record_ns", "ns", "call_p50_us", everywhere},
	{"filters.eval_ns", "ns", "call_p50_us", "local_reconfig"},
	{"aspects.invoke_ns", "ns", "call_p50_us", "local_reconfig"},
	{"metaobj.execute_ns", "ns", "call_p50_us", "local_reconfig"},
	{"connector.mediate_p50_us", "us", "call_p50_us", "local_reconfig"},
	{"filters.churn_p50_us", "us", "cpu_us_per_call", "local_reconfig"},
	{"aspects.toggle_p50_us", "us", "cpu_us_per_call", "local_reconfig"},
	{"metaobj.churn_p50_us", "us", "cpu_us_per_call", "local_reconfig"},
	{"container.invoke_ns", "ns", "call_p50_us", "local_reconfig"},
	{"container.invoke_typed_ns", "ns", "call_p50_us", "local_typed " + remotes},
	{"container.snapshot_restore_us", "us", "cpu_us_per_call", "local_reconfig"},
	{"wire.encode_call_ns", "ns", "cpu_us_per_call", remotes},
	{"wire.decode_call_ns", "ns", "cpu_us_per_call", remotes},
	{"wire.encode_reply_ns", "ns", "cpu_us_per_call", remotes},
	{"wire.decode_reply_ns", "ns", "cpu_us_per_call", remotes},
	{"wire.call_frame_bytes", "B", "bytes_per_call", remotes},
	{"wire.reply_frame_bytes", "B", "bytes_per_call", remotes},
	{"cluster.forward_p50_us", "us", "call_p50_us", "remote_unary"},
	{"cluster.loopback_rtt_p50_us", "us", "call_p50_us", "remote_unary"},
	{"cluster.remote_self_p50_us", "us", "call_p50_us", "remote_unary"},
	{"cluster.frames_per_write", "count", "call_p50_us", "remote_pipelined"},
	{"cluster.writes_per_call", "count", "cpu_us_per_call", "remote_pipelined"},
	{"telemetry.span_record_ns", "ns", "call_p50_us", everywhere},
	{"telemetry.trace_overhead_pct", "%", "call_p50_us", everywhere},
	{"telemetry.spans_lost", "count", "call_p50_us", everywhere},
}

// tracer is the traced run's instrumentation: a root span around each
// handle call, joined after every batch to the spans the platform itself
// recorded for that call. Slices alternate between tracing off (sampling
// 0, no root spans) and on, so the run prices tracing against itself.
type tracer struct {
	s    *session
	on   bool
	wall int64 // unix ns: spans starting earlier belong to an earlier batch
	buf  []aas.Span
	idx  map[int64]int // trace id -> call index within the batch

	// One entry per joined call, nanoseconds.
	root, client, clientSelf, queue, service, forward []uint32
	unjoined                                          int
	kept                                              []tracedCall
}

// tracedCall is one call as the span file shows it: the benchmark's root
// span and the platform spans that share its trace id.
type tracedCall struct {
	Key   string     `json:"key"`
	Start int64      `json:"root_start"`
	End   int64      `json:"root_end"`
	Spans []aas.Span `json:"spans"`
}

const (
	keptPerBatch = 2
	keptMax      = 2048
)

func newTracer(s *session) *tracer {
	return &tracer{s: s, idx: make(map[int64]int, traceBatch)}
}

// begin switches span recording for the coming slice and returns its batch
// hook. An untraced slice gets a hook too: it does nothing, but the caller
// loop pauses at the same points, so both kinds of slice run the same loop.
func (t *tracer) begin(on bool) func(first int) {
	t.on = on
	rate := 0
	if on {
		rate = 1
	}
	for _, sys := range t.s.rig.systems {
		sys.Recorder().SetSampling(rate)
	}
	t.wall = time.Now().UnixNano()
	return t.batch
}

func (t *tracer) end() {
	for _, sys := range t.s.rig.systems {
		sys.Recorder().SetSampling(1)
	}
}

// batch joins the calls logged since first with their platform spans. The
// caller loop is single-file, so the batch's client spans, ordered by
// start, line up one to one with its calls in issue order; every other span
// finds its call through the trace id the client span carries.
func (t *tracer) batch(first int) {
	defer func() { t.wall = time.Now().UnixNano() }()
	if !t.on {
		return
	}
	s := t.s
	n := len(s.lats) - first
	t.buf = t.buf[:0]
	for _, sys := range s.rig.systems {
		t.buf = sys.Recorder().Spans(t.buf)
	}
	spans := t.buf[:0]
	for _, sp := range t.buf {
		if sp.Start >= t.wall {
			spans = append(spans, sp)
		}
	}
	slices.SortFunc(spans, func(a, b aas.Span) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Start, b.Start))
	})
	clients := 0
	for clients < len(spans) && spans[clients].Kind == aas.SpanClient {
		clients++
	}
	if clients != n {
		t.unjoined += n
		return
	}
	clear(t.idx)
	for i, sp := range spans[:clients] {
		t.idx[sp.Trace] = i
	}
	base := len(t.root)
	for i, sp := range spans[:clients] {
		t.root = append(t.root, s.lats[first+i])
		t.client = append(t.client, uint32(sp.End-sp.Start))
		t.queue, t.service, t.forward = append(t.queue, 0), append(t.service, 0), append(t.forward, 0)
	}
	for _, sp := range spans[clients:] {
		i, ok := t.idx[sp.Trace]
		if !ok {
			continue
		}
		switch sp.Kind {
		case aas.SpanServer:
			t.queue[base+i], t.service[base+i] = uint32(sp.Queue), uint32(sp.End-sp.Start)
		case aas.SpanForward:
			t.forward[base+i] = uint32(sp.End - sp.Start)
		}
	}
	// A span's self time is its duration minus what its children cover: the
	// forward span when the call left the node, else the server span with
	// its queue wait.
	for i := base; i < len(t.root); i++ {
		child := t.forward[i]
		if child == 0 {
			child = t.queue[i] + t.service[i]
		}
		t.clientSelf = append(t.clientSelf, t.client[i]-min(child, t.client[i]))
	}
	for i := 0; i < keptPerBatch && len(t.kept) < keptMax; i++ {
		start := s.t0.UnixNano() + int64(s.starts[first+i])
		tc := tracedCall{Key: keys[s.keyAt(first+i)], Start: start, End: start + int64(s.lats[first+i])}
		for _, sp := range spans {
			if sp.Trace == spans[i].Trace {
				tc.Spans = append(tc.Spans, sp)
			}
		}
		t.kept = append(t.kept, tc)
	}
}

// tracedSlice builds w, warms it for one slice and traces a second.
func tracedSlice(w workload, seq []uint16, d time.Duration) (*tracer, error) {
	s, err := open(w, seq)
	if err != nil {
		return nil, err
	}
	defer s.rig.close()
	if err := s.warm(d); err != nil {
		return nil, err
	}
	t := newTracer(s)
	_, err = s.measure(d, false, t.begin(true))
	return t, err
}

func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"workload": workload, "joined_calls": len(t.root),
		"unjoined_calls": t.unjoined, "sample": t.kept}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers fills in every per-layer metric: from the joined spans, from the
// counters read at slice boundaries, from the churn log, and from the
// isolated probes.
func layers(res *result, o runOpts, s *session, t *tracer, all []slice, builds []time.Duration) error {
	v, err := runProbes(o.probe)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	us := func(ns float64) float64 { return ns / 1e3 }

	v["core.client_self_p50_us"] = us(median(t.clientSelf))
	v["core.server_queue_p50_us"] = us(median(t.queue))
	v["core.server_service_p50_us"] = us(median(t.service))
	if r := median(t.root); r > 0 {
		v["core.span_coverage_pct"] = 100 * median(t.client) / r
	}

	var (
		calls, sent, tracedCalls   float64
		tracedTime                 time.Duration
		swaps, aspect, meta, filts []time.Duration
		held                       float64
		traced, untraced, p99s     []float64
	)
	for _, sl := range all {
		calls += float64(sl.calls)
		sent += float64(sl.busSent)
		if sl.traced {
			tracedCalls += float64(sl.calls)
			tracedTime += sl.dur
		}
		for _, rd := range sl.rounds {
			swaps, aspect = append(swaps, rd.part[0]), append(aspect, rd.part[1])
			meta, filts = append(meta, rd.part[2]), append(filts, rd.part[3])
			held += float64(rd.held)
		}
		// Tracing is priced on the slices an end-to-end run reads, reduced
		// the same way; a churned slice of a workload that does not churn
		// end to end, always a traced one, does not count against it.
		switch {
		case sl.churned && !o.w.churnAll:
		case sl.traced:
			traced, p99s = append(traced, sl.p50), append(p99s, sl.p99)
		default:
			untraced = append(untraced, sl.p50)
		}
	}
	took, blackouts := pooledRounds(all)
	v["core.calls_per_s"] = tracedCalls / tracedTime.Seconds()
	v["core.call_p99_us"] = us(floor(p99s))
	v["core.call_p99_samples"] = tracedCalls
	v["core.reconfig_p50_us"] = us(median(took))
	v["core.blackout_p50_us"] = us(median(blackouts))
	v["core.swap_p50_us"] = us(median(swaps))
	v["aspects.toggle_p50_us"] = us(median(aspect))
	v["metaobj.churn_p50_us"] = us(median(meta))
	v["filters.churn_p50_us"] = us(median(filts))
	v["core.held_per_swap"] = held / float64(len(swaps))
	v["core.build_ms"] = median(builds) / 1e6
	v["bus.sent_per_call"] = sent / calls
	for _, sys := range s.rig.systems {
		v["bus.dropped"] += float64(sys.Telemetry().Bus.Dropped)
	}
	var writes, frames uint64
	for _, n := range s.rig.nodes {
		w, f := n.BatchStats()
		writes, frames = writes+w, frames+f
	}
	if writes > 0 {
		v["cluster.frames_per_write"] = float64(frames) / float64(writes)
		v["cluster.writes_per_call"] = float64(writes) / float64(s.ok)
	}
	// The cluster plane carries none of a local workload's calls. Its two
	// span metrics are then priced beside the run, as the probes are: one
	// traced slice of remote_unary on a cluster of its own.
	remote := t
	if !s.w.remote {
		unary, _ := findWorkload("remote_unary")
		if remote, err = tracedSlice(unary, s.seq, o.sliceLen); err != nil {
			return fmt.Errorf("cluster probe: %w", err)
		}
	}
	// What the cluster plane itself adds to a remote call: the root span
	// minus the kernel's round trip, the peer's serve span and the codec.
	codec := v["wire.encode_call_ns"] + v["wire.decode_call_ns"] + v["wire.encode_reply_ns"] + v["wire.decode_reply_ns"]
	v["cluster.forward_p50_us"] = us(median(remote.forward))
	v["cluster.remote_self_p50_us"] = us(median(remote.root)-median(remote.queue)-median(remote.service)-codec) - v["cluster.loopback_rtt_p50_us"]
	off := floor(untraced)
	v["telemetry.trace_overhead_pct"] = 100 * (floor(traced) - off) / off
	v["telemetry.spans_lost"] = float64(s.rig.spansLost()) + float64(t.unjoined)

	for _, d := range perLayer {
		res.Metrics[d.name] = metric{v[d.name], d.unit}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("spans: %d calls joined, %d not, %d kept in %s",
		len(t.root), t.unjoined, len(t.kept), o.spanFile))
	if o.spanFile == "" {
		return nil
	}
	return t.write(o.spanFile, o.w.name)
}
