package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/filters"
	"repro/internal/metaobj"
	"repro/internal/qos"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Isolated probes: each times one module's public functions from outside,
// on the workloads' own messages, with nothing else running. They say what
// a layer costs per operation; the spans say what it costs inside a call.

// probeCount is how many timed probes runProbes makes; fromSeconds divides
// the probe budget by it.
const probeCount = 17

const probeOps = 1000 // operations per timed batch

// perOp times batches of probeOps calls to op for about d and returns the
// median nanoseconds per call.
func perOp(d time.Duration, op func()) float64 {
	var per []float64
	for end := time.Now().Add(d); len(per) < 5 || time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			op()
		}
		per = append(per, float64(time.Since(t0))/probeOps)
	}
	return median(per)
}

// p50Each times single calls to op for about d and returns their median.
func p50Each(d time.Duration, op func()) float64 {
	var each []time.Duration
	for end := time.Now().Add(d); len(each) < 100 || time.Now().Before(end); {
		t0 := time.Now()
		op()
		each = append(each, time.Since(t0))
	}
	return median(each)
}

// typedGet is the container-level view of a typed get, as core's envelope
// presents it.
type typedGet struct{ req, resp string }

func (t *typedGet) Req() any    { return &t.req }
func (t *typedGet) Resp() any   { return &t.resp }
func (t *typedGet) Args() []any { return []any{t.req} }
func (t *typedGet) SetResults(res []any) error {
	t.resp, _ = res[0].(string)
	return nil
}

var sink any

func runProbes(d time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	key, val := keys[7], vals[7]
	request := bus.Message{Kind: bus.Request, Op: "get", Src: "probe", Dst: "p",
		Payload: connector.CallPayload{Args: []any{key}}}

	// bus: one send and one receive on a bare bus, FIFO lane and EDF lane.
	b := bus.New()
	ep, err := b.Attach("p", 64)
	if err != nil {
		return nil, err
	}
	sendRecv := func(m bus.Message) func() {
		return func() {
			if err := b.Send(m); err != nil {
				panic(err)
			}
			ep.TryReceive()
		}
	}
	out["bus.send_recv_ns"] = perOp(d, sendRecv(request))
	deadlined := request
	deadlined.Deadline = time.Now().Add(time.Hour).UnixNano()
	out["bus.edf_send_recv_ns"] = perOp(d, sendRecv(deadlined))

	// qos: the admission decision a deadline call pays, and one monitor sample.
	adm := qos.NewAdmission(4)
	adm.Observe(3000)
	out["qos.admit_ns"] = perOp(d, func() { adm.Admit(6, int64(callBudget)) })
	mon := qos.NewMonitor(nil, 0, 0)
	out["qos.record_ns"] = perOp(d, func() { mon.Record(qos.Latency, 3e-6) })

	// filters, aspects, metaobj: the adaptation set of local_reconfig.
	var set filters.Set
	for _, f := range linkFilters() {
		if err := set.Attach(filters.Input, f); err != nil {
			return nil, err
		}
	}
	out["filters.eval_ns"] = perOp(d, func() { m := request; set.Eval(filters.Input, &m) })
	weaver := aspects.NewWeaver()
	for _, a := range storeAspects() {
		if err := weaver.Attach(a); err != nil {
			return nil, err
		}
	}
	woven := weaver.WeaveFor("Store", func(*aspects.Invocation) (any, error) { return nil, nil })
	inv := &aspects.Invocation{Component: "Store", Op: "get", Args: request.Payload}
	out["aspects.invoke_ns"] = perOp(d, func() { sink, _ = woven.Invoke(inv) })
	woven.Release()
	var chain metaobj.Chain
	if err := chain.Insert(storeMetaObject("meter")); err != nil {
		return nil, err
	}
	base := func(*bus.Message) error { return nil }
	out["metaobj.execute_ns"] = perOp(d, func() { m := request; _ = chain.Execute(&m, base) })

	// container: boxed and typed invocation, and what a strong swap does
	// inside the container.
	cont, err := container.New(container.Descriptor{Name: "Store"}, &store{})
	if err != nil {
		return nil, err
	}
	cont.Activate()
	args := []any{key}
	out["container.invoke_ns"] = perOp(d, func() { sink, _ = cont.Invoke("", "get", args) })
	tg := &typedGet{req: key}
	out["container.invoke_typed_ns"] = perOp(d, func() { _, _, _ = cont.InvokeTyped("", "get", tg) })
	if tg.resp != val {
		return nil, fmt.Errorf("container probe: got %q", tg.resp)
	}
	if err := cont.Quiesce(context.Background()); err != nil {
		return nil, err
	}
	out["container.snapshot_restore_us"] = perOp(d, func() {
		if err := cont.ReplaceComponent(&store{}, true); err != nil {
			panic(err)
		}
	}) / 1e3

	// wire: the four codec steps of one remote typed get, on its frames.
	raw, err := wire.AppendValues(nil, args)
	if err != nil {
		return nil, err
	}
	call := wire.Call{Corr: 1 << 20, Component: "Store", Op: "get", DeadlineNanos: int64(callBudget),
		RawArgs: raw, Trace: 0x5eed5eed5eed, Span: telemetry.PackSpan(7, 3)}
	reply := wire.Reply{Corr: 1 << 20, Results: []any{val}}
	var callBody, replyBody []byte
	out["wire.encode_call_ns"] = perOp(d, func() { callBody, _ = wire.AppendCall(callBody[:0], call, wire.MaxVersion) })
	out["wire.decode_call_ns"] = perOp(d, func() { sink, _ = wire.ParseCall(callBody, wire.MaxVersion) })
	out["wire.encode_reply_ns"] = perOp(d, func() { replyBody, _ = wire.AppendReply(replyBody[:0], reply, wire.MaxVersion) })
	out["wire.decode_reply_ns"] = perOp(d, func() { sink, _ = wire.ParseReply(replyBody, wire.MaxVersion) })
	if got, err := wire.ParseReply(replyBody, wire.MaxVersion); err != nil || len(got.Results) != 1 || got.Results[0] != val {
		return nil, fmt.Errorf("wire probe: reply round trip gave %v, %v", got.Results, err)
	}
	const frameHeader = 8
	out["wire.call_frame_bytes"] = float64(frameHeader + len(callBody))
	out["wire.reply_frame_bytes"] = float64(frameHeader + len(replyBody))

	// telemetry: one span record.
	rec := telemetry.NewRecorder(0)
	span := telemetry.Span{Trace: 1, Op: "get", Comp: "Store", Kind: telemetry.KindServer}
	out["telemetry.span_record_ns"] = perOp(d, func() { span.ID++; rec.Record(span) })

	// cluster: what the kernel charges for the same bytes, one frame each
	// way over a raw loopback connection.
	rtt, err := loopbackRTT(d, frameHeader+len(callBody), frameHeader+len(replyBody))
	if err != nil {
		return nil, err
	}
	out["cluster.loopback_rtt_p50_us"] = rtt / 1e3

	// connector: a mediated round trip on a bare bus minus a direct one.
	direct, err := echoRTT(d, false)
	if err != nil {
		return nil, err
	}
	mediated, err := echoRTT(d, true)
	if err != nil {
		return nil, err
	}
	out["connector.mediate_p50_us"] = (mediated - direct) / 1e3
	return out, nil
}

func loopbackRTT(d time.Duration, out, back int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		in, reply := make([]byte, out), make([]byte, back)
		for {
			if _, err := io.ReadFull(c, in); err != nil {
				done <- nil // the dialer hung up
				return
			}
			if _, err := c.Write(reply); err != nil {
				done <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	frame, reply := make([]byte, out), make([]byte, back)
	var ioErr error
	rtt := p50Each(d, func() {
		if _, err := c.Write(frame); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(c, reply); err != nil {
			ioErr = err
		}
	})
	c.Close()
	if err := <-done; err != nil {
		return 0, err
	}
	return rtt, ioErr
}

// echoRTT times a request/reply pair against an echo server on a bare bus,
// directly or through an rpc connector carrying the Link filters.
func echoRTT(d time.Duration, mediated bool) (float64, error) {
	b := bus.New()
	srv, err := b.Attach("srv", 64)
	if err != nil {
		return 0, err
	}
	cli, err := b.Attach("cli", 64)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := srv.Receive(ctx)
			if err != nil {
				return
			}
			_ = b.Send(bus.Message{Kind: bus.Reply, Op: m.Op, Src: "srv", Dst: m.Src, Corr: m.Corr,
				Payload: connector.ReplyPayload{Results: []any{vals[7]}}})
		}
	}()
	dst := bus.Address("srv")
	var conn *connector.Connector
	if mediated {
		if conn, err = connector.New("probe", adl.KindRPC, b, []bus.Address{"srv"}); err != nil {
			cancel()
			<-done
			return 0, err
		}
		for _, f := range linkFilters() {
			if err := conn.Filters().Attach(filters.Input, f); err != nil {
				cancel()
				<-done
				return 0, err
			}
		}
		conn.Start(ctx)
		dst = connector.Address("probe")
	}
	request := bus.Message{Kind: bus.Request, Op: "get", Src: "cli", Dst: dst,
		Payload: connector.CallPayload{Args: []any{keys[7]}}}
	var rtErr error
	rtt := p50Each(d/2, func() {
		request.Corr++
		if err := b.Send(request); err != nil {
			rtErr = err
			return
		}
		if m, err := cli.Receive(ctx); err != nil || m.Corr != request.Corr {
			rtErr = fmt.Errorf("echo probe: reply %d for call %d: %v", m.Corr, request.Corr, err)
		}
	})
	cancel()
	if conn != nil {
		conn.Stop()
	}
	<-done
	return rtt, rtErr
}
