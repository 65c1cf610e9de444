// Benchmarks for the telemetry plane (DESIGN.md §11): the traced call edge
// against the untraced baseline, and the unified snapshot assembly. The
// span-record micro-benchmark lives with its package
// (internal/telemetry.BenchmarkSpanRecord).
package aas_test

import (
	"context"
	"testing"

	aas "repro"

	"repro/internal/qos"
)

// BenchmarkTracedCall is BenchmarkTypedClientCall with head sampling at 1
// (every root traced): the typed hot path plus trace-id mint, span-word
// stamping, and two ring records (client edge + server). Compare with
// BenchmarkUntracedCall — the delta is the whole cost of always-on tracing.
func BenchmarkTracedCall(b *testing.B) {
	benchTraceCall(b, 0) // Options.TraceSampling 0 = default rate 1
}

// BenchmarkUntracedCall is the same path with sampling off: one atomic load
// decides no, and nothing else happens.
func BenchmarkUntracedCall(b *testing.B) {
	benchTraceCall(b, -1)
}

func benchTraceCall(b *testing.B, sampling int) {
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry, TraceSampling: sampling})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	if _, err := g.Call(ctx, "greet", "world"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot assembles the unified telemetry snapshot of a running
// system — the cost one /metrics scrape puts on a node. The QoS windows are
// filled to the core monitor's 16 Ki-sample cap first, the state of any node
// that has served a second of traffic: gathering and sorting them is most of
// the snapshot's cost.
func BenchmarkSnapshot(b *testing.B) {
	sys, _ := startBenchSystem(b)
	store := sys.Client("Store")
	ctx := context.Background()
	for i := 0; i < 1<<14; i++ {
		if _, err := store.Call(ctx, "put", "k", "v"); err != nil {
			b.Fatal(err)
		}
	}
	if n := sys.Monitor().Count(qos.Latency); n < 1<<14 {
		b.Fatalf("latency window holds %d samples, want %d", n, 1<<14)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := sys.Telemetry()
		if snap.Schema == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
