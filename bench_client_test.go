// Benchmarks for the compiled client-binding call surface (DESIGN.md §7):
// the synchronous handle call, held (BenchmarkClientCall) and re-fetched by
// name per call (BenchmarkE12_SystemCall), the parallel platform edge, asynchronous fan-out, and deadline-carrying calls.
package aas_test

import (
	"context"
	"testing"
	"time"

	aas "repro"
)

// BenchmarkClientCall is the steady-state hot path: one compiled handle,
// sequential synchronous calls. Compare with BenchmarkE12_SystemCall, which
// fetches the handle by name on every call — the fetch is one atomic map
// load and must add no allocation.
func BenchmarkClientCall(b *testing.B) {
	sys, _ := startBenchSystem(b)
	store := sys.Client("Store")
	ctx := context.Background()
	if _, err := store.Call(ctx, "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Call(ctx, "get", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientCallDeadline measures the call with a per-call context
// deadline: the deadline is stamped into the message and checked by the
// callee, and the caller's wait rides the context instead of a fallback
// timer.
func BenchmarkClientCallDeadline(b *testing.B) {
	sys, _ := startBenchSystem(b)
	store := sys.Client("Store")
	if _, err := store.Call(context.Background(), "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if _, err := store.Call(ctx, "get", "k"); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
}

// BenchmarkClientCallParallel is the platform edge under concurrent callers
// sharing one compiled handle — the Client analogue of
// BenchmarkSystemCallParallel.
func BenchmarkClientCallParallel(b *testing.B) {
	sys, _ := startBenchSystem(b)
	store := sys.Client("Store")
	ctx := context.Background()
	if _, err := store.Call(ctx, "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := store.Call(ctx, "get", "k"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTypedClientCall is the typed zero-alloc hot path (DESIGN.md §8):
// one compiled ClientOf handle, sequential synchronous calls served in place
// by HandleTyped. Compare with BenchmarkClientCall — the typed surface must
// eliminate the []any boxing allocations of the untyped handle.
func BenchmarkTypedClientCall(b *testing.B) {
	sys, _ := startBenchSystem(b)
	store := aas.ClientOf[string, string](sys, "Store")
	ctx := context.Background()
	if _, err := store.Untyped().Call(ctx, "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Call(ctx, "get", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTypedClientCallParallel is the typed platform edge under
// concurrent callers sharing one handle (and its envelope pool).
func BenchmarkTypedClientCallParallel(b *testing.B) {
	sys, _ := startBenchSystem(b)
	store := aas.ClientOf[string, string](sys, "Store")
	ctx := context.Background()
	if _, err := store.Untyped().Call(ctx, "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := store.Call(ctx, "get", "k"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTypedClientAsync is the asynchronous typed shape: the same pooled
// envelope as the synchronous typed path, plus the future the caller holds.
// Compare it against BenchmarkClientAsyncFanout for the untyped engine.
func BenchmarkTypedClientAsync(b *testing.B) {
	const fanout = 16
	sys, _ := startBenchSystem(b)
	store := aas.ClientOf[string, string](sys, "Store")
	ctx := context.Background()
	if _, err := store.Untyped().Call(ctx, "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	futures := make([]*aas.TypedFuture[string, string], fanout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += fanout {
		for j := range futures {
			futures[j] = store.Async(ctx, "get", "k")
		}
		for _, f := range futures {
			if _, err := f.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClientAsyncFanout issues fan-out batches through one handle and
// gathers them with Future.Wait; per-op cost is one call of the batch, so
// compare against BenchmarkClientCall for the win of overlapping the waits.
func BenchmarkClientAsyncFanout(b *testing.B) {
	const fanout = 16
	sys, _ := startBenchSystem(b)
	store := sys.Client("Store")
	ctx := context.Background()
	if _, err := store.Call(ctx, "put", "k", "v"); err != nil {
		b.Fatal(err)
	}
	futures := make([]*aas.Future, fanout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += fanout {
		for j := range futures {
			futures[j] = store.Async(ctx, "get", "k")
		}
		for _, f := range futures {
			if _, err := f.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
