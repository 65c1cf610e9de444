// Parallel benchmarks for the distribution plane (E16): cross-node calls
// through a gateway endpoint over real TCP loopback, with and without a
// connector in front, and the cost of one live cross-node migration. Run
// with -cpu=1,2,4 to see how the peer link pipelines concurrent callers.
package aas_test

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aas "repro"

	"repro/internal/netsim"
	"repro/internal/registry"
)

const benchClusterADL = `
system Dist {
  component Front {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component Store {
    provide get(key) -> (value)
  }
  connector Link { kind rpc }
  bind Front.get -> Store.get via Link
}
`

type clFront struct{ caller aas.Caller }

func (f *clFront) SetCaller(c aas.Caller) { f.caller = c }

func (f *clFront) Handle(op string, args []any) ([]any, error) {
	return f.caller.Call("get", args...)
}

type clStore struct{ gets atomic.Int64 }

func (s *clStore) Handle(op string, args []any) ([]any, error) {
	s.gets.Add(1)
	return []any{args[0]}, nil
}

func (s *clStore) Snapshot() ([]byte, error) {
	return []byte(strconv.FormatInt(s.gets.Load(), 10)), nil
}

func (s *clStore) Restore(b []byte) error {
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return err
	}
	s.gets.Store(n)
	return nil
}

func benchClusterRegistry(string) *registry.Registry {
	reg := &registry.Registry{}
	if err := reg.Register(registry.Entry{Name: "Front", Version: registry.Version{Major: 1},
		New: func() any { return &clFront{} }}); err != nil {
		panic(err)
	}
	if err := reg.Register(registry.Entry{Name: "Store", Version: registry.Version{Major: 1},
		New: func() any { return &clStore{} }}); err != nil {
		panic(err)
	}
	return reg
}

func startBenchCluster(b *testing.B) *aas.ClusterHarness {
	return startBenchClusterLinger(b, 0)
}

// startBenchClusterLinger starts the two-node bench cluster with the given
// egress group-commit window.
func startBenchClusterLinger(b *testing.B, linger time.Duration) *aas.ClusterHarness {
	b.Helper()
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL:       benchClusterADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  benchClusterRegistry,
		Cluster: func(string) aas.ClusterOptions {
			return aas.ClusterOptions{BatchLinger: linger}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(h.Close)
	return h
}

// BenchmarkClusterParallelRemoteCall measures the bare cross-node path:
// the handle resolves through the remote view, the gateway forwards over TCP, the
// peer serves and the reply crosses back.
func BenchmarkClusterParallelRemoteCall(b *testing.B) {
	h := startBenchCluster(b)
	sys := h.System("n1")
	if _, err := sys.Client("Store").Call(context.Background(), "get", "warm"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.Client("Store").Call(context.Background(), "get", "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterTypedRemoteCall is the ledger's remote_unary shape as a Go
// benchmark: one caller, a typed handle with a deadline budget, one call in
// flight. allocs/op counts both nodes.
func BenchmarkClusterTypedRemoteCall(b *testing.B) {
	h := startBenchCluster(b)
	store := aas.ClientOf[string, string](h.System("n1"), "Store").With(aas.WithDeadline(5 * time.Second))
	ctx := context.Background()
	if _, err := store.Call(ctx, "get", "warm"); err != nil {
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

// BenchmarkClusterBatchedRemoteCall measures the cross-node path under deep
// concurrency with a 200µs egress linger: concurrent callers' frames
// coalesce into FrameBatch writes, amortizing the syscall per call.
func BenchmarkClusterBatchedRemoteCall(b *testing.B) {
	h := startBenchClusterLinger(b, 200*time.Microsecond)
	sys := h.System("n1")
	store := sys.Client("Store")
	ctx := context.Background()
	if _, err := store.Call(ctx, "get", "warm"); err != nil {
		b.Fatal(err)
	}
	// Many in-flight callers per proc: the shape that exposes the syscall
	// tax of one-write-per-frame and lets the egress coalesce deep batches.
	b.SetParallelism(64)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := store.Call(ctx, "get", "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterParallelMediatedRemoteCall adds the full caller-side
// stack: Front's container, the rpc connector, then the gateway and the
// wire — the everyday shape of a remote binding.
func BenchmarkClusterParallelMediatedRemoteCall(b *testing.B) {
	h := startBenchCluster(b)
	sys := h.System("n1")
	if _, err := sys.Client("Front").Call(context.Background(), "fetch", "warm"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.Client("Front").Call(context.Background(), "fetch", "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterLiveMigration measures one complete cross-node handoff —
// quiesce, snapshot, ship, adopt, repoint, resume — under a light
// background load that keeps the channel non-idle.
func BenchmarkClusterLiveMigration(b *testing.B) {
	h := startBenchCluster(b)
	sys1, sys2 := h.System("n1"), h.System("n2")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = sys1.Client("Front").Call(context.Background(), "fetch", fmt.Sprintf("k%d", i))
		}
	}()
	systems := map[string]*aas.System{"n1": sys1, "n2": sys2}
	owner := "n2"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := "n1"
		if owner == "n1" {
			target = "n2"
		}
		if err := systems[owner].Migrate("Store", netsim.NodeID(target)); err != nil {
			b.Fatal(err)
		}
		owner = target
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
