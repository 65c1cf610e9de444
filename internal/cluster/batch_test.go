// Tests for the per-peer-link frame coalescing layer (DESIGN.md §8): the
// parallel-caller regression that guards the egress queue's swap/recycle
// protocol, and the batching counters.
package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestClusterBatchedParallelCalls hammers one batched peer link with many
// concurrent callers. This is the regression test for the egress queue's
// swap/recycle protocol: the flush loop hands its spare backing array to
// producers and must detach it before writing, or producers append into the
// swath being encoded — corrupting frames and crossing correlation ids,
// which shows up here as timeouts or mismatched replies. Needs GOMAXPROCS
// ≥ 2 to interleave producers with the flush loop.
func TestClusterBatchedParallelCalls(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := StartHarness(ctx, Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  testRegistry,
		Cluster:   fastCluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sys := h.System("n1")
	store := sys.Client("Store")
	if _, err := store.Call(context.Background(), "get", "warm"); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	const (
		workers = 8
		perG    = 4000
	)
	var (
		wg    sync.WaitGroup
		fails atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				out, err := store.Call(context.Background(), "get", key)
				if err != nil || len(out) != 1 || out[0] != key {
					fails.Add(1)
					if fails.Load() <= 3 {
						t.Errorf("call %s: out=%v err=%v", key, out, err)
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := fails.Load(); n != 0 {
		t.Fatalf("%d workers failed", n)
	}

	// The load must actually have exercised coalescing: fewer writes than
	// frames proves multi-frame batches went out.
	writes, frames := h.Node("n1").BatchStats()
	t.Logf("n1 BatchStats: %d writes, %d frames (%.2f frames/write)", writes, frames, float64(frames)/float64(writes))
	if writes == 0 || frames <= writes {
		t.Fatalf("BatchStats = %d writes / %d frames, want multi-frame batches", writes, frames)
	}
}
