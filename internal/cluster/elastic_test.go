package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// elasticCluster tightens the failure-detector timings for tests: suspicion
// resolves (refute or dead) within ~600ms of a link loss.
func elasticCluster(string) Options {
	return Options{Heartbeat: 50 * time.Millisecond, FailAfter: 300 * time.Millisecond,
		SuspectAfter: 300 * time.Millisecond, MigrateTimeout: 5 * time.Second}
}

// TestElasticSeedJoinConvergence is the membership half of the acceptance
// test: four nodes started with a single shared seed converge to a fully
// meshed cluster where every node sees every other alive; a killed node is
// declared dead everywhere (EvPeerDown from converged suspicion, not a
// single link's verdict); a freshly added node joins through the same seed
// path and the view converges again.
func TestElasticSeedJoinConvergence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := StartHarness(ctx, Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1", "n2", "n3", "n4"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  testRegistry,
		Cluster:   elasticCluster,
		SeedJoin:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// StartHarness already waited for convergence; spot-check the view.
	for _, id := range h.Nodes() {
		members := h.Node(id).Members()
		if len(members) != 4 {
			t.Fatalf("%s sees %d members, want 4", id, len(members))
		}
		for _, m := range members {
			if m.Status != MemberAlive {
				t.Fatalf("%s sees %s as %s, want alive", id, m.ID, m.Status)
			}
		}
	}

	// A remote call across a gossip-built link works like any other.
	if out, err := h.System("n1").Client("Front").Call(context.Background(), "fetch", "hello"); err != nil || out[0] != "hello" {
		t.Fatalf("call over gossip-discovered mesh: %v %v", out, err)
	}

	// Kill n4: every survivor's failure detector converges on dead and
	// fires EvPeerDown on its own RAML stream.
	events, unsub := h.System("n1").Events().Subscribe(64)
	defer unsub()
	h.Kill("n4")
	if !waitForEvent(t, events, core.EvPeerDown, "n4", 5*time.Second) {
		t.Fatal("n1 never saw EvPeerDown for the killed n4")
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range h.Nodes() {
		for {
			if m, ok := h.Node(id).Member("n4"); ok && m.Status == MemberDead {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never converged on n4 dead", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// A fresh node joins through the seed and the view converges again.
	if err := h.Add("n5"); err != nil {
		t.Fatalf("add n5: %v", err)
	}
	for _, id := range h.Nodes() {
		m, ok := h.Node(id).Member("n5")
		if !ok || m.Status != MemberAlive {
			t.Fatalf("%s does not see n5 alive after join", id)
		}
	}
}

// TestElasticPartitionSuspicionRefuted: a member cut off on ONE link but
// reachable through another path must not be declared dead — the fresh view
// relayed by the third node refutes the suspicion within the refute window.
// This is precisely what the converged failure detector buys over the old
// per-link watchdog verdict.
func TestElasticPartitionSuspicionRefuted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := StartHarness(ctx, Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1", "n2", "n3"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  testRegistry,
		Cluster: func(string) Options {
			return Options{Heartbeat: 50 * time.Millisecond, FailAfter: 300 * time.Millisecond,
				SuspectAfter: time.Second}
		},
		SeedJoin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	events, unsub := h.System("n1").Events().Subscribe(256)
	defer unsub()

	// Cut the n1–n2 link only; both stay linked to n3.
	h.Partition([]string{"n1"}, []string{"n2"})
	time.Sleep(3 * time.Second) // several refute windows

	if m, ok := h.Node("n1").Member("n2"); !ok || m.Status == MemberDead {
		t.Fatalf("n1 declared n2 dead despite a live path through n3 (status %v)", m.Status)
	}
	for {
		select {
		case e := <-events:
			if e.Kind == core.EvPeerDown && e.Component == "n2" {
				t.Fatal("EvPeerDown fired for a member still reachable through n3")
			}
		default:
			goto drained
		}
	}
drained:

	// Heal: gossip-driven auto-dial re-links the pair.
	h.Unpartition([]string{"n1"}, []string{"n2"})
	if err := h.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("no re-convergence after healing: %v", err)
	}
}

// TestElasticWarmStandbyFailover is the replication acceptance test: a
// four-node seed-list cluster runs a stateful component under load with a
// replicator shipping warm snapshots to a gossip-advertised follower. The
// hosting node is killed; the follower promotes the component from the
// last-acked snapshot, and the restored request count exactly equals the
// completed fetches — served == completed, zero mismatches, and no
// EvStateLost anywhere because no state was lost.
func TestElasticWarmStandbyFailover(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := StartHarness(ctx, Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1", "n2", "n3", "n4"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  testRegistry,
		Cluster:   elasticCluster,
		SeedJoin:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sys1 := h.System("n1")

	for _, id := range h.Nodes() {
		if err := h.Node(id).EnableFailover(); err != nil {
			t.Fatal(err)
		}
	}
	// Replication is driven manually (huge interval) so the test controls
	// exactly which state the standby holds at the kill.
	rep := h.Node("n2").StartReplicator(ReplicatorOptions{Interval: time.Hour})
	defer rep.Stop()

	// Load: concurrent clients hammer the remote stateful component.
	var completed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				token := fmt.Sprintf("c%d-%d", c, i)
				if out, err := sys1.Client("Front").Call(context.Background(), "fetch", token); err == nil && out[0] == token {
					completed.Add(1)
				} else {
					t.Errorf("fetch %s: %v %v", token, out, err)
					return
				}
			}
		}(c)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	preKill := completed.Load()
	if preKill == 0 {
		t.Fatal("no load completed")
	}

	// Ship the settled state and wait until the follower acked it.
	if shipped := rep.ReplicateNow(); shipped != 1 {
		t.Fatalf("replicated %d components, want 1 (Store)", shipped)
	}
	deadline := time.Now().Add(5 * time.Second)
	var follower string
	for {
		snap := h.Node("n2").Telemetry()
		if len(snap.Replication) == 1 && snap.Replication[0].AckedSeq == snap.Replication[0].ShippedSeq {
			follower = snap.Replication[0].Follower
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never acked: %+v", snap.Replication)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if follower == "" || follower == "n2" {
		t.Fatalf("follower = %q", follower)
	}
	// The follower assignment must be visible in the survivors' gossip view
	// before the kill — that is what tells them who promotes.
	for _, id := range []string{"n1", "n3", "n4"} {
		for {
			m, ok := h.Node(id).Member("n2")
			if ok && len(m.Components) == 1 && m.Components[0].Follower == follower {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never saw the follower assignment for Store", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Kill the host. The follower must promote Store warm and service must
	// resume with the state intact.
	h.Kill("n2")
	deadline = time.Now().Add(10 * time.Second)
	for {
		token := fmt.Sprintf("probe-%d", completed.Load())
		if out, err := sys1.Client("Front").Call(context.Background(), "fetch", token); err == nil && out[0] == token {
			completed.Add(1)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never recovered after killing the Store host")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if !h.Node(follower).System().HasComponent("Store") {
		t.Fatalf("Store was not promoted on the designated follower %s", follower)
	}
	// Zero mismatches: the restored counter equals every completed fetch —
	// the pre-kill load survived through the standby, the post-kill probe
	// landed on the promoted instance.
	out, err := h.System(follower).Client("Store").Call(context.Background(), "count")
	if err != nil {
		t.Fatalf("count after promotion: %v", err)
	}
	if got := int64(out[0].(int)); got != completed.Load() {
		t.Fatalf("served %d gets but clients completed %d fetches", got, completed.Load())
	}
	// Warm promotion: nothing was lost, so EvStateLost must not have fired.
	for _, id := range h.Nodes() {
		if lost := h.System(id).Events().History(core.EvStateLost); len(lost) != 0 {
			t.Fatalf("%s emitted EvStateLost on a warm failover: %v", id, lost)
		}
	}
}

// TestElasticLossyFailoverEmitsStateLost: without a replicator the ring
// successor still re-homes the component, but the restart is lossy — the
// counter resets — and the distinct EvStateLost marks it.
func TestElasticLossyFailoverEmitsStateLost(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := StartHarness(ctx, Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1", "n2", "n3"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  testRegistry,
		Cluster:   elasticCluster,
		SeedJoin:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, id := range h.Nodes() {
		if err := h.Node(id).EnableFailover(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.System("n1").Client("Front").Call(context.Background(), "fetch", "pre"); err != nil {
		t.Fatalf("pre-failure call: %v", err)
	}

	h.Kill("n2")
	// Ring successor of n2 among {n1, n3} is n3.
	deadline := time.Now().Add(10 * time.Second)
	for !h.System("n3").HasComponent("Store") {
		if time.Now().After(deadline) {
			t.Fatal("ring successor n3 never adopted Store")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if lost := h.System("n3").Events().History(core.EvStateLost); len(lost) > 0 {
			if lost[0].Component != "Store" {
				t.Fatalf("EvStateLost for %q, want Store", lost[0].Component)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("lossy failover never emitted EvStateLost")
}

// Three stateless services for the rebalancing test.
const elasticSvcADL = `
system Elastic {
  component SvcA { provide ping(x) -> (r) }
  component SvcB { provide ping(x) -> (r) }
  component SvcC { provide ping(x) -> (r) }
}
`

type pingSvc struct{}

func (pingSvc) Handle(op string, args []any) ([]any, error) { return []any{args[0]}, nil }

// TestElasticRebalanceAfterJoin: all services start on one node; placers
// running everywhere spread them by declared weight as soon as peers exist,
// and a freshly joined node receives its share — all under continuous load
// with zero call errors (live migration preserves every in-flight request).
func TestElasticRebalanceAfterJoin(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := StartHarness(ctx, Spec{
		ADL:       elasticSvcADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"SvcA": "n1", "SvcB": "n1", "SvcC": "n1"},
		Registry:  pingRegistry,
		Cluster:   elasticCluster,
		SeedJoin:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var placers []*Placer
	for _, id := range h.Nodes() {
		placers = append(placers, h.Node(id).StartPlacer(PlacerOptions{
			Interval: 50 * time.Millisecond,
		}))
	}
	defer func() {
		for _, pl := range placers {
			pl.Stop()
		}
	}()

	// Continuous load from n2 against all three services.
	var calls, errs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		svcs := []string{"SvcA", "SvcB", "SvcC"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			svc := svcs[i%3]
			token := fmt.Sprintf("t%d", i)
			if out, err := h.System("n2").Client(svc).Call(context.Background(), "ping", token); err != nil || out[0] != token {
				errs.Add(1)
				t.Errorf("%s ping: %v %v", svc, out, err)
				return
			}
			calls.Add(1)
		}
	}()

	// The placer spreads the three services over the two nodes first; a
	// third node joins and receives a service too.
	if err := h.Add("n3"); err != nil {
		t.Fatalf("add n3: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(h.System("n3").LocalComponents()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never moved a service to the fresh n3 (n1 hosts %v, n2 hosts %v)",
				h.System("n1").LocalComponents(), h.System("n2").LocalComponents())
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if errs.Load() != 0 || calls.Load() == 0 {
		t.Fatalf("errors=%d calls=%d during rebalancing", errs.Load(), calls.Load())
	}
	// Every node still answers for every service (location transparency
	// after the moves).
	for _, svc := range []string{"SvcA", "SvcB", "SvcC"} {
		if out, err := h.System("n3").Client(svc).Call(context.Background(), "ping", "final"); err != nil || out[0] != "final" {
			t.Fatalf("%s after rebalance: %v %v", svc, out, err)
		}
	}
}

// TestElasticPlannedLeaveEvacuates: Leave migrates every local component to
// the least-loaded peers before closing — nothing is lost, nothing fails
// over, no EvStateLost.
func TestElasticPlannedLeaveEvacuates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := StartHarness(ctx, Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1", "n2", "n3"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  testRegistry,
		Cluster:   elasticCluster,
		SeedJoin:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sys1 := h.System("n1")

	// Put some state into Store, then evacuate its host the planned way.
	for i := 0; i < 10; i++ {
		if _, err := sys1.Client("Front").Call(context.Background(), "fetch", "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Leave("n2"); err != nil {
		t.Fatalf("leave n2: %v", err)
	}
	// Store now lives on a survivor with its state intact.
	var host string
	for _, id := range h.Nodes() {
		if h.System(id).HasComponent("Store") {
			host = id
		}
	}
	if host == "" {
		t.Fatal("Store vanished on planned leave")
	}
	out, err := h.System(host).Client("Store").Call(context.Background(), "count")
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].(int); got != 10 {
		t.Fatalf("count = %d after evacuation, want 10", got)
	}
	// Service continues from the caller's side.
	if out, err := sys1.Client("Front").Call(context.Background(), "fetch", "post"); err != nil || out[0] != "post" {
		t.Fatalf("post-leave call: %v %v", out, err)
	}
}

func pingRegistry(string) *registry.Registry {
	reg := &registry.Registry{}
	for _, name := range []string{"SvcA", "SvcB", "SvcC"} {
		if err := reg.Register(registry.Entry{Name: name, Version: registry.Version{Major: 1},
			New: func() any { return pingSvc{} }}); err != nil {
			panic(err)
		}
	}
	return reg
}
