package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/adl"
	"repro/internal/core"
	"repro/internal/registry"
)

// Spec describes an in-process cluster: every node runs the same ADL source
// over real TCP loopback links, and Placement decides which node
// instantiates which component — every other node sees that component as
// remote behind a gateway. Tests, the E16 benchmark and aasd's multi-node
// demo mode all build their clusters through this harness.
type Spec struct {
	// ADL is the shared architecture source.
	ADL string
	// Nodes lists the node ids, in start order. Required, at least one.
	Nodes []string
	// Placement maps components to node ids; unplaced components land on
	// the first node.
	Placement map[string]string
	// Registry builds each node's implementation registry (simulating each
	// process running the same binary). Required.
	Registry func(node string) *registry.Registry
	// Options, when set, seeds each node's core options (clock, mailbox,
	// timeouts); the harness fills Registry and Remote itself.
	Options func(node string) core.Options
	// Cluster, when set, seeds each node's cluster options; Node and Listen
	// are managed by the harness.
	Cluster func(node string) Options
	// SeedJoin, when true, builds the cluster the production way: each node
	// after the first gets the first node's address as its only seed and
	// the mesh completes itself through gossip discovery and auto-dial
	// (StartHarness then waits for convergence). When false the harness
	// explicitly full-meshes with Join calls — deterministic, and what
	// most tests want.
	SeedJoin bool
}

// Harness is a started in-process cluster. Accessors (Node, System, Nodes)
// are safe to call concurrently with one mutator (Kill, Leave, Add, Close) —
// load goroutines keep resolving nodes while the topology churns. Mutators
// themselves are not safe to run concurrently with each other.
type Harness struct {
	ctx  context.Context
	spec Spec

	mu    sync.RWMutex
	ids   []string
	nodes map[string]*Node
}

// StartHarness assembles, starts and fully meshes the cluster: every node's
// system is running and every pair of nodes is linked before it returns. On
// any error the partially started cluster is torn down.
func StartHarness(ctx context.Context, spec Spec) (*Harness, error) {
	if len(spec.Nodes) == 0 {
		return nil, errors.New("cluster: harness needs at least one node")
	}
	if spec.Registry == nil {
		return nil, errors.New("cluster: harness needs a Registry builder")
	}
	h := &Harness{ctx: ctx, spec: spec, nodes: map[string]*Node{}}
	fail := func(err error) (*Harness, error) {
		h.Close()
		return nil, err
	}
	for _, id := range spec.Nodes {
		if err := h.startNode(id); err != nil {
			return fail(err)
		}
	}
	if spec.SeedJoin {
		if err := h.WaitConverged(10 * time.Second); err != nil {
			return fail(err)
		}
	}
	return h, nil
}

// startNode builds, starts and links one node into the running cluster.
func (h *Harness) startNode(id string) error {
	spec := h.spec
	cfg, err := adl.Parse(spec.ADL)
	if err != nil {
		return fmt.Errorf("cluster: harness: %w", err)
	}
	var copts core.Options
	if spec.Options != nil {
		copts = spec.Options(id)
	}
	copts.Registry = spec.Registry(id)
	copts.Remote = map[string]bool{}
	for _, decl := range cfg.Components {
		home := spec.Placement[decl.Name]
		if home == "" {
			home = spec.Nodes[0]
		}
		if home != id {
			copts.Remote[decl.Name] = true
		}
	}
	sys, err := core.NewSystem(cfg, copts)
	if err != nil {
		return fmt.Errorf("cluster: harness %s: %w", id, err)
	}
	if err := sys.Start(h.ctx); err != nil {
		return fmt.Errorf("cluster: harness %s: %w", id, err)
	}
	var nopts Options
	if spec.Cluster != nil {
		nopts = spec.Cluster(id)
	}
	nopts.Node = id
	nopts.Listen = "127.0.0.1:0"
	if spec.SeedJoin && len(h.ids) > 0 {
		// Production-style join: one seed, gossip does the rest.
		nopts.Seeds = []string{h.nodes[h.ids[0]].Addr()}
	}
	node, err := Start(sys, nopts)
	if err != nil {
		sys.Stop()
		return fmt.Errorf("cluster: harness %s: %w", id, err)
	}
	if !spec.SeedJoin {
		// Full mesh: each new node dials everyone already up.
		for _, prev := range h.ids {
			if err := node.Join(h.nodes[prev].Addr()); err != nil {
				node.Close()
				sys.Stop()
				return fmt.Errorf("cluster: harness %s join %s: %w", id, prev, err)
			}
		}
	}
	h.mu.Lock()
	h.ids = append(h.ids, id)
	h.nodes[id] = node
	h.mu.Unlock()
	return nil
}

// Node returns a member by id (nil when unknown).
func (h *Harness) Node(id string) *Node {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.nodes[id]
}

// System returns a member's system by id (nil when unknown).
func (h *Harness) System(id string) *core.System {
	if n := h.Node(id); n != nil {
		return n.System()
	}
	return nil
}

// Nodes returns the member ids in start order.
func (h *Harness) Nodes() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append([]string(nil), h.ids...)
}

// Kill hard-stops a node — no evacuation, no goodbye, exactly what a host
// crash looks like to the survivors: their links die, the member turns
// suspect, and the failure detector declares it dead after the refute
// window. The node is removed from the harness.
func (h *Harness) Kill(id string) {
	n := h.Node(id)
	if n == nil {
		return
	}
	sys := n.System()
	n.Close()
	sys.Stop()
	h.drop(id)
}

// Leave removes a node the planned way: its components evacuate to the
// least-loaded peers first, then the node closes. The node is removed from
// the harness; the error (if any) reports a failed evacuation, in which
// case the node is left running and retained.
func (h *Harness) Leave(id string) error {
	n := h.Node(id)
	if n == nil {
		return fmt.Errorf("cluster: harness: unknown node %s", id)
	}
	sys := n.System()
	if err := n.Leave(); err != nil {
		return err
	}
	sys.Stop()
	h.drop(id)
	return nil
}

// Add starts a fresh node and joins it to the cluster through the first
// live node's address as its seed, waiting for the new member to link up
// with everyone. The node hosts nothing initially — components reach it by
// rebalancing or explicit migration.
func (h *Harness) Add(id string) error {
	if h.Node(id) != nil {
		return fmt.Errorf("cluster: harness: node %s already running", id)
	}
	if len(h.Nodes()) == 0 {
		return errors.New("cluster: harness: no live node to seed from")
	}
	seedJoin := h.spec.SeedJoin
	h.spec.SeedJoin = true // joins always go through the seed path
	err := h.startNode(id)
	h.spec.SeedJoin = seedJoin
	if err != nil {
		return err
	}
	return h.WaitConverged(10 * time.Second)
}

// Partition blocks the links between two groups of nodes in both
// directions; nodes within a group keep talking. Heal with Unpartition.
func (h *Harness) Partition(groupA, groupB []string) {
	for _, a := range groupA {
		for _, b := range groupB {
			if na := h.Node(a); na != nil {
				na.Block(b)
			}
			if nb := h.Node(b); nb != nil {
				nb.Block(a)
			}
		}
	}
}

// Unpartition lifts a Partition; gossip re-links the groups.
func (h *Harness) Unpartition(groupA, groupB []string) {
	for _, a := range groupA {
		for _, b := range groupB {
			if na := h.Node(a); na != nil {
				na.Unblock(b)
			}
			if nb := h.Node(b); nb != nil {
				nb.Unblock(a)
			}
		}
	}
}

// WaitConverged blocks until every harness node is fully linked (a live
// link to every other node) and sees every other node alive in its gossip
// view — the settled state seed joins and Add converge to.
func (h *Harness) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if h.converged() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: harness: no convergence within %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (h *Harness) converged() bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, id := range h.ids {
		n := h.nodes[id]
		linked := n.linkedIDs()
		for _, other := range h.ids {
			if other == id {
				continue
			}
			if !linked[other] {
				return false
			}
			m, ok := n.Member(other)
			if !ok || m.Status != MemberAlive {
				return false
			}
		}
	}
	return true
}

func (h *Harness) drop(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.nodes, id)
	for i, cur := range h.ids {
		if cur == id {
			h.ids = append(h.ids[:i], h.ids[i+1:]...)
			break
		}
	}
}

// Close tears the cluster down: links first, then each system.
func (h *Harness) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.ids) - 1; i >= 0; i-- {
		n := h.nodes[h.ids[i]]
		sys := n.System()
		n.Close()
		sys.Stop()
	}
	h.ids = nil
	h.nodes = map[string]*Node{}
}
