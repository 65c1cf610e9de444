// Load-driven placement: the cluster half of the observe→decide→reconfigure
// loop (DESIGN.md §12). Each node meters its own components' observed load
// from their admission counters, gossips the figures with its membership
// entry, and runs the same deterministic planner over the converged view —
// so every node computes the same plan and each enacts only the moves that
// depart from itself, which needs no leader and no coordination traffic.
// Damping is layered: the strategy selector rests on a no-move planner until
// load skew crosses a guard threshold (with dwell hysteresis), the rebalance
// planner ignores moves under its gain threshold, and enacted components
// carry a per-component cooldown.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/netsim"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// loadMeter turns consecutive reads of the system's admission counters
// (core.System.Admission — never the QoS windows) into a per-component load
// signal: admitted-request deltas over the sample interval times the EWMA
// service estimate gives busy-nanoseconds per second, smoothed again with an
// EWMA so one bursty sample cannot trigger a migration (the metering half of
// the damping rule).
type loadMeter struct {
	mu          sync.Mutex
	lastCount   map[string]uint64
	ewma        map[string]float64
	lastAt      time.Time
	minGap      time.Duration
	cached      []wire.GossipComp
	cachedTotal float64
}

func newLoadMeter(minGap time.Duration) *loadMeter {
	return &loadMeter{
		lastCount: map[string]uint64{},
		ewma:      map[string]float64{},
		minGap:    minGap,
	}
}

// sample returns the current per-component loads (and their sum) for the
// node's local components, rereading the admission counters at most once
// per minGap.
func (lm *loadMeter) sample(n *Node) ([]wire.GossipComp, float64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	now := time.Now()
	if !lm.lastAt.IsZero() && now.Sub(lm.lastAt) < lm.minGap {
		return lm.cached, lm.cachedTotal
	}
	dt := now.Sub(lm.lastAt).Seconds()
	first := lm.lastAt.IsZero()
	lm.lastAt = now
	const alpha = 0.5
	seen := map[string]bool{}
	var comps []wire.GossipComp
	total := 0.0
	for _, a := range n.sys.Admission() {
		seen[a.Component] = true
		prev, had := lm.lastCount[a.Component]
		lm.lastCount[a.Component] = a.Admitted
		var inst float64
		if had && !first && dt > 0 && a.Admitted > prev {
			inst = float64(a.Admitted-prev) / dt * a.EstimateNanos
		}
		lm.ewma[a.Component] = alpha*lm.ewma[a.Component] + (1-alpha)*inst
		load := lm.ewma[a.Component]
		comps = append(comps, wire.GossipComp{
			Name:     a.Component,
			Load:     load,
			Follower: n.followerOf(a.Component),
		})
		total += load
	}
	for name := range lm.lastCount {
		if !seen[name] { // migrated away or stopped: forget it
			delete(lm.lastCount, name)
			delete(lm.ewma, name)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	lm.cached, lm.cachedTotal = comps, total
	return comps, total
}

// currentLoads reports the node's local components with their observed
// loads and follower assignments — the payload of the gossip self entry.
func (n *Node) currentLoads() ([]wire.GossipComp, float64) {
	if n.meter == nil {
		return nil, 0
	}
	return n.meter.sample(n)
}

// PlacerOptions configures the placement loop. Zero values take defaults.
type PlacerOptions struct {
	// Interval between planning rounds (default 1s).
	Interval time.Duration
	// SkewThreshold is the load-skew (stddev/mean of per-node load) above
	// which the strategy selector arms the rebalance planner; below half
	// of it the selector falls back to steady (default 0.25). The gap
	// between the two thresholds is the hysteresis band.
	SkewThreshold float64
	// MinDwell suppresses selector switches after a switch (default
	// 2×Interval) — the strategy layer's damping.
	MinDwell time.Duration
	// MinGain is the fractional load-stddev improvement a single move must
	// achieve (default 0.1); see deploy.Rebalance.
	MinGain float64
	// Cooldown is the minimum time between two migrations of the same
	// component (default 3×Interval), so a component cannot ping-pong
	// between hosts while gossiped loads catch up with its last move.
	Cooldown time.Duration
	// MaxMovesPerRound caps migrations enacted per round (default 1).
	MaxMovesPerRound int
	// BaseLoad is the standby load attributed per declared CPU unit
	// (default 1e6 ns/s), so idle components still spread by declared
	// requirement when a fresh node joins an unloaded cluster.
	BaseLoad float64
}

// Placer runs the placement feedback loop on one node.
type Placer struct {
	n      *Node
	opts   PlacerOptions
	sel    *strategy.Selector[deploy.LivePlanner]
	cancel context.CancelFunc

	mu       sync.Mutex
	lastMove map[string]time.Time

	rounds atomic.Uint64
	moved  atomic.Uint64
}

// StartPlacer launches the placement loop. Every node of a cluster may run
// one: plans are deterministic over the converged view and each node enacts
// only its own departures, so concurrent placers cooperate by construction.
func (n *Node) StartPlacer(opts PlacerOptions) *Placer {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.SkewThreshold <= 0 {
		opts.SkewThreshold = 0.25
	}
	if opts.MinDwell <= 0 {
		opts.MinDwell = 2 * opts.Interval
	}
	if opts.MinGain <= 0 {
		opts.MinGain = 0.1
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 3 * opts.Interval
	}
	if opts.MaxMovesPerRound <= 0 {
		opts.MaxMovesPerRound = 1
	}
	if opts.BaseLoad <= 0 {
		opts.BaseLoad = 1e6
	}
	pl := &Placer{n: n, opts: opts, lastMove: map[string]time.Time{}}
	pl.sel = strategy.NewSelector[deploy.LivePlanner](nil, opts.MinDwell)
	_ = pl.sel.Register("steady", deploy.Steady{})
	_ = pl.sel.Register("balance", deploy.Rebalance{MinGain: opts.MinGain, MaxMoves: opts.MaxMovesPerRound})
	_ = pl.sel.AddGuard(strategy.Guard{
		Name: "load-skew", Priority: 1,
		When: func(m strategy.Metrics) bool { return m["nodes"] >= 2 && m["skew"] > opts.SkewThreshold },
		Use:  "balance",
	})
	_ = pl.sel.AddGuard(strategy.Guard{
		Name: "steady-state", Priority: 0,
		When: func(m strategy.Metrics) bool { return m["skew"] <= opts.SkewThreshold/2 },
		Use:  "steady",
	})
	ctx, cancel := context.WithCancel(n.ctx)
	pl.cancel = cancel
	n.wg.Add(1)
	go pl.loop(ctx)
	return pl
}

// Stop halts the placement loop (idempotent).
func (pl *Placer) Stop() { pl.cancel() }

// Stats reports planning rounds run and migrations enacted.
func (pl *Placer) Stats() (rounds, moved uint64) {
	return pl.rounds.Load(), pl.moved.Load()
}

// Strategy reports the selector's active planner ("steady" or "balance").
func (pl *Placer) Strategy() string {
	name, _ := pl.sel.Current()
	return name
}

func (pl *Placer) loop(ctx context.Context) {
	defer pl.n.wg.Done()
	t := time.NewTicker(pl.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			pl.RunOnce()
		}
	}
}

// RunOnce executes one observe→decide→enact round and reports how many
// migrations this node performed. Exposed for deterministic tests.
func (pl *Placer) RunOnce() int {
	n := pl.n
	pl.rounds.Add(1)
	in := pl.gather()
	if len(in.Nodes) < 2 {
		return 0
	}
	skew := deploy.LoadSkew(in)
	pl.sel.Evaluate(strategy.Metrics{"skew": skew, "nodes": float64(len(in.Nodes))})
	_, planner := pl.sel.Current()
	moves := planner.PlanLive(in)
	enacted := 0
	now := time.Now()
	for _, mv := range moves {
		if string(mv.From) != n.id {
			continue // someone else's departure; their placer enacts it
		}
		pl.mu.Lock()
		last, ok := pl.lastMove[mv.Component]
		cooling := ok && now.Sub(last) < pl.opts.Cooldown
		if !cooling {
			pl.lastMove[mv.Component] = now
		}
		pl.mu.Unlock()
		if cooling {
			continue
		}
		if err := n.sys.Migrate(mv.Component, mv.To); err != nil {
			n.opts.Logf("cluster %s: rebalance %s -> %s: %v", n.id, mv.Component, mv.To, err)
			continue
		}
		n.opts.Logf("cluster %s: rebalanced %s -> %s (skew %.2f)", n.id, mv.Component, mv.To, skew)
		pl.moved.Add(1)
		enacted++
	}
	return enacted
}

// gather assembles the planner input from the converged membership view:
// alive members this node can reach (plus itself), their gossiped component
// loads, and a declared-CPU base load so idle components still have weight.
func (pl *Placer) gather() deploy.LiveInput {
	n := pl.n
	base := map[string]float64{}
	for _, r := range deploy.FromConfig(n.sys.Config()) {
		base[r.Component] = r.CPU * pl.opts.BaseLoad
	}
	linked := n.linkedIDs()
	in := deploy.LiveInput{Placement: map[string]string{}, Load: map[string]float64{}}
	for _, m := range n.Members() {
		if m.ID != n.id && (m.Status != MemberAlive || !linked[m.ID]) {
			continue // can only migrate over a live link
		}
		in.Nodes = append(in.Nodes, m.ID)
		if m.ID == n.id {
			continue // self entry refreshed below, straight from the meter
		}
		for _, c := range m.Components {
			in.Placement[c.Name] = m.ID
			in.Load[c.Name] = c.Load + base[c.Name]
		}
	}
	comps, _ := n.currentLoads()
	for _, c := range comps {
		in.Placement[c.Name] = n.id
		in.Load[c.Name] = c.Load + base[c.Name]
	}
	sort.Strings(in.Nodes)
	return in
}

// Leave evacuates every local component to the least-loaded alive peers
// (planned leave: state migrates, nothing is lost) and then closes the
// node. If any evacuation fails the node is left open with the error
// returned, so the caller can retry or fall back to a hard Close.
func (n *Node) Leave() error {
	linked := n.linkedIDs()
	type target struct {
		id   string
		load float64
	}
	var targets []target
	for _, m := range n.Members() {
		if m.ID != n.id && m.Status == MemberAlive && linked[m.ID] {
			targets = append(targets, target{id: m.ID, load: m.Load})
		}
	}
	comps := n.sys.LocalComponents()
	sort.Strings(comps)
	if len(targets) == 0 {
		if len(comps) > 0 {
			return errors.New("cluster: leave: no live peer to evacuate to")
		}
		n.Close()
		return nil
	}
	for _, comp := range comps {
		sort.Slice(targets, func(i, j int) bool {
			if targets[i].load != targets[j].load {
				return targets[i].load < targets[j].load
			}
			return targets[i].id < targets[j].id
		})
		if err := n.sys.Migrate(comp, netsim.NodeID(targets[0].id)); err != nil {
			return fmt.Errorf("cluster: leave: evacuate %s to %s: %w", comp, targets[0].id, err)
		}
		targets[0].load += 1e6 // crude: spread successive evacuations
	}
	n.Close()
	return nil
}

// linkedIDs snapshots the ids of currently linked, not-down peers.
func (n *Node) linkedIDs() map[string]bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]bool, len(n.peers))
	for id, p := range n.peers {
		if !p.down.Load() {
			out[id] = true
		}
	}
	return out
}
