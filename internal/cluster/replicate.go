// Warm-standby replication: the availability half of the elastic plane
// (DESIGN.md §12). A node running a replicator periodically snapshots its
// capturable components (core.System.SnapshotComponent — a hot copy, no
// quiesce) and ships each snapshot as a FrameReplicate to a follower chosen
// by load among the alive linked peers. The follower stores the bytes in
// its standby table and acks; the origin gossips the follower assignment
// with its component entry, so when the origin dies every survivor knows who
// holds the freshest state and failover promotes the follower warm — the
// component restarts from the last acked snapshot instead of from its
// config default.
//
// The consistency contract is deliberately modest: a standby is the state
// as of the last completed replication round, not a log-shipped replica.
// Work admitted after that round is lost on failover; work completed before
// it is preserved. Acks exist for observability (replication lag per
// component in the telemetry snapshot), not for blocking writes.
package cluster

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/wire"
)

// ReplicatorOptions configures the outbound replication loop. Zero values
// take defaults.
type ReplicatorOptions struct {
	// Interval between replication rounds (default 500ms). The interval is
	// the replication lag bound: state admitted within one interval of a
	// crash is lost on failover.
	Interval time.Duration
	// Components optionally restricts replication to a subset; empty means
	// every capturable local component.
	Components []string
}

// replState is the outbound bookkeeping for one replicated component.
type replState struct {
	follower string
	seq      uint64 // last shipped sequence
	ackedSeq uint64 // last acknowledged sequence
	ackedAt  int64  // unix nanos of the last ack
	bytes    int    // size of the last shipped snapshot
	lastErr  string
}

// Replicator ships warm-standby snapshots of this node's components.
type Replicator struct {
	n      *Node
	opts   ReplicatorOptions
	cancel context.CancelFunc

	mu     sync.Mutex
	states map[string]*replState

	shipped atomic.Uint64
	acked   atomic.Uint64
}

// StartReplicator launches the outbound replication loop. The standby
// intake (storing snapshots shipped *to* this node and acking them) is
// always on at the Node level; only shipping is opt-in.
func (n *Node) StartReplicator(opts ReplicatorOptions) *Replicator {
	if opts.Interval <= 0 {
		opts.Interval = 500 * time.Millisecond
	}
	r := &Replicator{n: n, opts: opts, states: map[string]*replState{}}
	ctx, cancel := context.WithCancel(n.ctx)
	r.cancel = cancel
	n.mu.Lock()
	n.repl = r
	n.mu.Unlock()
	n.wg.Add(1)
	go r.loop(ctx)
	return r
}

// Stop halts the replication loop (idempotent). Standbys already shipped
// stay valid on their followers until they expire.
func (r *Replicator) Stop() { r.cancel() }

// Stats reports snapshots shipped and acks received.
func (r *Replicator) Stats() (shipped, acked uint64) {
	return r.shipped.Load(), r.acked.Load()
}

func (r *Replicator) loop(ctx context.Context) {
	defer r.n.wg.Done()
	t := time.NewTicker(r.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.ReplicateNow()
		}
	}
}

// ReplicateNow runs one replication round synchronously — snapshot every
// eligible component and ship it to its follower — and reports how many
// snapshots were shipped. Exposed for deterministic tests; acks arrive
// asynchronously.
func (r *Replicator) ReplicateNow() int {
	n := r.n
	comps := r.opts.Components
	if len(comps) == 0 {
		comps = n.sys.LocalComponents()
	}
	sort.Strings(comps)
	shipped := 0
	for _, comp := range comps {
		if !n.sys.HasComponent(comp) {
			continue // migrated away since the list was taken
		}
		state, err := n.sys.SnapshotComponent(comp)
		if err != nil {
			if !errors.Is(err, container.ErrNotCapturable) && !errors.Is(err, core.ErrUnknownComp) {
				r.setErr(comp, err.Error())
			}
			continue // stateless components have nothing to keep warm
		}
		p, fid := r.followerLink(comp)
		if p == nil {
			r.setErr(comp, "no eligible follower")
			continue
		}
		r.mu.Lock()
		st := r.states[comp]
		if st == nil {
			st = &replState{}
			r.states[comp] = st
		}
		st.follower = fid
		st.seq++
		st.bytes = len(state)
		st.lastErr = ""
		seq := st.seq
		r.mu.Unlock()
		p.egress.enqueue(&egressItem{kind: wire.FrameReplicate, corr: p.corr.Add(1), comp: comp, num: seq, val: state})
		r.shipped.Add(1)
		shipped++
	}
	return shipped
}

// followerLink picks (or keeps) the follower for comp and returns its live
// link. The choice is sticky — an alive, linked follower is kept so the
// standby stays warm in one place — and otherwise falls to the least-loaded
// alive member with a live link (ties to the smaller id).
func (r *Replicator) followerLink(comp string) (*peer, string) {
	n := r.n
	r.mu.Lock()
	cur := ""
	if st := r.states[comp]; st != nil {
		cur = st.follower
	}
	r.mu.Unlock()
	if cur != "" {
		if p := n.livePeer(cur); p != nil {
			if m, ok := n.membership.member(cur); ok && m.Status == MemberAlive {
				return p, cur
			}
		}
	}
	type cand struct {
		id   string
		load float64
	}
	var cands []cand
	for _, m := range n.Members() {
		if m.ID == n.id || m.Status != MemberAlive {
			continue
		}
		if n.livePeer(m.ID) == nil {
			continue
		}
		cands = append(cands, cand{id: m.ID, load: m.Load})
	}
	if len(cands) == 0 {
		return nil, ""
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].id < cands[j].id
	})
	if p := n.livePeer(cands[0].id); p != nil {
		return p, cands[0].id
	}
	return nil, ""
}

func (r *Replicator) setErr(comp, msg string) {
	r.mu.Lock()
	st := r.states[comp]
	if st == nil {
		st = &replState{}
		r.states[comp] = st
	}
	st.lastErr = msg
	r.mu.Unlock()
}

// onAck folds a follower's acknowledgement into the outbound bookkeeping.
func (r *Replicator) onAck(from string, a wire.ReplicateAck) {
	r.mu.Lock()
	st := r.states[a.Component]
	if st != nil && st.follower == from && a.Seq > st.ackedSeq {
		if a.Err == "" {
			st.ackedSeq = a.Seq
			st.ackedAt = time.Now().UnixNano()
		} else {
			st.lastErr = "follower: " + a.Err
		}
	}
	r.mu.Unlock()
	if a.Err == "" {
		r.acked.Add(1)
	}
}

// followerOf reports the current follower assignment for comp ("" when the
// node runs no replicator or the component has none). Gossiped with the
// component's membership entry so every survivor knows who to promote.
func (n *Node) followerOf(comp string) string {
	n.mu.Lock()
	r := n.repl
	n.mu.Unlock()
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.states[comp]; st != nil {
		return st.follower
	}
	return ""
}

// standby is one stored warm snapshot shipped by a peer's replicator.
type standby struct {
	origin string
	seq    uint64
	state  []byte
	at     time.Time
}

// handleReplicate stores an inbound snapshot and acks it. The intake is
// unconditional — holding a few snapshot byte slices is cheap insurance —
// and last-writer-wins per component: a strictly newer sequence from the
// same origin replaces (at-or-below is a replay and is ignored, per the
// wire.Replicate contract, though still acked), while a different origin
// replaces outright (the component migrated and its new home
// re-replicated).
func (n *Node) handleReplicate(p *peer, r wire.Replicate) {
	n.smu.Lock()
	cur, ok := n.standbys[r.Component]
	if !ok || cur.origin != p.id || r.Seq > cur.seq {
		n.standbys[r.Component] = standby{
			origin: p.id, seq: r.Seq,
			state: append([]byte(nil), r.State...),
			at:    time.Now(),
		}
	}
	n.smu.Unlock()
	p.egress.enqueue(&egressItem{kind: wire.FrameReplicateAck, corr: r.Corr, comp: r.Component, num: r.Seq})
}

// handleReplicateAck routes a follower's ack to the replicator.
func (n *Node) handleReplicateAck(p *peer, a wire.ReplicateAck) {
	n.mu.Lock()
	r := n.repl
	n.mu.Unlock()
	if r != nil {
		r.onAck(p.id, a)
	}
}

// takeStandby removes and returns the stored snapshot for comp if one exists
// and is fresh (younger than Options.StandbyTTL). A stale snapshot is worse
// than none for correctness-sensitive state, so expiry falls back to the
// lossy path and its explicit EvStateLost.
func (n *Node) takeStandby(comp string) (standby, bool) {
	n.smu.Lock()
	defer n.smu.Unlock()
	sb, ok := n.standbys[comp]
	if !ok {
		return standby{}, false
	}
	delete(n.standbys, comp)
	if n.opts.StandbyTTL > 0 && time.Since(sb.at) > n.opts.StandbyTTL {
		return standby{}, false
	}
	return sb, true
}

// Standbys reports the components this node holds warm snapshots for,
// sorted by name.
func (n *Node) Standbys() []string {
	n.smu.Lock()
	defer n.smu.Unlock()
	out := make([]string, 0, len(n.standbys))
	for comp := range n.standbys {
		out = append(out, comp)
	}
	sort.Strings(out)
	return out
}

// EnableFailover installs the EvPeerDown trigger that re-homes a dead
// member's components. Every node of the cluster runs the same rules over
// the same converged view, so exactly one survivor promotes each component:
//
//   - the gossiped follower, warm from its standby snapshot, when it is
//     alive — the normal path;
//   - otherwise the dead member's ring successor (first alive id after the
//     dead id in sorted order, wrapping), cold from the config default,
//     with EvStateLost on the RAML stream marking the loss.
//
// A node that is neither skips; a node lacking the component's declaration
// also skips (it cannot build an instance), leaving the promotion to the
// next rule holder.
func (n *Node) EnableFailover() error {
	return n.sys.AddEventTrigger(core.EventTrigger{
		Name: "cluster-failover-" + n.id,
		Kind: core.EvPeerDown,
		Action: func(_ *core.System, e core.Event) error {
			n.failover(e.Component)
			return nil
		},
	})
}

// failover promotes this node's share of a dead member's components.
func (n *Node) failover(dead string) {
	m, ok := n.membership.member(dead)
	if !ok {
		return
	}
	for _, c := range m.Components {
		if n.sys.HasComponent(c.Name) {
			continue
		}
		if _, declared := n.sys.Config().Component(c.Name); !declared {
			continue
		}
		switch {
		case c.Follower == n.id:
			// We are the designated follower: promote warm.
		case c.Follower != "" && c.Follower != dead && n.aliveMember(c.Follower):
			continue // the follower outlives the origin; it promotes
		case n.ringSuccessor(dead) != n.id:
			continue // another survivor holds the lossy-promotion duty
		}
		if err := n.AdoptLocal(c.Name); err != nil {
			n.opts.Logf("cluster %s: failover %s from %s: %v", n.id, c.Name, dead, err)
		}
	}
}

// aliveMember reports whether id is alive in the membership view.
func (n *Node) aliveMember(id string) bool {
	m, ok := n.membership.member(id)
	return ok && m.Status == MemberAlive
}

// ringSuccessor returns the first alive member id after dead in sorted id
// order, wrapping — the deterministic fallback promoter when a component
// has no surviving follower.
func (n *Node) ringSuccessor(dead string) string {
	var alive []string
	for _, m := range n.Members() {
		if m.ID != dead && m.Status == MemberAlive {
			alive = append(alive, m.ID)
		}
	}
	if len(alive) == 0 {
		return ""
	}
	sort.Strings(alive)
	for _, id := range alive {
		if id > dead {
			return id
		}
	}
	return alive[0]
}
