// Gossip membership: the cluster-wide view of who exists, where to dial
// them, what they host and how loaded they are (DESIGN.md §12). Every node
// keeps a table of member entries ordered by (incarnation, version); each
// link's beacon carries the full table as a FrameGossip, so a node that
// joins by dialing any single live peer (a seed) learns the whole
// cluster within one gossip round per hop and the mesh completes itself by
// auto-dialing discovered members.
//
// Failure detection is converged suspicion rather than a single link's
// watchdog verdict: losing a link marks the member *suspect*; a fresher
// entry gossiped through any other path (the member bumps its entry version
// every beacon) refutes the suspicion, a member seeing any entry for itself
// that would outrank its own — an accusation at its incarnation, or any
// higher incarnation — outbids it with an incarnation bump, and only a
// suspicion that survives the refute window unchallenged becomes dead and
// fires EvPeerDown.
package cluster

import (
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// MemberStatus is a member's liveness state in the gossip view.
type MemberStatus uint8

// Member statuses; the numbering matches the wire encoding and the merge
// precedence at equal (incarnation, version): a worse status wins.
const (
	MemberAlive   = MemberStatus(wire.GossipAlive)
	MemberSuspect = MemberStatus(wire.GossipSuspect)
	MemberDead    = MemberStatus(wire.GossipDead)
)

// String implements fmt.Stringer.
func (s MemberStatus) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	default:
		return "unknown"
	}
}

// MemberComponent is one component hosted by a member, as gossiped.
type MemberComponent struct {
	Name     string
	Load     float64
	Follower string
}

// Member is a point-in-time copy of one membership entry.
type Member struct {
	ID          string
	Addr        string
	Incarnation uint64
	Version     uint64
	Status      MemberStatus
	Load        float64
	Components  []MemberComponent
}

// memberEntry is one live table row.
type memberEntry struct {
	m        wire.GossipMember
	statusAt time.Time // when Status last changed (suspect refute window)
}

// membership is the gossip table. It takes only its own lock and never
// calls back into the Node while holding it; merge returns the side effects
// (events to emit, owners to learn, members to dial) for the caller to
// apply, which keeps the lock order trivial.
type membership struct {
	n  *Node
	mu sync.Mutex
	// entries holds every member ever heard of, this node included. Dead
	// entries are kept: they carry the component list and follower
	// assignments failover needs, and their incarnation floor prevents a
	// stale Alive from resurrecting a dead member in the view.
	entries  map[string]*memberEntry
	lastDial map[string]time.Time
}

// mergeEffects is what a gossip merge asks the node to do, applied outside
// the membership lock.
type mergeEffects struct {
	newlyDead []string     // members that transitioned to dead: emit EvPeerDown
	claims    []ownerClaim // component ownership learned from alive entries
	dialable  []dialTarget // alive members we should hold a link to
}

type ownerClaim struct{ comp, owner string }

type dialTarget struct{ id, addr string }

func newMembership(n *Node, advertise string) *membership {
	mb := &membership{
		n:        n,
		entries:  map[string]*memberEntry{},
		lastDial: map[string]time.Time{},
	}
	// The self entry's incarnation is the start timestamp: a restarted node
	// reappears with a higher incarnation than every entry its previous
	// life gossiped, so the old Dead cannot shadow the new Alive.
	mb.entries[n.id] = &memberEntry{
		m: wire.GossipMember{
			Node:        n.id,
			Addr:        advertise,
			Incarnation: uint64(time.Now().UnixNano()),
			Status:      wire.GossipAlive,
		},
		statusAt: time.Now(),
	}
	return mb
}

// localView bumps the self entry — version, load and hosted components are
// refreshed — and returns the full table as a gossip payload. Called by
// each link's beacon; the version bump per call is harmless (monotonicity
// is all that matters) and is exactly what lets a fresh beacon relayed
// through a third party refute a stale suspicion.
func (mb *membership) localView() wire.Gossip {
	comps, total := mb.n.currentLoads()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	self := mb.entries[mb.n.id]
	self.m.Version++
	self.m.Load = total
	self.m.Comps = comps
	g := wire.Gossip{Members: make([]wire.GossipMember, 0, len(mb.entries))}
	ids := make([]string, 0, len(mb.entries))
	for id := range mb.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		g.Members = append(g.Members, mb.entries[id].m)
	}
	return g
}

// linkUp records direct evidence of life: a completed handshake with id.
// A suspect entry is cleared; a dead entry is resurrected with an
// incarnation bump (we act as the member's proxy — a live link outranks any
// relayed obituary). Also records the peer's address and components from
// its hello, so the member is in the view before its first beacon.
func (mb *membership) linkUp(id, addr string, comps []string) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	e := mb.entries[id]
	if e == nil {
		e = &memberEntry{}
		mb.entries[id] = e
		e.m.Node = id
	}
	if e.m.Status == wire.GossipDead {
		e.m.Incarnation++
		e.m.Version = 0
	}
	if e.m.Status != wire.GossipAlive {
		e.statusAt = time.Now()
	}
	e.m.Status = wire.GossipAlive
	if addr != "" {
		e.m.Addr = addr
	}
	if len(e.m.Comps) == 0 {
		for _, c := range comps {
			e.m.Comps = append(e.m.Comps, wire.GossipComp{Name: c})
		}
	}
}

// suspect marks id suspect after its link died. The verdict is provisional:
// the refute window (Options.SuspectAfter) starts now, and either a fresher
// gossiped entry clears it or sweep promotes it to dead.
func (mb *membership) suspect(id string) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	e := mb.entries[id]
	if e == nil || e.m.Status != wire.GossipAlive {
		return
	}
	e.m.Status = wire.GossipSuspect
	e.statusAt = time.Now()
}

// sweep promotes suspects whose refute window expired to dead, returning
// the newly dead ids; the caller emits their EvPeerDown events.
func (mb *membership) sweep(window time.Duration) []string {
	cutoff := time.Now().Add(-window)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var dead []string
	for id, e := range mb.entries {
		if e.m.Status == wire.GossipSuspect && e.statusAt.Before(cutoff) {
			e.m.Status = wire.GossipDead
			e.statusAt = time.Now()
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	return dead
}

// merge applies a received gossip view. linked is the set of peers this
// node currently holds a live link to: a relayed suspicion about a member
// we can still talk to is clamped back to alive locally (the direct link is
// better evidence than the rumor), while the member itself refutes with an
// incarnation bump when it finds itself suspected.
func (mb *membership) merge(g wire.Gossip, linked map[string]bool) mergeEffects {
	var eff mergeEffects
	now := time.Now()
	mb.mu.Lock()
	for _, gm := range g.Members {
		if gm.Node == mb.n.id {
			// Someone else holds an entry for us that would outrank our own
			// beacons: either an accusation (suspect/dead at our incarnation)
			// or any entry at a *higher* incarnation — e.g. the proxy
			// resurrection linkUp performs on a peer's behalf after a
			// partition heals. In both cases outbid it: adopting the highest
			// incarnation seen for ourselves plus one makes our next beacon
			// win every merge, so our load, component list and follower
			// assignments keep propagating instead of freezing cluster-wide
			// behind the foreign entry.
			self := mb.entries[mb.n.id]
			if gm.Incarnation > self.m.Incarnation ||
				(gm.Incarnation == self.m.Incarnation && gm.Status != wire.GossipAlive) {
				self.m.Incarnation = gm.Incarnation + 1
			}
			continue
		}
		e := mb.entries[gm.Node]
		if e == nil {
			e = &memberEntry{m: gm, statusAt: now}
			if gm.Status != wire.GossipAlive && linked[gm.Node] {
				e.m.Status = wire.GossipAlive
			}
			mb.entries[gm.Node] = e
			// A member first heard of as dead was never up in our view;
			// no transition, no event.
		} else {
			newer := gm.Incarnation > e.m.Incarnation ||
				(gm.Incarnation == e.m.Incarnation && gm.Version > e.m.Version) ||
				(gm.Incarnation == e.m.Incarnation && gm.Version == e.m.Version && gm.Status > e.m.Status)
			if !newer {
				continue
			}
			was := e.m.Status
			e.m = gm
			if gm.Status != wire.GossipAlive && linked[gm.Node] {
				e.m.Status = wire.GossipAlive
			}
			if e.m.Status != was {
				e.statusAt = now
				if e.m.Status == wire.GossipDead {
					eff.newlyDead = append(eff.newlyDead, gm.Node)
				}
			}
		}
		if e.m.Status == wire.GossipAlive {
			for _, c := range e.m.Comps {
				eff.claims = append(eff.claims, ownerClaim{comp: c.Name, owner: gm.Node})
			}
		}
	}
	eff.dialable = mb.dialCandidatesLocked(linked)
	mb.mu.Unlock()
	return eff
}

// dialCandidates lists alive members this node should be linked to but is
// not. The smaller node id dials — a deterministic tie-break so two members
// discovering each other through gossip do not cross-connect — and dials
// are rate-limited per target.
func (mb *membership) dialCandidates(linked map[string]bool) []dialTarget {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.dialCandidatesLocked(linked)
}

func (mb *membership) dialCandidatesLocked(linked map[string]bool) []dialTarget {
	now := time.Now()
	gap := 2 * mb.n.opts.Heartbeat
	var out []dialTarget
	for id, e := range mb.entries {
		if id == mb.n.id || e.m.Status != wire.GossipAlive || e.m.Addr == "" {
			continue
		}
		if linked[id] || mb.n.id >= id {
			continue
		}
		if last, ok := mb.lastDial[id]; ok && now.Sub(last) < gap {
			continue
		}
		mb.lastDial[id] = now
		out = append(out, dialTarget{id: id, addr: e.m.Addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// member returns a copy of one entry (ok=false when unknown).
func (mb *membership) member(id string) (Member, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	e := mb.entries[id]
	if e == nil {
		return Member{}, false
	}
	return copyMember(e.m), true
}

// members returns the full view sorted by id.
func (mb *membership) members() []Member {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	out := make([]Member, 0, len(mb.entries))
	for _, e := range mb.entries {
		out = append(out, copyMember(e.m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func copyMember(m wire.GossipMember) Member {
	out := Member{
		ID:          m.Node,
		Addr:        m.Addr,
		Incarnation: m.Incarnation,
		Version:     m.Version,
		Status:      MemberStatus(m.Status),
		Load:        m.Load,
	}
	for _, c := range m.Comps {
		out.Components = append(out.Components, MemberComponent{Name: c.Name, Load: c.Load, Follower: c.Follower})
	}
	return out
}
