package core

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/adl"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/netsim"
)

// This file is the core half of the distribution plane (DESIGN.md §6): the
// hooks through which internal/cluster makes a single-process System span
// real nodes. Core never imports the cluster or wire packages — it only
// exposes the remote-component view consulted by Call, the migrator hook
// consulted by Migrate, and the two halves of the cross-node migration
// protocol (MigrateOut on the origin, AdoptComponent on the destination),
// both built from the same region primitives local reconfiguration uses.

// Migrator is the cross-node migration hook. It reports whether it handled
// the target (a live cluster peer); when it does not, Migrate falls through
// to the simulated-topology path.
type Migrator func(component string, to netsim.NodeID) (handled bool, err error)

// SetMigrator installs (or, with nil, removes) the distribution plane's
// migration hook.
func (s *System) SetMigrator(m Migrator) {
	if m == nil {
		s.migrator.Store(nil)
		return
	}
	s.migrator.Store(&m)
}

// setRemoteLocked records a component as hosted on a peer node; callers hold
// s.mu (or own the system exclusively, as during assembly).
func (s *System) setRemoteLocked(name string) {
	next := maps.Clone(*s.remoteView.Load())
	next[name] = ComponentAddress(name)
	s.remoteView.Store(&next)
	s.refreshClientsLocked()
}

// dropRemoteLocked forgets a remote component; callers hold s.mu.
func (s *System) dropRemoteLocked(name string) {
	next := maps.Clone(*s.remoteView.Load())
	delete(next, name)
	s.remoteView.Store(&next)
	s.refreshClientsLocked()
}

// RegisterRemote marks a component as hosted on a peer node so that Call
// (and anything else resolving components by name) routes to its canonical
// address, where the distribution plane's gateway endpoint listens. A
// component hosted locally is never demoted to remote.
func (s *System) RegisterRemote(name string) {
	s.mu.Lock()
	if _, local := s.comps[name]; !local {
		s.setRemoteLocked(name)
	}
	s.mu.Unlock()
}

// UnregisterRemote forgets a remote component registration.
func (s *System) UnregisterRemote(name string) {
	s.mu.Lock()
	s.dropRemoteLocked(name)
	s.mu.Unlock()
}

// Remotes returns the sorted names of components currently registered as
// hosted on peer nodes.
func (s *System) Remotes() []string {
	view := *s.remoteView.Load()
	out := make([]string, 0, len(view))
	for name := range view {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Handoff is the quiesced image of a component leaving this node: its
// declaration (the destination rebuilds the implementation from its own
// registry under the same name), its captured state, and the capacity it
// held.
type Handoff struct {
	Component string
	Decl      adl.ComponentDecl
	CPU       float64
	State     []byte
	HasState  bool
}

// MigrateOut executes the origin half of a cross-node migration, following
// the same sequence a local hot swap does (§1) with the wire in the middle:
//
//  1. block the channel (request-only pause; replies drain in-flight work),
//  2. reach the reconfiguration point (container quiescence) and drain the
//     mailbox onto the paused route,
//  3. encode the module context (state snapshot),
//  4. ship — the caller sends the Handoff to the peer and returns once the
//     peer has adopted and acknowledged; any error rolls back completely
//     and the component resumes serving locally,
//  5. tear down the local instance and detach its endpoint,
//  6. rebind — the caller attaches its forwarding gateway at the vacated
//     address,
//  7. reopen the channel: every request parked during the migration flushes
//     into the gateway and reaches the component at its new home. Zero
//     loss, zero duplication: the origin was quiescent from step 2 on, and
//     the destination only started serving after the full state arrived.
//
// If rebind fails the channel stays blocked with the parked requests
// captured; a later gateway attach plus bus resume recovers them.
func (s *System) MigrateOut(component string, to netsim.NodeID, ship func(Handoff) error, rebind func() error) error {
	var (
		rc      *runtimeComponent
		started time.Time
		from    netsim.NodeID
	)
	// Steps 1–2 and the rollback are a one-component quiesced region, which
	// also aborts running stream producers: a stream is long-lived by
	// design, so waiting it out would hold the migration hostage.
	err := s.inRegion(func(r *reconfigRegion) error {
		var ok bool
		if rc, ok = (*s.compView.Load())[component]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownComp, component)
		}
		r.comps, r.why = append(r.comps, component), migrating
		started = s.clk.Now()
		return nil
	}, func(r *reconfigRegion) error {
		// 2. Bounce every queued request onto the paused route so the
		// mailbox is empty before teardown.
		if err := s.drainServeQueue(rc); err != nil {
			return fmt.Errorf("core: migrate %s: %w", component, err)
		}

		// 3. Encode the module context. Components without state capture
		// ship stateless; a capturer that fails to snapshot aborts the
		// migration.
		h := Handoff{Component: component, Decl: rc.decl, CPU: componentCPU(rc.decl)}
		if snap, serr := rc.cont.Snapshot(); serr == nil {
			h.State, h.HasState = snap, true
		} else if !errors.Is(serr, container.ErrNotCapturable) {
			return fmt.Errorf("core: migrate %s: snapshot: %w", component, serr)
		}

		// 4. Ship. The peer adopts under our pause; until the ack arrives
		// the component still exists here (passive) and there (active), but
		// no request can reach the passive copy, so no call is served twice.
		if err := ship(h); err != nil {
			return fmt.Errorf("core: migrate %s: ship: %w", component, err)
		}

		// 5. Commit: the peer owns the component now. Tear down the local
		// instance and route table entries; release exactly the capacity
		// that was allocated at placement time.
		addr := rc.ep.Addr()
		rc.stop()
		s.bus.Detach(addr)
		s.mu.Lock()
		// Remote view before component view: a handle's resolveNow reads
		// compView first and remoteView second, so publishing in the reverse
		// order would open a window where the component resolves through
		// neither snapshot and a concurrent call spuriously fails with
		// ErrUnknownComp.
		s.setRemoteLocked(component)
		delete(s.comps, component)
		s.publishCompsLocked()
		s.placement[component] = to
		released := rc.allocCPU
		from = rc.node
		rc.allocCPU, rc.node = 0, ""
		s.mu.Unlock()
		s.addrs.dropNode(addr)
		if s.topo != nil && from != "" {
			_ = s.topo.Release(from, released)
		}

		// 6. Re-point the address at the caller's gateway.
		if rebind != nil {
			if err := rebind(); err != nil {
				// The component is gone locally but its channel stays
				// blocked: parked requests are captured, not lost, until a
				// gateway attaches and resumes the address.
				r.comps = r.comps[:0]
				s.events.Emit(Event{Kind: EvMigration, At: s.clk.Now(), Component: component,
					Detail: fmt.Sprintf("-> %s (cross-node, rebind failed: %v)", to, err)})
				return fmt.Errorf("core: migrate %s: rebind: %w", component, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// 7. The region's resume flushed everything parked into the gateway.
	s.events.Emit(Event{Kind: EvMigration, At: s.clk.Now(), Component: component,
		Detail: fmt.Sprintf("%s -> %s (cross-node, blackout=%v)", from, to, s.clk.Now().Sub(started))})
	return nil
}

// EvictComponent stops and removes a live component from this node,
// releasing its endpoint, capacity and weaver binding. The distribution
// plane uses it to undo an adoption whose acknowledgement could not be
// delivered: the origin, never having seen the ack, rolls back and keeps
// serving, so the destination must not keep a second live copy.
func (s *System) EvictComponent(name string) error {
	return s.inRegion(nil, func(*reconfigRegion) error { return s.removeComponentLive(name) })
}

// SnapshotComponent captures a hot copy of a local component's state for
// warm-standby replication. Unlike the migration path there is no pause or
// quiesce: the snapshot is taken while the component keeps serving, so the
// component's own Snapshot implementation must be safe against concurrent
// invocations (every StateCapturer in this codebase guards its state with
// its own mutex). Returns container.ErrNotCapturable (wrapped) for
// stateless components — the replicator uses that to skip them.
func (s *System) SnapshotComponent(component string) ([]byte, error) {
	rc, ok := (*s.compView.Load())[component]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownComp, component)
	}
	return rc.cont.Snapshot()
}

// drainServeQueue waits until the component's mailbox is empty and no serve
// goroutine still holds a popped message. The channel is paused and the
// container passive, so every queued request is bounced by the container
// (ErrNotActive) and re-sent by serve, parking it on the paused route; this
// wait guarantees the endpoint teardown cannot strand a message inside the
// mailbox ring.
func (s *System) drainServeQueue(rc *runtimeComponent) error {
	deadline := time.Now().Add(s.callTimeout)
	for rc.ep.Len() > 0 || rc.serving.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: mailbox drain timed out (%d queued, %d serving)",
				rc.ep.Len(), rc.serving.Load())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// AdoptComponent executes the destination half of a cross-node migration:
// it instantiates the shipped declaration from the local registry, restores
// the captured state, takes over the component's canonical bus address and
// flushes every request that parked there while the address had no
// endpoint. pre, when non-nil, runs after validation and before the build —
// the cluster layer detaches its forwarding gateway there, so the address
// is free for the real endpoint. Messages sent in that window park on the
// addressless route and are recovered by the final resume.
func (s *System) AdoptComponent(decl adl.ComponentDecl, state []byte, hasState bool, pre func()) error {
	return s.inRegion(nil, func(*reconfigRegion) error {
		entry, err := s.reg.Lookup(decl.Name)
		if err != nil {
			return fmt.Errorf("core: adopt %s: %w", decl.Name, err)
		}
		// Validate instantiability before pre tears the gateway down, so a node
		// that cannot host the component refuses without disturbing routing.
		if _, ok := entry.New().(container.Component); !ok {
			return fmt.Errorf("%w: adopt %s", ErrBadComponent, decl.Name)
		}
		if pre != nil {
			pre()
		}

		addr := ComponentAddress(decl.Name)
		s.mu.Lock()
		if _, dup := s.comps[decl.Name]; dup {
			s.mu.Unlock()
			return fmt.Errorf("core: adopt %s: already hosted locally", decl.Name)
		}
		// The inherited placement entry may name the origin cluster node, which
		// is not a topology node here; the adopted instance is simply local.
		delete(s.placement, decl.Name)
		if err := s.buildComponentFromEntryLocked(decl, entry); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("core: adopt %s: %w", decl.Name, err)
		}
		rc := s.comps[decl.Name]
		if hasState {
			if rerr := rc.cont.Restore(state); rerr != nil {
				delete(s.comps, decl.Name)
				s.mu.Unlock()
				s.bus.Detach(addr)
				s.addrs.dropNode(addr)
				// The component never started, so stop() never runs: release
				// the weaver binding here or every failed adoption would leak
				// one binding the weaver recompiles on each aspect interchange.
				rc.woven.Release()
				return fmt.Errorf("core: adopt %s: restore: %w", decl.Name, rerr)
			}
		}
		// Keep the architectural model consistent: a node adopting a component
		// its own configuration never declared records the shipped declaration
		// (fresh slice — published snapshots never mutate).
		if _, declared := s.cfg.Component(decl.Name); !declared {
			next := *s.cfg
			next.Components = append(append([]adl.ComponentDecl(nil), s.cfg.Components...), decl)
			s.cfg = &next
		}
		// Component view before remote view (the mirror of MigrateOut's commit
		// order): a concurrent call must find the component in at least one
		// snapshot at every instant.
		s.publishCompsLocked()
		s.dropRemoteLocked(decl.Name)

		// Route the adopted component's own required services through local
		// connector instances, creating the ones assembly skipped while the
		// caller was remote.
		var (
			newConns []*connector.Connector
			bindErrs error
		)
		for _, b := range s.cfg.Bindings {
			if b.FromComponent != decl.Name {
				continue
			}
			inst := connectorInstanceName(b)
			if _, exists := s.conns[inst]; exists {
				rc.setRoute(b.FromService, connector.Address(inst))
				continue
			}
			if berr := s.buildBindingLocked(b); berr != nil {
				bindErrs = errors.Join(bindErrs, berr)
				continue
			}
			newConns = append(newConns, s.conns[inst])
		}
		running, ctx := s.running, s.ctx
		s.mu.Unlock()

		if running {
			for _, c := range newConns {
				c.Start(ctx)
			}
			rc.start(ctx)
		}
		// Recover everything that parked while the address was between
		// endpoints (gateway detached, real endpoint not yet attached).
		_, _ = s.bus.Resume(addr)
		s.events.Emit(Event{Kind: EvMigration, At: s.clk.Now(), Component: decl.Name,
			Detail: fmt.Sprintf("adopted (stateful=%v, %d bytes)", hasState, len(state))})
		if bindErrs != nil {
			return fmt.Errorf("core: adopt %s: bindings: %w", decl.Name, bindErrs)
		}
		return nil
	})
}
