package core

import (
	"fmt"
	"time"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/deploy"
	"repro/internal/netsim"
	"repro/internal/registry"
)

// SwapReport quantifies one hot-swap: experiment E4/E5 evidence.
type SwapReport struct {
	Component string
	// Blackout is how long the component's channel was blocked.
	Blackout time.Duration
	// HeldMessages is how many in-transit messages were parked and then
	// flushed — "the messages in transit" of the Polylith sequence.
	HeldMessages int
	// StateBytes is the size of the transferred state (strong swap only).
	StateBytes int
}

// SwapImplementation replaces a component's implementation online,
// following the paper's reconfiguration sequence (§1): block the
// communication channel (bus pause), wait for a reconfiguration point
// (container quiescence), encode the module context (state snapshot),
// create the new module (factory), restore, unblock. transferState selects
// strong dynamic reconfiguration.
//
// The pause is request-only: replies keep flowing so that a component with
// in-flight outcalls of its own can still reach its reconfiguration point —
// the swap's region is exactly this one component, and the rest of the
// system serves traffic throughout.
func (s *System) SwapImplementation(component string, entry registry.Entry, transferState bool) (SwapReport, error) {
	rep := SwapReport{Component: component}
	var (
		rc      *runtimeComponent
		started time.Time
	)
	// A standalone swap is a one-component quiesced region; it must not
	// interleave with a region-scoped Reconfigure, whose paused region this
	// swap's resume would otherwise reopen mid-transaction.
	err := s.inRegion(func(r *reconfigRegion) (err error) {
		if rc, err = s.swapTarget(component, entry); err != nil {
			return err
		}
		r.comps, r.why = append(r.comps, component), swapping
		started = s.clk.Now()
		return nil
	}, func(*reconfigRegion) (err error) {
		rep, err = s.replaceQuiesced(rc, entry, transferState)
		return err
	})
	if err != nil {
		return rep, err
	}
	rep.Blackout = s.clk.Now().Sub(started)
	s.events.Emit(Event{Kind: EvSwap, At: s.clk.Now(), Component: component,
		Detail: fmt.Sprintf("-> %s %s (strong=%v, held=%d)", entry.Name, entry.Version, transferState, rep.HeldMessages)})
	return rep, nil
}

// swapTarget resolves the component a swap replaces and gates the
// replacement implementation on the interface the component declares
// (interface modification rules).
func (s *System) swapTarget(component string, entry registry.Entry) (*runtimeComponent, error) {
	rc, ok := (*s.compView.Load())[component]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownComp, component)
	}
	if rc.decl.Implements == "" {
		return rc, nil
	}
	if iface, ok := s.Config().Interface(rc.decl.Implements); ok {
		if !registry.CheckCompliance(iface.ToRegistry(), entry.Provides).Compliant {
			return nil, fmt.Errorf("core: swap %s: replacement %s does not keep compliancy with %s",
				rc.name, entry.Name, iface.Name)
		}
	}
	return rc, nil
}

// replaceQuiesced is the one swap body: it replaces the hosted
// implementation of a component its region has quiesced (container
// Passive, channel blocked) — encoding the module context and initializing
// the new module — and records the new entry. Activation and the flush of
// the held messages it counts are the region's resume.
func (s *System) replaceQuiesced(rc *runtimeComponent, entry registry.Entry, transferState bool) (SwapReport, error) {
	rep := SwapReport{Component: rc.name}
	raw := entry.New()
	comp, ok := raw.(container.Component)
	if !ok {
		return rep, fmt.Errorf("%w: %s produced %T", ErrBadComponent, entry.Name, raw)
	}
	if transferState {
		if snap, serr := rc.cont.Snapshot(); serr == nil {
			rep.StateBytes = len(snap)
		}
	}
	if err := rc.cont.ReplaceComponent(comp, transferState); err != nil {
		return rep, fmt.Errorf("core: swap %s: %w", rc.name, err)
	}
	if aware, ok := comp.(CallerAware); ok {
		aware.SetCaller(rc)
	}
	rc.entry = entry
	rep.HeldMessages = s.bus.HeldCount(rc.ep.Addr())
	return rep, nil
}

// swapWithin performs an implementation swap as one step of a region-scoped
// transaction. The caller holds reconfigMu, so the component must be
// covered by the region — computeRegion always includes ModifyComponent
// targets; falling back to the standalone SwapImplementation here would
// self-deadlock on that mutex.
func (s *System) swapWithin(region *reconfigRegion, component string, entry registry.Entry, transferState bool) error {
	if !region.covers(component) {
		return fmt.Errorf("core: swap %s: component outside the transaction's region %v", component, region.comps)
	}
	rc, err := s.swapTarget(component, entry)
	if err != nil {
		return err
	}
	rep, err := s.replaceQuiesced(rc, entry, transferState)
	if err != nil {
		return err
	}
	s.events.Emit(Event{Kind: EvSwap, At: s.clk.Now(), Component: component,
		Detail: fmt.Sprintf("-> %s %s (strong=%v, held=%d, in-region)", entry.Name, entry.Version, transferState, rep.HeldMessages)})
	return nil
}

// Rebind points a binding's connector at a different provider component —
// "modifying the connections between the components" (§3). It serializes
// with Reconfigure so its architectural-model update cannot be erased by a
// concurrently committing transaction.
func (s *System) Rebind(fromComponent, service, newProvider string) error {
	return s.inRegion(nil, func(*reconfigRegion) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.comps[newProvider]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownComp, newProvider)
		}
		for name, c := range s.conns {
			for _, b := range s.cfg.Bindings {
				if connectorInstanceName(b) == name && b.FromComponent == fromComponent && b.FromService == service {
					// The cutover region is this one connector, and its swap is
					// already atomic: the target set and the routing index are
					// copy-on-write snapshots, so no pause or quiescence is
					// needed — requests mediated before the swap reach the old
					// provider, requests after it the new one, and the rest of
					// the system is untouched.
					c.SetTargets([]bus.Address{ComponentAddress(newProvider)})
					s.addrs.setVia(connector.Address(name), ComponentAddress(newProvider))
					// Track the change in the architectural model — on a fresh
					// bindings slice, not in place: Reconfigure diffs its
					// configuration snapshot outside s.mu, so a snapshot once
					// published must never mutate.
					next := *s.cfg
					next.Bindings = append([]adl.Binding(nil), s.cfg.Bindings...)
					for i := range next.Bindings {
						bb := &next.Bindings[i]
						if bb.FromComponent == fromComponent && bb.FromService == service {
							bb.ToComponent = newProvider
						}
					}
					s.cfg = &next
					s.events.Emit(Event{Kind: EvReconfigStep, At: s.clk.Now(),
						Component: fromComponent,
						Detail:    fmt.Sprintf("rebind %s.%s -> %s", fromComponent, service, newProvider)})
					return nil
				}
			}
		}
		return fmt.Errorf("%w: binding %s.%s", ErrUnknownConn, fromComponent, service)
	})
}

// Migrate moves a component to another node. When a Migrator hook is
// registered (the distribution plane) and recognizes the target as a live
// cluster peer, the component is handed off across the wire — quiesced,
// state-captured, shipped, re-registered on the peer, and its local address
// re-pointed at a gateway. Otherwise the target must be a topology node and
// the move is the simulated geographical change of §1, "so that they are
// 'closer' to the demand": the component keeps its bus address; only the
// latency model observes the move.
func (s *System) Migrate(component string, to netsim.NodeID) error {
	if mig := s.migrator.Load(); mig != nil {
		if handled, err := (*mig)(component, to); handled {
			return err
		}
	}
	s.mu.Lock()
	rc, ok := s.comps[component]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownComp, component)
	}
	if s.topo == nil {
		return fmt.Errorf("core: migrate %s: no topology configured", component)
	}
	if _, err := s.topo.Node(to); err != nil {
		return err
	}
	cpu := 1.0
	for _, r := range deploy.FromConfig(s.Config()) {
		if r.Component == component {
			cpu = r.CPU
		}
	}
	if err := s.topo.Allocate(to, cpu); err != nil {
		return fmt.Errorf("core: migrate %s: %w", component, err)
	}
	s.mu.Lock()
	from := rc.node
	// Release exactly what was allocated at placement time, not the
	// requirement re-read from the current configuration: a ModifyComponent
	// step can change the declared cpu without reallocating, and releasing
	// the re-read value would leak (or over-credit) capacity on the old node.
	released := rc.allocCPU
	rc.node = to
	rc.allocCPU = cpu
	s.placement[component] = to
	// Inside the critical section so concurrent migrations cannot reorder
	// the index updates against the rc.node writes (addrIndex is a leaf
	// lock, so nesting it here is safe).
	s.addrs.setNode(rc.ep.Addr(), to)
	s.mu.Unlock()
	if from != "" {
		_ = s.topo.Release(from, released)
	}
	s.events.Emit(Event{Kind: EvMigration, At: s.clk.Now(), Component: component,
		Detail: fmt.Sprintf("%s -> %s", from, to)})
	return nil
}

// Connector returns the live connector mediating a binding.
func (s *System) Connector(fromComponent, service string) (*connector.Connector, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.cfg.Bindings {
		if b.FromComponent == fromComponent && b.FromService == service {
			if c, ok := s.conns[connectorInstanceName(b)]; ok {
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrUnknownConn, fromComponent, service)
}

// Placement returns a copy of the current component placement.
func (s *System) Placement() deploy.Placement {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.placement.Clone()
}
