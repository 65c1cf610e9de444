package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/deploy"
	"repro/internal/flo"
	"repro/internal/netsim"
)

// Guard is a non-regression invariant evaluated after every applied
// reconfiguration plan; a failing guard rolls the plan back. This realizes
// the paper's "overall concern … to guarantee non-regression and safety
// when the system changes its configuration".
type Guard func(s *System) error

// AddGuard registers a non-regression invariant. Guards run after a
// reconfiguration plan has been applied but before the affected region
// reopens, so a failing guard rolls back a configuration that never served
// traffic; consequently a guard must observe the system through
// introspection, the QoS monitor and the event stream — a synchronous Call
// into a component of the paused region parks until the call timeout, and
// invoking another intercession operation (Reconfigure, SwapImplementation,
// Rebind) from a guard deadlocks on the transaction lock the guard already
// runs under.
func (s *System) AddGuard(g Guard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.guards = append(s.guards, g)
}

// ReconfigReport summarizes one reconfiguration transaction.
type ReconfigReport struct {
	Steps      int
	Duration   time.Duration
	RolledBack bool
	Plan       []adl.Change
	// Region lists the components the transaction paused and quiesced, in
	// quiesce (caller-first) order; every component not listed kept serving
	// throughout.
	Region []string
}

// ErrReconfigFailed wraps reconfiguration failures (the system has been
// rolled back to the previous configuration).
var ErrReconfigFailed = errors.New("core: reconfiguration failed")

// Reconfigure transitions the running system to newCfg transactionally and
// region-scoped: the plan is computed with adl.Diff, validated (global
// consistency of the new configuration), and the affected region — the
// components and bindings the plan names — is paused and quiesced while
// every component outside it keeps serving traffic. The plan is then
// applied step by step, checked against all guards, rolled back entirely if
// any step or guard fails, and the region is resumed (flushing the requests
// that parked at its edges) either way.
func (s *System) Reconfigure(newCfg *adl.Config) (ReconfigReport, error) {
	started := s.clk.Now()
	rep := ReconfigReport{}
	if _, err := adl.Check(newCfg); err != nil {
		return rep, fmt.Errorf("%w: %v", ErrReconfigFailed, err)
	}
	var (
		oldCfg *adl.Config
		failed string // the rolled-back event's detail when a step failed
	)
	err := s.inRegion(func(r *reconfigRegion) error {
		// The plan diffs against a configuration no other change is
		// concurrently replacing: the executor's lock is held.
		s.mu.Lock()
		oldCfg = s.cfg
		s.mu.Unlock()
		rep.Plan = adl.Diff(oldCfg, newCfg)
		*r = *computeRegion(oldCfg, newCfg, rep.Plan)
		if s.live.Load() {
			r.why = reconfiguring
		}
		rep.Region = append([]string(nil), r.comps...)
		s.events.Emit(Event{Kind: EvReconfigStarted, At: started,
			Detail: fmt.Sprintf("%d steps toward %s (region: %v)", len(rep.Plan), newCfg.Name, rep.Region)})
		return nil
	}, func(r *reconfigRegion) (err error) {
		var undo []func() error
		// A failure undoes the applied prefix in reverse order, still inside
		// the cut region: the region reopens either fully committed or fully
		// restored, never half-way.
		defer func() {
			for i := len(undo) - 1; err != nil && i >= 0; i-- {
				if uerr := undo[i](); uerr != nil {
					// A failing compensation is a reconfiguration-step
					// error, not a guard failure.
					s.events.Emit(Event{Kind: EvReconfigStep, At: s.clk.Now(),
						Detail: "rollback failed: " + uerr.Error()})
				}
			}
		}()
		for _, step := range rep.Plan {
			s.events.Emit(Event{Kind: EvReconfigStep, At: s.clk.Now(), Detail: step.String()})
			u, err := s.applyStep(step, oldCfg, newCfg, r)
			if err != nil {
				failed = step.String() + ": " + err.Error()
				return fmt.Errorf("step %q: %v", step, err)
			}
			if u != nil {
				undo = append(undo, u)
			}
			rep.Steps++
		}
		// Non-regression guards, evaluated before the region reopens so a
		// failing guard rolls back a configuration that never served
		// traffic. Guards therefore must not call synchronously into the
		// region itself; they observe through introspection, the QoS
		// monitor and the stream.
		s.mu.Lock()
		guards := append([]Guard(nil), s.guards...)
		s.mu.Unlock()
		for _, g := range guards {
			if err := g(s); err != nil {
				s.events.Emit(Event{Kind: EvGuardFailed, At: s.clk.Now(), Detail: err.Error()})
				return fmt.Errorf("guard: %v", err)
			}
		}
		s.mu.Lock()
		s.cfg = newCfg
		s.mu.Unlock()
		return nil
	})
	rep.Duration = s.clk.Now().Sub(started)
	if err != nil {
		// Quiescence never reached (nothing was applied), or the applied
		// prefix was undone.
		if failed == "" {
			failed = err.Error()
		}
		rep.RolledBack = true
		s.events.Emit(Event{Kind: EvReconfigRolledBack, At: s.clk.Now(), Detail: failed})
		return rep, fmt.Errorf("%w: %v", ErrReconfigFailed, err)
	}
	s.events.Emit(Event{Kind: EvReconfigCommitted, At: s.clk.Now(),
		Detail: fmt.Sprintf("%d steps in %v (region: %v)", rep.Steps, rep.Duration, rep.Region)})
	return rep, nil
}

// applyStep executes one plan step inside the paused region and returns its
// compensation. The compensation runs with the region still paused, so it
// uses the same region-aware primitives.
func (s *System) applyStep(step adl.Change, oldCfg, newCfg *adl.Config, region *reconfigRegion) (func() error, error) {
	switch step.Kind {
	case adl.AddComponent:
		decl, ok := newCfg.Component(step.Target)
		if !ok {
			return nil, fmt.Errorf("declaration missing for %s", step.Target)
		}
		if err := s.addComponentLive(decl, newCfg); err != nil {
			return nil, err
		}
		return func() error { return s.removeComponentLive(step.Target) }, nil

	case adl.RemoveComponent:
		decl, _ := oldCfg.Component(step.Target)
		if err := s.removeComponentLive(step.Target); err != nil {
			return nil, err
		}
		return func() error { return s.addComponentLive(decl, oldCfg) }, nil

	case adl.ModifyComponent:
		// Implementation modification: swap to the latest registry entry.
		entry, err := s.reg.Lookup(step.Target)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		rc, ok := s.comps[step.Target]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownComp, step.Target)
		}
		prevEntry := rc.entry
		prevDecl := rc.decl
		newDecl, _ := newCfg.Component(step.Target)
		strong := newDecl.Properties["statefulness"] == "stateful"
		if err := s.swapWithin(region, step.Target, entry, strong); err != nil {
			return nil, err
		}
		rc.decl = newDecl
		return func() error {
			if prevEntry.New == nil {
				return nil
			}
			err := s.swapWithin(region, step.Target, prevEntry, strong)
			if err == nil {
				rc.decl = prevDecl
			}
			return err
		}, nil

	case adl.AddBinding:
		b, ok := findBinding(newCfg, step.Target)
		if !ok {
			return nil, fmt.Errorf("binding %q missing from new config", step.Target)
		}
		if err := s.addBindingLive(b, newCfg); err != nil {
			return nil, err
		}
		return func() error { return s.removeBindingLive(b) }, nil

	case adl.RemoveBinding:
		b, ok := findBinding(oldCfg, step.Target)
		if !ok {
			return nil, fmt.Errorf("binding %q missing from old config", step.Target)
		}
		if err := s.removeBindingLive(b); err != nil {
			return nil, err
		}
		return func() error { return s.addBindingLive(b, oldCfg) }, nil

	case adl.ModifyConnector:
		decl, ok := newCfg.Connector(step.Target)
		if !ok {
			return nil, fmt.Errorf("connector %s missing from new config", step.Target)
		}
		oldDecl, _ := oldCfg.Connector(step.Target)
		if err := s.retargetConnectorRules(step.Target, decl); err != nil {
			return nil, err
		}
		return func() error { return s.retargetConnectorRules(step.Target, oldDecl) }, nil

	case adl.AddConnector, adl.RemoveConnector:
		// Connector declarations are instantiated per binding; the
		// declaration change itself carries no runtime action.
		return nil, nil

	case adl.Redeploy:
		if s.topo == nil {
			return nil, nil
		}
		node, err := s.pickNode(step.Target, newCfg)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		rc, ok := s.comps[step.Target]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownComp, step.Target)
		}
		from := rc.node
		if from == node {
			return nil, nil
		}
		if err := s.Migrate(step.Target, node); err != nil {
			return nil, err
		}
		return func() error { return s.Migrate(step.Target, from) }, nil

	default:
		return nil, fmt.Errorf("unsupported change kind %v", step.Kind)
	}
}

// findBinding resolves a binding by its String() form.
func findBinding(cfg *adl.Config, repr string) (adl.Binding, bool) {
	for _, b := range cfg.Bindings {
		if b.String() == repr {
			return b, true
		}
	}
	return adl.Binding{}, false
}

// addComponentLive instantiates, places and starts a component at run time.
func (s *System) addComponentLive(decl adl.ComponentDecl, cfg *adl.Config) error {
	node := netsim.NodeID("")
	if s.topo != nil {
		n, err := s.pickNode(decl.Name, cfg)
		if err != nil {
			return err
		}
		node = n
		s.mu.Lock()
		s.placement[decl.Name] = node
		s.mu.Unlock()
	}
	entry, err := s.reg.Lookup(decl.Name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, dup := s.comps[decl.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("core: component %s already running", decl.Name)
	}
	err = s.buildComponentFromEntryLocked(decl, entry)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	rc := s.comps[decl.Name]
	running := s.running
	ctx := s.ctx
	s.publishCompsLocked()
	s.mu.Unlock()
	if running {
		rc.start(ctx)
	}
	return nil
}

// removeComponentLive stops and detaches a component, releasing its node.
func (s *System) removeComponentLive(name string) error {
	s.mu.Lock()
	rc, ok := s.comps[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComp, name)
	}
	delete(s.comps, name)
	delete(s.placement, name)
	s.publishCompsLocked()
	s.mu.Unlock()

	rc.stop()
	s.bus.Detach(rc.ep.Addr())
	s.addrs.dropNode(rc.ep.Addr())
	if s.topo != nil && rc.node != "" {
		// rc.allocCPU, not componentCPU(rc.decl): release what was actually
		// allocated even if the declaration changed since placement.
		_ = s.topo.Release(rc.node, rc.allocCPU)
	}
	return nil
}

// addBindingLive creates and starts the binding's connector instance and
// routes the caller side to it.
func (s *System) addBindingLive(b adl.Binding, cfg *adl.Config) error {
	decl, ok := cfg.Connector(b.Via)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConn, b.Via)
	}
	inst := decl
	inst.Name = connectorInstanceName(b)
	conn, err := (connector.Factory{Bus: s.bus}).Build(inst, []bus.Address{ComponentAddress(b.ToComponent)})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.conns[inst.Name] = conn
	rc, okC := s.comps[b.FromComponent]
	running := s.running
	ctx := s.ctx
	// Keep the architectural model in sync for connectorInstanceName
	// lookups (Rebind, Connector) — on a fresh bindings slice, never in
	// place: configuration snapshots handed out by Config() are read
	// outside s.mu (Migrate, adl.Diff). The addrIndex update stays
	// inside the critical section so it cannot reorder against a
	// concurrent Rebind.
	next := *s.cfg
	next.Bindings = append(append([]adl.Binding(nil), s.cfg.Bindings...), b)
	s.cfg = &next
	s.addrs.setVia(connector.Address(inst.Name), ComponentAddress(b.ToComponent))
	s.mu.Unlock()
	if okC {
		rc.setRoute(b.FromService, connector.Address(inst.Name))
	}
	if running {
		conn.Start(ctx)
	}
	return nil
}

// removeBindingLive stops the binding's connector and unroutes the caller.
func (s *System) removeBindingLive(b adl.Binding) error {
	inst := connectorInstanceName(b)
	s.mu.Lock()
	conn, ok := s.conns[inst]
	if ok {
		delete(s.conns, inst)
	}
	rc, okC := s.comps[b.FromComponent]
	// Copy-on-write for the same reason as addBindingLive: snapshots out in
	// the wild must never see in-place slice surgery.
	next := *s.cfg
	next.Bindings = make([]adl.Binding, 0, len(s.cfg.Bindings))
	removed := false
	for _, bb := range s.cfg.Bindings {
		if !removed && bb.String() == b.String() {
			removed = true
			continue
		}
		next.Bindings = append(next.Bindings, bb)
	}
	s.cfg = &next
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConn, inst)
	}
	conn.Stop()
	s.bus.Detach(connector.Address(inst))
	s.addrs.dropVia(connector.Address(inst))
	if okC {
		rc.dropRoute(b.FromService)
	}
	return nil
}

// componentCPU extracts the declared cpu requirement (default 1).
func componentCPU(decl adl.ComponentDecl) float64 {
	if v, ok := decl.Properties["cpu"]; ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return 1
}

// pickNode chooses a node for a component per its deployment clause:
// preferred region and secure flag honoured, least-utilized feasible node
// wins.
func (s *System) pickNode(component string, cfg *adl.Config) (netsim.NodeID, error) {
	var req deploy.Requirement
	for _, r := range deploy.FromConfig(cfg) {
		if r.Component == component {
			req = r
		}
	}
	var best *netsim.Node
	for _, n := range s.topo.Nodes() {
		if n.Failed() {
			continue
		}
		if req.Secure && !n.Secure {
			continue
		}
		if req.Region != "" && n.Region != req.Region {
			continue
		}
		if n.Load()+req.CPU > n.Capacity {
			continue
		}
		if best == nil || n.Utilization() < best.Utilization() {
			best = n
		}
	}
	if best == nil {
		// Relax the region preference before giving up.
		for _, n := range s.topo.Nodes() {
			if n.Failed() || (req.Secure && !n.Secure) || n.Load()+req.CPU > n.Capacity {
				continue
			}
			if best == nil || n.Utilization() < best.Utilization() {
				best = n
			}
		}
	}
	if best == nil {
		return "", fmt.Errorf("core: no feasible node for %s", component)
	}
	return best.ID, nil
}

// retargetConnectorRules swaps the FLO rule engines of all live instances
// of a connector declaration.
func (s *System) retargetConnectorRules(connName string, decl adl.ConnectorDecl) error {
	var eng *flo.Engine
	if len(decl.Rules) > 0 {
		e, err := flo.NewEngine(decl.Rules)
		if err != nil {
			return err
		}
		eng = e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.cfg.Bindings {
		if b.Via != connName {
			continue
		}
		if c, ok := s.conns[connectorInstanceName(b)]; ok {
			c.SetRules(eng)
		}
	}
	return nil
}
