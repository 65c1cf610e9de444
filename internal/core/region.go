package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/container"
)

// reconfigRegion is the part of the running system a change closes to new
// requests while it applies; everything else keeps serving (the DReAM
// discipline of scoping a reconfiguration to the interacting region instead
// of stopping the world). park lists the addresses whose admission is only
// parked: a plan's inbound boundary connectors, the components an aspect
// covers, a filter's connector, a meta-object's component. comps lists the
// components that are parked and, when why is set, quiesced, caller-first.
type reconfigRegion struct {
	park  []bus.Address
	comps []string
	why   *quiesce // nil when nothing in comps can be in flight
}

// A quiesce names a change that brings components to their reconfiguration
// point: verb prefixes the error when one does not get there in time, abort
// ends the streams they produce (the consumer reopens against the new
// configuration). With flush, a resume that leaves requests parked at a
// component still hosted fails the change: a standalone swap reports it, a
// committed transaction cannot.
type quiesce struct {
	verb, abort string
	flush       bool
}

var (
	reconfiguring = &quiesce{verb: "region quiesce", abort: "region reconfiguring"}
	swapping      = &quiesce{verb: "swap", abort: "implementation swapping", flush: true}
	migrating     = &quiesce{verb: "migrate", abort: "component migrating"}
)

// covers reports whether the component is inside the region.
func (r *reconfigRegion) covers(component string) bool {
	return r != nil && slices.Contains(r.comps, component)
}

// computeRegion derives the affected region of a plan from the old and new
// configurations.
func computeRegion(oldCfg, newCfg *adl.Config, plan []adl.Change) *reconfigRegion {
	set := map[string]bool{}
	addBinding := func(b adl.Binding) {
		set[b.FromComponent] = true
		set[b.ToComponent] = true
	}
	for _, step := range plan {
		switch step.Kind {
		case adl.AddComponent, adl.RemoveComponent, adl.ModifyComponent:
			set[step.Target] = true
		// Redeploy is deliberately absent: migration keeps the component's
		// bus address and its cutover is a single atomic addrIndex swap, so
		// redeployed components need no pause or quiescence (DESIGN.md §4).
		case adl.AddBinding:
			if b, ok := findBinding(newCfg, step.Target); ok {
				addBinding(b)
			}
		case adl.RemoveBinding:
			if b, ok := findBinding(oldCfg, step.Target); ok {
				addBinding(b)
			}
		case adl.ModifyConnector:
			// A connector declaration change touches every binding mediated
			// by it, in either configuration.
			for _, cfg := range []*adl.Config{oldCfg, newCfg} {
				for _, b := range cfg.Bindings {
					if b.Via == step.Target {
						addBinding(b)
					}
				}
			}
		}
	}

	r := &reconfigRegion{}

	// Caller-first topological order over the region's binding subgraph
	// (union of both configurations): a caller must reach its
	// reconfiguration point while its callees still serve, otherwise its
	// in-flight work could never drain. Cycles fall back to name order.
	indeg := map[string]int{}
	succ := map[string][]string{}
	for name := range set {
		indeg[name] = 0
	}
	seen := map[string]bool{}
	for _, cfg := range []*adl.Config{oldCfg, newCfg} {
		for _, b := range cfg.Bindings {
			if !set[b.FromComponent] || !set[b.ToComponent] || b.FromComponent == b.ToComponent {
				continue
			}
			key := b.FromComponent + "\x00" + b.ToComponent
			if seen[key] {
				continue
			}
			seen[key] = true
			succ[b.FromComponent] = append(succ[b.FromComponent], b.ToComponent)
			indeg[b.ToComponent]++
		}
	}
	var ready []string
	for name, d := range indeg {
		if d == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		r.comps = append(r.comps, n)
		delete(indeg, n)
		next := succ[n]
		sort.Strings(next)
		for _, m := range next {
			if _, pending := indeg[m]; !pending {
				continue
			}
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
		sort.Strings(ready)
	}
	if len(indeg) > 0 { // cycle remainder
		var rest []string
		for name := range indeg {
			rest = append(rest, name)
		}
		sort.Strings(rest)
		r.comps = append(r.comps, rest...)
	}

	// Inbound boundary connectors: live bindings whose target is inside the
	// region but whose source is not. Pausing them parks outside traffic at
	// a clean edge; within-region bindings stay open so in-flight work can
	// drain during the caller-first quiesce.
	connSeen := map[bus.Address]bool{}
	for _, b := range oldCfg.Bindings {
		if set[b.ToComponent] && !set[b.FromComponent] {
			addr := connector.Address(connectorInstanceName(b))
			if !connSeen[addr] {
				connSeen[addr] = true
				r.park = append(r.park, addr)
			}
		}
	}
	return r
}

// inRegion is the one reconfiguration executor: Reconfigure,
// SwapImplementation, MigrateOut and the interchanges of adaptation.go cut
// their regions through it, and Rebind, EvictComponent and AdoptComponent
// take its lock with an empty region. It
//
//  1. serializes on reconfigMu, so no two changes interleave and one
//     change's resume never reopens a region another still holds;
//  2. runs build (if any) under that lock to name the region, or to refuse
//     the change before anything pauses;
//  3. parks request admission at the region — parked addresses first, then
//     components caller-first, each quiesced where the region asks so its
//     in-flight requests complete against not-yet-paused callees. Pauses
//     are request-only: replies keep flowing, which is what lets in-flight
//     work drain (Mazzara & Bhattacharyya's requirement that
//     reconfiguration run concurrently with application tasks). A region
//     that only parks needs no quiescence: the pipelines an interchange
//     republishes are immutable snapshots, so in-flight work finishes on
//     the chain it loaded;
//  4. runs apply, unless a component failed to quiesce;
//  5. reactivates what it quiesced and resumes in the reverse order,
//     whatever apply returned, so flushed requests land on already-active
//     providers. A component the change removed has no endpoint: what
//     parked for it stays parked, as after a Detach. apply leaves a
//     component parked by dropping it from comps.
//
// The region value is reused by every change, so a cut allocates nothing.
func (s *System) inRegion(build, apply func(r *reconfigRegion) error) error {
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	r := &s.region
	r.park, r.comps, r.why = r.park[:0], r.comps[:0], nil
	if build != nil {
		if err := build(r); err != nil {
			return err
		}
	}
	err := s.pause(r)
	if err == nil {
		err = apply(r)
	}
	view := *s.compView.Load()
	for i := len(r.comps) - 1; i >= 0; i-- {
		name := r.comps[i]
		rc := view[name]
		if rc != nil && rc.cont.State() == container.Passive {
			rc.cont.Activate() // one that failed to quiesce is still active
		}
		_, ferr := s.bus.Resume(regionAddr(name, rc))
		if ferr != nil && err == nil && rc != nil && r.why != nil && r.why.flush {
			err = fmt.Errorf("core: %s %s: resume: %w", r.why.verb, name, ferr)
		}
	}
	for i := len(r.park) - 1; i >= 0; i-- {
		_, _ = s.bus.Resume(r.park[i])
	}
	return err
}

// regionAddr is a region component's bus address, read off its endpoint
// when hosted so that cutting a live component allocates nothing.
func regionAddr(name string, rc *runtimeComponent) bus.Address {
	if rc != nil {
		return rc.ep.Addr()
	}
	return ComponentAddress(name)
}

// pause parks the region and quiesces its components.
func (s *System) pause(r *reconfigRegion) error {
	for _, a := range r.park {
		s.bus.PauseRequests(a)
	}
	view := *s.compView.Load()
	for _, name := range r.comps {
		rc := view[name]
		s.bus.PauseRequests(regionAddr(name, rc))
		if rc == nil || r.why == nil {
			continue // added by the change, or not running: nothing in flight
		}
		rc.abortStreams(r.why.abort)
		ctx, cancel := context.WithTimeout(context.Background(), s.callTimeout)
		err := rc.cont.Quiesce(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("core: %s %s: %w", r.why.verb, name, err)
		}
	}
	return nil
}
