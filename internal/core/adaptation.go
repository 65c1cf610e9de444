package core

import (
	"fmt"
	"slices"

	"repro/internal/aspects"
	"repro/internal/connector"
	"repro/internal/filters"
	"repro/internal/metaobj"
)

// This file is the RAML's adaptation-mechanism intercession surface: the
// run-time interchange of aspects, composition filters and meta-object
// wrappers (DESIGN.md §4-§5). Each operation is a region that only parks
// request admission — the components an aspect's pointcuts cover, the one
// connector a filter change targets, the one component a meta-object
// change targets — cut by the same executor as Reconfigure (inRegion in
// region.go). Applying the change compiles and atomically republishes the
// affected pipelines, so every message evaluates against exactly one
// complete pipeline generation, never a half-applied chain; the resume
// flushes the requests that parked at the cut onto the new pipeline, and
// the interchange is reported on the event stream.
//
// The direct handles (Weaver(), Connector().Filters()) remain available and
// are themselves atomic per binding; these wrappers add the cross-component
// region cut and the RAML observability.

// parkCovered adds to the region the bus address of every live component
// the predicate covers, in name order: the region of an aspect interchange.
func (s *System) parkCovered(r *reconfigRegion, covers func(component string) bool) {
	for name, rc := range *s.compView.Load() {
		if covers(name) {
			r.park = append(r.park, rc.ep.Addr())
		}
	}
	slices.Sort(r.park)
}

// AttachAspect attaches an aspect system-wide as one region-scoped
// interchange: every live component the aspect's pointcuts cover is closed
// to new requests while the weaver compiles and republishes the affected
// pipelines, then reopened onto the new generation. The aspect's pointcut
// globs are validated here — a malformed pattern fails the attach instead
// of silently matching nothing.
func (s *System) AttachAspect(a aspects.Aspect) error {
	return s.inRegion(func(r *reconfigRegion) error {
		s.parkCovered(r, aspects.Coverage(a))
		return nil
	}, func(r *reconfigRegion) error {
		if err := s.weaver.Attach(a); err != nil {
			return err
		}
		s.events.Emit(Event{Kind: EvAdaptation, At: s.clk.Now(),
			Detail: fmt.Sprintf("aspect %s attached (gen %d, region %d components)",
				a.Name, s.weaver.Generation(), len(r.park))})
		return nil
	})
}

// RemoveAspect detaches an aspect through the same region cut as
// AttachAspect.
func (s *System) RemoveAspect(name string) error {
	return s.inRegion(func(r *reconfigRegion) error {
		s.parkCovered(r, func(c string) bool { return s.weaver.Covers(name, c) })
		return nil
	}, func(r *reconfigRegion) error {
		if err := s.weaver.Remove(name); err != nil {
			return err
		}
		s.events.Emit(Event{Kind: EvAdaptation, At: s.clk.Now(),
			Detail: fmt.Sprintf("aspect %s removed (gen %d, region %d components)",
				name, s.weaver.Generation(), len(r.park))})
		return nil
	})
}

// EnableAspect toggles an aspect without detaching it — the lightest
// interchange, still cut at the covered components' admission edge. A
// toggle to the current state is a no-op: no region pause, no event.
func (s *System) EnableAspect(name string, on bool) error {
	var cur bool
	return s.inRegion(func(r *reconfigRegion) (err error) {
		if cur, err = s.weaver.IsEnabled(name); err == nil && cur != on {
			s.parkCovered(r, func(c string) bool { return s.weaver.Covers(name, c) })
		}
		return err
	}, func(*reconfigRegion) error {
		if cur == on {
			return nil // nothing was cut, nothing to report
		}
		if err := s.weaver.SetEnabled(name, on); err != nil {
			return err
		}
		s.events.Emit(Event{Kind: EvAdaptation, At: s.clk.Now(),
			Detail: fmt.Sprintf("aspect %s enabled=%v (gen %d)", name, on, s.weaver.Generation())})
		return nil
	})
}

// onConnector runs change as an interchange whose region is the connector
// mediating a binding.
func (s *System) onConnector(fromComponent, service string, change func(*connector.Connector) error) error {
	var conn *connector.Connector
	return s.inRegion(func(r *reconfigRegion) (err error) {
		if conn, err = s.Connector(fromComponent, service); err == nil {
			r.park = append(r.park, connector.Address(conn.Name()))
		}
		return err
	}, func(*reconfigRegion) error { return change(conn) })
}

// AttachFilter attaches a composition filter to the connector mediating the
// given binding, as a region-scoped interchange whose region is exactly
// that connector. The filter's glob patterns are compiled and validated
// before the pipeline is republished.
func (s *System) AttachFilter(fromComponent, service string, dir filters.Direction, f filters.Filter) error {
	return s.onConnector(fromComponent, service, func(conn *connector.Connector) error {
		if err := conn.Filters().Attach(dir, f); err != nil {
			return err
		}
		s.events.Emit(Event{Kind: EvAdaptation, At: s.clk.Now(), Component: fromComponent,
			Detail: fmt.Sprintf("filter %s attached to %s.%s %s (gen %d)",
				f.Name(), fromComponent, service, dir, conn.Filters().Generation(dir))})
		return nil
	})
}

// DetachFilter removes the named filter from the binding's connector.
func (s *System) DetachFilter(fromComponent, service string, dir filters.Direction, name string) error {
	return s.onConnector(fromComponent, service, func(conn *connector.Connector) error {
		if !conn.Filters().Detach(dir, name) {
			return fmt.Errorf("core: filter %s not attached to %s.%s %s", name, fromComponent, service, dir)
		}
		s.events.Emit(Event{Kind: EvAdaptation, At: s.clk.Now(), Component: fromComponent,
			Detail: fmt.Sprintf("filter %s detached from %s.%s %s (gen %d)",
				name, fromComponent, service, dir, conn.Filters().Generation(dir))})
		return nil
	})
}

// ReplaceFilters atomically swaps the binding's whole filter chain for dir:
// the transactional interchange primitive — either the complete new chain
// compiles and is published as one unit, or the old chain stays in effect.
func (s *System) ReplaceFilters(fromComponent, service string, dir filters.Direction, fs ...filters.Filter) error {
	return s.onConnector(fromComponent, service, func(conn *connector.Connector) error {
		if err := conn.Filters().Replace(dir, fs...); err != nil {
			return err
		}
		s.events.Emit(Event{Kind: EvAdaptation, At: s.clk.Now(), Component: fromComponent,
			Detail: fmt.Sprintf("filter chain %s.%s %s replaced: %d filters (gen %d)",
				fromComponent, service, dir, len(fs), conn.Filters().Generation(dir))})
		return nil
	})
}

// onComponent runs change as an interchange whose region is one live
// component.
func (s *System) onComponent(component string, change func(*runtimeComponent) error) error {
	var rc *runtimeComponent
	return s.inRegion(func(r *reconfigRegion) error {
		var ok bool
		if rc, ok = (*s.compView.Load())[component]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownComp, component)
		}
		r.park = append(r.park, rc.ep.Addr())
		return nil
	}, func(*reconfigRegion) error { return change(rc) })
}

// InsertMetaObject composes a meta-object wrapper into the named
// component's meta-controller chain; the region is that one component. The
// chain revalidates the wrapper set (exclusivity, partial order) and only a
// consistent composition is published.
func (s *System) InsertMetaObject(component string, o *metaobj.MetaObject) error {
	return s.onComponent(component, func(rc *runtimeComponent) error {
		if err := rc.meta.Insert(o); err != nil {
			return err
		}
		s.events.Emit(Event{Kind: EvAdaptation, At: s.clk.Now(), Component: component,
			Detail: fmt.Sprintf("meta-object %s inserted (gen %d, order %v)",
				o.Name, rc.meta.Generation(), rc.meta.Order())})
		return nil
	})
}

// RemoveMetaObject removes a wrapper from the component's chain; mandatory
// wrappers are refused by the chain itself.
func (s *System) RemoveMetaObject(component, name string) error {
	return s.onComponent(component, func(rc *runtimeComponent) error {
		if err := rc.meta.Remove(name); err != nil {
			return err
		}
		s.events.Emit(Event{Kind: EvAdaptation, At: s.clk.Now(), Component: component,
			Detail: fmt.Sprintf("meta-object %s removed (gen %d)", name, rc.meta.Generation())})
		return nil
	})
}

// MetaObjectOrder returns the execution order of the component's
// meta-controller chain.
func (s *System) MetaObjectOrder(component string) ([]string, error) {
	rc, ok := (*s.compView.Load())[component]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownComp, component)
	}
	return rc.meta.Order(), nil
}
