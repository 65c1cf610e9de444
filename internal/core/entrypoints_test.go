package core

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/filters"
	"repro/internal/metaobj"
	"repro/internal/registry"
)

// badSnapKV is a Store whose state cannot be captured: Snapshot fails with
// an error other than container.ErrNotCapturable, so a migration aborts.
type badSnapKV struct{ *kvStore }

func (badSnapKV) Snapshot() ([]byte, error) { return nil, errors.New("snapshot refused") }

// badRestoreKV is a Store replacement whose Restore fails, so a strong swap
// to it fails after quiescence.
type badRestoreKV struct{ *kvStore }

func (badRestoreKV) Restore([]byte) error { return errors.New("restore refused") }

// entryRig is one fresh KV system for one row of TestRegionEntryPoints.
type entryRig struct {
	sys  *System
	gate *gatedKV // Store's implementation when the row asked for a gate
}

// hold parks one Store.get inside the gated implementation until release,
// so a quiesce cannot complete while it is held.
func (r *entryRig) hold(t *testing.T) (release func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		// A deadline of its own: the call must outlive the system's short
		// call timeout, which bounds the quiesce.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := r.sys.Client("Store").Call(ctx, "get", "k")
		done <- err
	}()
	select {
	case <-r.gate.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("held call never reached Store")
	}
	return func() {
		close(r.gate.gate)
		if err := <-done; err != nil {
			t.Errorf("held call: %v", err)
		}
	}
}

func storeEntry(version int, newComp func() any) registry.Entry {
	return registry.Entry{Name: "Store", Version: registry.Version{Major: version},
		Provides: storeIface(), New: newComp}
}

func passMeta(name string) *metaobj.MetaObject {
	return &metaobj.MetaObject{Name: name, Props: metaobj.Modificatory,
		Invoke: func(m *bus.Message, next func(*bus.Message) error) error { return next(m) }}
}

func storeAspect(name string, op string) aspects.Aspect {
	return aspects.Aspect{Name: name, Advice: []aspects.Advice{{
		Pointcut: aspects.Pointcut{Component: "Store", Op: op},
		Before:   func(*aspects.Invocation) error { return nil }}}}
}

func passFilter(name, op string) filters.Filter {
	return filters.Transform{FilterName: name, Match: filters.Matcher{Op: op}, Fn: func(*bus.Message) {}}
}

// withKVChange returns the KV system with one edit applied to its source.
func withKVChange(t *testing.T, old, new string) *adl.Config {
	t.Helper()
	cfg, err := adl.Parse(strings.Replace(kvSystem, old, new, 1))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// durations matches the durations in an event detail, which vary run to run.
var durations = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)

// TestRegionEntryPoints runs every reconfiguration entry point — Reconfigure,
// weak and strong SwapImplementation, MigrateOut (and AdoptComponent, its
// other half) with a stub ship, and the eight interchanges — through its
// success path and each failure path it has, and pins what each one reports:
// its error, the events it emits (kind and detail text, durations masked;
// a trailing * matches any rest), and for a swap its report. After every
// row the component it touched serves a call, nothing is left parked on the
// bus (Sent == Delivered + Dropped + Held with Held == 0) and no call is
// pending.
func TestRegionEntryPoints(t *testing.T) {
	type row struct {
		name string
		// gated hosts Store on a gatedKV and shortens the call timeout, so
		// the row can hold a call across a quiesce.
		gated bool
		// unstarted runs the change before Start, which follows it.
		unstarted bool
		setup     func(t *testing.T, r *entryRig)
		run       func(t *testing.T, r *entryRig) error
		wantErr   string // substring of the error; "" wants success
		events    []string
		serves    string // the component that must serve a call afterwards
	}
	reconfigRows := []row{
		{name: "Reconfigure/adds a component",
			run: func(t *testing.T, r *entryRig) error {
				_, err := r.sys.Reconfigure(withKVChange(t, "component Store {",
					"component Cache {\n    provide get(key) -> (value)\n  }\n  component Store {"))
				return err
			},
			events: []string{
				"reconfig-started: 1 steps toward KV (region: [Cache])",
				"reconfig-step: add-component Cache",
				"component-started Cache: ",
				"reconfig-committed: 1 steps in T (region: [Cache])",
			},
			serves: "Cache"},
		{name: "Reconfigure/before Start", unstarted: true,
			run: func(t *testing.T, r *entryRig) error {
				_, err := r.sys.Reconfigure(withKVChange(t, "component Store {",
					"component Cache {\n    provide get(key) -> (value)\n  }\n  component Store {"))
				return err
			},
			events: []string{
				"reconfig-started: 1 steps toward KV (region: [Cache])",
				"reconfig-step: add-component Cache",
				"reconfig-committed: 1 steps in T (region: [Cache])",
			},
			serves: "Cache"},
		{name: "Reconfigure/invalid configuration",
			run: func(t *testing.T, r *entryRig) error {
				_, err := r.sys.Reconfigure(withKVChange(t, "bind Front.get -> Store.get via Link",
					"bind Front.get -> Ghost.get via Link"))
				return err
			},
			wantErr: "core: reconfiguration failed: ",
			serves:  "Store"},
		{name: "Reconfigure/step fails",
			run: func(t *testing.T, r *entryRig) error {
				_, err := r.sys.Reconfigure(withKVChange(t, "component Store {",
					"component Ghost {\n    provide get(key) -> (value)\n  }\n  component Store {"))
				return err
			},
			wantErr: `core: reconfiguration failed: step "add-component Ghost": registry: not found: Ghost`,
			events: []string{
				"reconfig-started: 1 steps toward KV (region: [Ghost])",
				"reconfig-step: add-component Ghost",
				"reconfig-rolled-back: add-component Ghost: registry: not found: Ghost",
			},
			serves: "Store"},
		{name: "Reconfigure/guard fails",
			setup: func(t *testing.T, r *entryRig) {
				r.sys.AddGuard(func(*System) error { return errors.New("budget exceeded") })
			},
			run: func(t *testing.T, r *entryRig) error {
				_, err := r.sys.Reconfigure(withKVChange(t, `property statefulness = "stateful"`,
					"property statefulness = \"stateful\"\n    property tier = \"gold\""))
				return err
			},
			wantErr: "budget exceeded",
			events: []string{
				"reconfig-started: 1 steps toward KV (region: [Store])",
				"reconfig-step: modify-component Store",
				"swap Store: -> Store 1.0 (strong=true, held=0, in-region)",
				"guard-failed: budget exceeded",
				"swap Store: -> Store 1.0 (strong=true, held=0, in-region)",
				"reconfig-rolled-back: *",
			},
			serves: "Store"},
		{name: "Reconfigure/quiesce times out", gated: true,
			run: func(t *testing.T, r *entryRig) error {
				defer r.hold(t)()
				_, err := r.sys.Reconfigure(withKVChange(t, `property statefulness = "stateful"`,
					"property statefulness = \"stateful\"\n    property tier = \"gold\""))
				return err
			},
			wantErr: "core: reconfiguration failed: core: region quiesce Store: container Store: quiesce: context deadline exceeded",
			events: []string{
				"reconfig-started: 1 steps toward KV (region: [Store])",
				"reconfig-rolled-back: core: region quiesce Store: container Store: quiesce: context deadline exceeded",
			},
			serves: "Store"},
	}
	swapRows := []row{
		{name: "SwapImplementation/weak",
			run: func(t *testing.T, r *entryRig) error {
				rep, err := r.sys.SwapImplementation("Store", storeEntry(2, func() any { return newKV("v2") }), false)
				if err == nil && (rep.Component != "Store" || rep.StateBytes != 0 || rep.HeldMessages != 0 || rep.Blackout <= 0) {
					t.Errorf("report %+v", rep)
				}
				return err
			},
			events: []string{"swap Store: -> Store 2.0 (strong=false, held=0)"},
			serves: "Store"},
		{name: "SwapImplementation/strong",
			run: func(t *testing.T, r *entryRig) error {
				rep, err := r.sys.SwapImplementation("Store", storeEntry(2, func() any { return newKV("v2") }), true)
				if err == nil && (rep.Component != "Store" || rep.StateBytes != len(`{"k":"v"}`) || rep.HeldMessages != 0 || rep.Blackout <= 0) {
					t.Errorf("report %+v", rep)
				}
				return err
			},
			events: []string{"swap Store: -> Store 2.0 (strong=true, held=0)"},
			serves: "Store"},
		{name: "SwapImplementation/before Start", unstarted: true,
			run: func(t *testing.T, r *entryRig) error {
				_, err := r.sys.SwapImplementation("Store", storeEntry(2, func() any { return newKV("v2") }), true)
				return err
			},
			wantErr: "core: swap Store: container Store: cannot quiesce from inactive",
			serves:  "Store"},
		{name: "SwapImplementation/unknown component",
			run: func(t *testing.T, r *entryRig) error {
				_, err := r.sys.SwapImplementation("Ghost", storeEntry(2, func() any { return newKV("v2") }), true)
				return err
			},
			wantErr: "core: unknown component: Ghost",
			serves:  "Store"},
		{name: "SwapImplementation/non-compliant entry",
			run: func(t *testing.T, r *entryRig) error {
				e := storeEntry(2, func() any { return newKV("v2") })
				e.Provides = registry.Interface{Name: "Other", Version: registry.Version{Major: 1}}
				_, err := r.sys.SwapImplementation("Store", e, true)
				return err
			},
			wantErr: "core: swap Store: replacement Store does not keep compliancy with StoreAPI",
			serves:  "Store"},
		{name: "SwapImplementation/restore fails",
			run: func(t *testing.T, r *entryRig) error {
				rep, err := r.sys.SwapImplementation("Store", storeEntry(2, func() any { return badRestoreKV{newKV("v2")} }), true)
				if rep.StateBytes != len(`{"k":"v"}`) || rep.Blackout != 0 {
					t.Errorf("report %+v", rep)
				}
				return err
			},
			wantErr: "core: swap Store: container Store: restore: restore refused",
			serves:  "Store"},
		{name: "SwapImplementation/quiesce times out", gated: true,
			run: func(t *testing.T, r *entryRig) error {
				defer r.hold(t)()
				_, err := r.sys.SwapImplementation("Store", storeEntry(2, func() any { return newKV("v2") }), true)
				return err
			},
			wantErr: "core: swap Store: container Store: quiesce: context deadline exceeded",
			serves:  "Store"},
	}
	// migrate runs the origin half with a stub ship that keeps the handoff,
	// then adopts it back on the same system (when shipped) so the
	// component serves again.
	migrate := func(ship, rebind error, adoptState []byte) func(t *testing.T, r *entryRig) error {
		return func(t *testing.T, r *entryRig) error {
			var h *Handoff
			err := r.sys.MigrateOut("Store", "n2", func(x Handoff) error {
				if ship == nil {
					h = &x
				}
				return ship
			}, func() error { return rebind })
			if h != nil {
				state := h.State
				if adoptState != nil {
					if aerr := r.sys.AdoptComponent(h.Decl, adoptState, true, nil); aerr == nil {
						t.Error("adopting an unrestorable state succeeded")
					}
				}
				if aerr := r.sys.AdoptComponent(h.Decl, state, h.HasState, nil); aerr != nil {
					t.Errorf("adopt back: %v", aerr)
				}
			}
			return err
		}
	}
	migrateRows := []row{
		{name: "MigrateOut/ships and adopts back",
			run: migrate(nil, nil, nil),
			events: []string{
				"component-stopped Store: ",
				"migration Store:  -> n2 (cross-node, blackout=T)",
				"component-started Store: ",
				`migration Store: adopted (stateful=true, 9 bytes)`,
			},
			serves: "Store"},
		{name: "MigrateOut/adopt restore fails",
			run: migrate(nil, nil, []byte("not json")),
			events: []string{
				"component-stopped Store: ",
				"migration Store:  -> n2 (cross-node, blackout=T)",
				"component-started Store: ",
				`migration Store: adopted (stateful=true, 9 bytes)`,
			},
			serves: "Store"},
		{name: "MigrateOut/before Start", unstarted: true,
			run:     migrate(nil, nil, nil),
			wantErr: "core: migrate Store: container Store: cannot quiesce from inactive",
			serves:  "Store"},
		{name: "MigrateOut/unknown component",
			run: func(t *testing.T, r *entryRig) error {
				return r.sys.MigrateOut("Ghost", "n2", func(Handoff) error { return nil }, nil)
			},
			wantErr: "core: unknown component: Ghost",
			serves:  "Store"},
		{name: "MigrateOut/ship fails",
			run:     migrate(errors.New("peer refused"), nil, nil),
			wantErr: "core: migrate Store: ship: peer refused",
			serves:  "Store"},
		{name: "MigrateOut/snapshot fails",
			setup: func(t *testing.T, r *entryRig) {
				if _, err := r.sys.SwapImplementation("Store", storeEntry(2, func() any { return badSnapKV{newKV("v2")} }), false); err != nil {
					t.Fatal(err)
				}
				if _, err := r.sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
					t.Fatal(err)
				}
			},
			run:     migrate(nil, nil, nil),
			wantErr: "core: migrate Store: snapshot: snapshot refused",
			serves:  "Store"},
		{name: "MigrateOut/rebind fails",
			run:     migrate(nil, errors.New("no gateway"), nil),
			wantErr: "core: migrate Store: rebind: no gateway",
			events: []string{
				"component-stopped Store: ",
				"migration Store: -> n2 (cross-node, rebind failed: no gateway)",
				"component-started Store: ",
				`migration Store: adopted (stateful=true, 9 bytes)`,
			},
			serves: "Store"},
		{name: "MigrateOut/quiesce times out", gated: true,
			run: func(t *testing.T, r *entryRig) error {
				defer r.hold(t)()
				return migrate(nil, nil, nil)(t, r)
			},
			wantErr: "core: migrate Store: container Store: quiesce: context deadline exceeded",
			serves:  "Store"},
	}
	interchangeRows := []row{
		{name: "AttachAspect",
			run:    func(t *testing.T, r *entryRig) error { return r.sys.AttachAspect(storeAspect("audit", "get")) },
			events: []string{"adaptation: aspect audit attached (gen 1, region 1 components)"},
			serves: "Store"},
		{name: "AttachAspect/malformed pointcut",
			run:     func(t *testing.T, r *entryRig) error { return r.sys.AttachAspect(storeAspect("audit", "a[")) },
			wantErr: "syntax error in pattern",
			serves:  "Store"},
		{name: "RemoveAspect",
			setup: func(t *testing.T, r *entryRig) {
				if err := r.sys.AttachAspect(storeAspect("audit", "get")); err != nil {
					t.Fatal(err)
				}
			},
			run:    func(t *testing.T, r *entryRig) error { return r.sys.RemoveAspect("audit") },
			events: []string{"adaptation: aspect audit removed (gen 2, region 1 components)"},
			serves: "Store"},
		{name: "RemoveAspect/unknown",
			run:     func(t *testing.T, r *entryRig) error { return r.sys.RemoveAspect("ghost") },
			wantErr: "ghost",
			serves:  "Store"},
		{name: "EnableAspect",
			setup: func(t *testing.T, r *entryRig) {
				if err := r.sys.AttachAspect(storeAspect("audit", "get")); err != nil {
					t.Fatal(err)
				}
			},
			run:    func(t *testing.T, r *entryRig) error { return r.sys.EnableAspect("audit", false) },
			events: []string{"adaptation: aspect audit enabled=false (gen 2)"},
			serves: "Store"},
		{name: "EnableAspect/already in that state",
			setup: func(t *testing.T, r *entryRig) {
				if err := r.sys.AttachAspect(storeAspect("audit", "get")); err != nil {
					t.Fatal(err)
				}
			},
			run:    func(t *testing.T, r *entryRig) error { return r.sys.EnableAspect("audit", true) },
			serves: "Store"},
		{name: "EnableAspect/unknown",
			run:     func(t *testing.T, r *entryRig) error { return r.sys.EnableAspect("ghost", false) },
			wantErr: "ghost",
			serves:  "Store"},
		{name: "AttachFilter",
			run: func(t *testing.T, r *entryRig) error {
				return r.sys.AttachFilter("Front", "get", filters.Input, passFilter("stamp", "get"))
			},
			events: []string{"adaptation Front: filter stamp attached to Front.get input (gen 1)"},
			serves: "Front"},
		{name: "AttachFilter/malformed glob",
			run: func(t *testing.T, r *entryRig) error {
				return r.sys.AttachFilter("Front", "get", filters.Input, passFilter("stamp", "["))
			},
			wantErr: "syntax error in pattern",
			serves:  "Front"},
		{name: "AttachFilter/unknown binding",
			run: func(t *testing.T, r *entryRig) error {
				return r.sys.AttachFilter("Front", "ghost", filters.Input, passFilter("stamp", "get"))
			},
			wantErr: "core: unknown connector: Front.ghost",
			serves:  "Front"},
		{name: "DetachFilter",
			setup: func(t *testing.T, r *entryRig) {
				if err := r.sys.AttachFilter("Front", "get", filters.Input, passFilter("stamp", "get")); err != nil {
					t.Fatal(err)
				}
			},
			run: func(t *testing.T, r *entryRig) error {
				return r.sys.DetachFilter("Front", "get", filters.Input, "stamp")
			},
			events: []string{"adaptation Front: filter stamp detached from Front.get input (gen 2)"},
			serves: "Front"},
		{name: "DetachFilter/unknown filter name",
			run: func(t *testing.T, r *entryRig) error {
				return r.sys.DetachFilter("Front", "get", filters.Input, "ghost")
			},
			wantErr: "core: filter ghost not attached to Front.get input",
			serves:  "Front"},
		{name: "ReplaceFilters",
			run: func(t *testing.T, r *entryRig) error {
				return r.sys.ReplaceFilters("Front", "get", filters.Output, passFilter("a", "get"), passFilter("b", "*"))
			},
			events: []string{"adaptation Front: filter chain Front.get output replaced: 2 filters (gen 1)"},
			serves: "Front"},
		{name: "ReplaceFilters/malformed glob",
			run: func(t *testing.T, r *entryRig) error {
				return r.sys.ReplaceFilters("Front", "get", filters.Output, passFilter("a", "get"), passFilter("b", "["))
			},
			wantErr: "syntax error in pattern",
			serves:  "Front"},
		{name: "InsertMetaObject",
			run:    func(t *testing.T, r *entryRig) error { return r.sys.InsertMetaObject("Store", passMeta("meter")) },
			events: []string{"adaptation Store: meta-object meter inserted (gen 1, order [meter])"},
			serves: "Store"},
		{name: "InsertMetaObject/unknown component",
			run:     func(t *testing.T, r *entryRig) error { return r.sys.InsertMetaObject("Ghost", passMeta("meter")) },
			wantErr: "core: unknown component: Ghost",
			serves:  "Store"},
		{name: "InsertMetaObject/chain refuses a duplicate",
			setup: func(t *testing.T, r *entryRig) {
				if err := r.sys.InsertMetaObject("Store", passMeta("meter")); err != nil {
					t.Fatal(err)
				}
			},
			run:     func(t *testing.T, r *entryRig) error { return r.sys.InsertMetaObject("Store", passMeta("meter")) },
			wantErr: "metaobj: duplicate wrapper",
			serves:  "Store"},
		{name: "RemoveMetaObject",
			setup: func(t *testing.T, r *entryRig) {
				if err := r.sys.InsertMetaObject("Store", passMeta("meter")); err != nil {
					t.Fatal(err)
				}
			},
			run:    func(t *testing.T, r *entryRig) error { return r.sys.RemoveMetaObject("Store", "meter") },
			events: []string{"adaptation Store: meta-object meter removed (gen 2)"},
			serves: "Store"},
		{name: "RemoveMetaObject/unknown component",
			run:     func(t *testing.T, r *entryRig) error { return r.sys.RemoveMetaObject("Ghost", "meter") },
			wantErr: "core: unknown component: Ghost",
			serves:  "Store"},
		{name: "RemoveMetaObject/chain refuses a mandatory wrapper",
			setup: func(t *testing.T, r *entryRig) {
				m := passMeta("audit")
				m.Props |= metaobj.Mandatory
				if err := r.sys.InsertMetaObject("Store", m); err != nil {
					t.Fatal(err)
				}
			},
			run:     func(t *testing.T, r *entryRig) error { return r.sys.RemoveMetaObject("Store", "audit") },
			wantErr: "metaobj: cannot remove mandatory wrapper: audit",
			serves:  "Store"},
	}

	var rows []row
	for _, group := range [][]row{reconfigRows, swapRows, migrateRows, interchangeRows} {
		rows = append(rows, group...)
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			r := &entryRig{}
			opts := Options{}
			if tc.gated {
				r.gate = &gatedKV{kvStore: newKV("v1"), gate: make(chan struct{}), entered: make(chan struct{}, 1)}
				reg := &registry.Registry{}
				for _, e := range []registry.Entry{storeEntry(1, func() any { return r.gate }),
					{Name: "Front", Version: registry.Version{Major: 1}, New: func() any { return &frontend{} }}} {
					if err := reg.Register(e); err != nil {
						t.Fatal(err)
					}
				}
				opts = Options{Registry: reg, CallTimeout: 100 * time.Millisecond}
			} else {
				reg := kvRegistry(t)
				if err := reg.Register(registry.Entry{Name: "Cache", Version: registry.Version{Major: 1},
					New: func() any { return newKV("cache") }}); err != nil {
					t.Fatal(err)
				}
				opts = Options{Registry: reg}
			}
			put := func() {
				if _, err := r.sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
					t.Fatal(err)
				}
			}
			if tc.unstarted {
				cfg, err := adl.Parse(kvSystem)
				if err != nil {
					t.Fatal(err)
				}
				if r.sys, err = NewSystem(cfg, opts); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(r.sys.Stop)
			} else {
				r.sys = startKV(t, opts)
				put()
			}
			if tc.setup != nil {
				tc.setup(t, r)
			}
			events, cancel := r.sys.Events().Subscribe(256)
			defer cancel()

			err := tc.run(t, r)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("err = %v, want success", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}

			var got []string
			for len(events) > 0 {
				e := <-events
				if e.Kind == EvRequestServed || e.Kind == EvRequestFailed {
					continue
				}
				line := e.Kind.String()
				if e.Component != "" && e.Kind != EvReconfigStarted {
					line += " " + e.Component
				}
				got = append(got, line+": "+durations.ReplaceAllString(e.Detail, "T"))
			}
			if len(got) != len(tc.events) {
				t.Fatalf("events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.events, "\n"))
			}
			for i, want := range tc.events {
				if got[i] != want && !(strings.HasSuffix(want, "*") && strings.HasPrefix(got[i], strings.TrimSuffix(want, "*"))) {
					t.Fatalf("event %d = %q, want %q (all: %q)", i, got[i], want, got)
				}
			}

			if tc.unstarted {
				if err := r.sys.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				put()
			}

			// The touched component serves, and the cut left nothing behind.
			op, args := "len", []any(nil)
			switch tc.serves {
			case "Front":
				op, args = "fetch", []any{"k"}
				if _, err := r.sys.Client("Store").Call(context.Background(), "put", "k", "v"); err != nil {
					t.Fatal(err)
				}
			case "Cache":
				op, args = "put", []any{"k", "v"}
			}
			if _, err := r.sys.Client(tc.serves).Call(context.Background(), op, args...); err != nil {
				t.Fatalf("%s.%s after the change: %v", tc.serves, op, err)
			}
			// A reply is counted delivered just after it wakes its caller.
			eventually(t, "bus ledger balanced with nothing held", func() bool {
				b := r.sys.Telemetry().Bus
				return b.Sent == b.Delivered+b.Dropped+b.Held && b.Held == 0
			})
			if n := r.sys.PendingCalls(); n != 0 {
				t.Fatalf("%d calls pending", n)
			}
		})
	}
}
