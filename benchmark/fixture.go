package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	aas "repro"

	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/registry"
)

// One architecture serves all four workloads, so a churn round is the same
// sequence of operations everywhere: Front reaches Store through the rpc
// connector Link (the mediated path of local_reconfig); the typed and
// remote workloads call Store directly and leave Front and Link idle.
const ledgerADL = `
system Ledger {
  component Front {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component Store {
    provide get(key) -> (value)
  }
  connector Link { kind rpc }
  bind Front.get -> Store.get via Link
}
`

// The smallest message, where per-call cost dominates: 5-byte keys and
// 16-byte values over a 1024-key space. The table is fixed; the seed only
// orders the keys a run asks for.
const keySpace = 1024

var (
	keys  [keySpace]string
	vals  [keySpace]string
	table = map[string]string{}
)

func init() {
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
		vals[i] = fmt.Sprintf("v:%s:%08x", keys[i], uint32(i)*2654435761)
		table[keys[i]] = vals[i]
	}
}

// keySequence is the seeded input of a run: the order in which keys are
// requested, cycled for as long as the run lasts.
func keySequence(seed int64) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]uint16, 1<<16)
	for i := range seq {
		seq[i] = uint16(rng.Intn(keySpace))
	}
	return seq
}

// front forwards fetch to its required service get, through Link.
type front struct{ caller aas.Caller }

func (f *front) SetCaller(c aas.Caller) { f.caller = c }

func (f *front) Handle(op string, args []any) ([]any, error) {
	return f.caller.Call("get", args...)
}

// store serves get from the shared read-only table and counts what it
// served. The counter is its whole transferable state (8 bytes): a swap
// then prices the platform's quiesce/replace/resume and not an encoder.
type store struct{ served atomic.Int64 }

func (s *store) Handle(op string, args []any) ([]any, error) {
	if op != "get" || len(args) != 1 {
		return nil, fmt.Errorf("store: bad call %s/%d", op, len(args))
	}
	key, _ := args[0].(string)
	s.served.Add(1)
	return []any{table[key]}, nil
}

func (s *store) HandleTyped(op string, req, resp any) error {
	key, ok := req.(*string)
	if op != "get" || !ok {
		return aas.ErrUntypedOp
	}
	s.served.Add(1)
	*resp.(*string) = table[*key]
	return nil
}

func (s *store) Snapshot() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, uint64(s.served.Load())), nil
}

func (s *store) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("store: state of %d bytes", len(b))
	}
	s.served.Store(int64(binary.LittleEndian.Uint64(b)))
	return nil
}

func newRegistry(string) *registry.Registry {
	reg := aas.NewRegistry()
	reg.MustRegister("Front", "1.0", nil, func() any { return &front{} })
	reg.MustRegister("Store", "1.0", nil, func() any { return &store{} })
	return reg.Registry
}

// The adaptation set that carries a local_reconfig call: two input filters
// on Link, one meta-object and two aspects on Store. None changes a
// message, so replies stay verifiable; each does the work of its kind.
var adaptCount atomic.Uint64

func linkFilters() []aas.Filter {
	return []aas.Filter{
		aas.TransformFilter{FilterName: "stamp", Match: aas.FilterMatcher{Op: "get"},
			Fn: func(*bus.Message) { adaptCount.Add(1) }},
		aas.ErrorFilter{FilterName: "deny-admin", Match: aas.FilterMatcher{Op: "admin*"}, Reason: "admin ops are closed"},
	}
}

func storeMetaObject(name string) *aas.MetaObject {
	return &aas.MetaObject{Name: name, Props: aas.MetaModificatory,
		Invoke: func(m *bus.Message, next func(*bus.Message) error) error {
			adaptCount.Add(1)
			return next(m)
		}}
}

func storeAspects() []aas.Aspect {
	cut := aas.Pointcut{Component: "Store", Op: "get"}
	return []aas.Aspect{
		{Name: "audit", Advice: []aas.Advice{{Pointcut: cut,
			Before: func(*aas.Invocation) error { adaptCount.Add(1); return nil }}}},
		{Name: "guard", Advice: []aas.Advice{{Pointcut: cut,
			Around: func(inv *aas.Invocation, next aspects.Handler) (any, error) {
				return next(inv)
			}}}},
	}
}

// rig is one built system under test. front is the system the caller and
// the Link connector live on; back is the one that hosts Store (the same
// system when local).
type rig struct {
	front, back *aas.System
	systems     []*aas.System
	nodes       []*aas.ClusterNode
	entry       registry.Entry // Store's implementation, swapped for itself
	close       func()
}

func buildLocal(adapted bool) (*rig, error) {
	reg := newRegistry("")
	sys, err := aas.Load(ledgerADL, aas.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	if err := sys.Start(context.Background()); err != nil {
		return nil, err
	}
	r := &rig{front: sys, back: sys, systems: []*aas.System{sys}, close: sys.Stop}
	if r.entry, err = reg.Lookup("Store"); err != nil {
		r.close()
		return nil, err
	}
	if adapted {
		if err := r.adapt(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) adapt() error {
	for _, f := range linkFilters() {
		if err := r.front.AttachFilter("Front", "get", aas.FilterInput, f); err != nil {
			return err
		}
	}
	if err := r.back.InsertMetaObject("Store", storeMetaObject("meter")); err != nil {
		return err
	}
	for _, a := range storeAspects() {
		if err := r.back.AttachAspect(a); err != nil {
			return err
		}
	}
	return nil
}

func buildCluster() (*rig, error) {
	h, err := aas.StartCluster(context.Background(), aas.ClusterSpec{
		ADL:       ledgerADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  newRegistry,
	})
	if err != nil {
		return nil, err
	}
	r := &rig{front: h.System("n1"), back: h.System("n2"),
		systems: []*aas.System{h.System("n1"), h.System("n2")},
		nodes:   []*aas.ClusterNode{h.Node("n1"), h.Node("n2")},
		close:   h.Close}
	if r.entry, err = newRegistry("").Lookup("Store"); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// servedByStore reads Store's counter through the platform's own snapshot
// path, so the check also proves the state survived every swap.
func (r *rig) servedByStore() (int64, error) {
	b, err := r.back.SnapshotComponent("Store")
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("store snapshot of %d bytes", len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// quiescent checks the invariants that must hold once traffic and churn
// have stopped: bus conservation and no leaked waiter on every system.
// In-flight replies settle within microseconds; the poll bounds the wait.
func (r *rig) quiescent() error {
	var err error
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		err = nil
		for _, s := range r.systems {
			b := s.Telemetry().Bus
			if b.Sent != b.Delivered+b.Dropped+b.Held {
				err = errors.Join(err, fmt.Errorf("%s: bus sent %d != delivered %d + dropped %d + held %d",
					s.NodeName(), b.Sent, b.Delivered, b.Dropped, b.Held))
			}
			if n := s.PendingCalls(); n != 0 {
				err = errors.Join(err, fmt.Errorf("%s: %d pending calls", s.NodeName(), n))
			}
		}
		if err == nil || time.Now().After(deadline) {
			return err
		}
	}
}

func (r *rig) spansLost() uint64 {
	var lost uint64
	for _, s := range r.systems {
		lost += s.Telemetry().Spans.Lost
	}
	return lost
}
