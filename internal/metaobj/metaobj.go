// Package metaobj implements the interaction-patterns adaptation approach
// (§2, [Pawl99], [Blay02]): meta-objects chained into composed
// meta-controllers. Composition "needs detailed knowledge of all the
// meta-objects that have been already chained, and of the important
// properties of the wrappers (conditional, mandatory, exclusive,
// modificatory)", and requires "specification of the partially ordered
// relations among meta-objects (priority, order of the declaration)".
//
// Compose validates exclusivity conflicts and orders the chain by the
// declared partial order (explicit before/after constraints broken by
// priority, then declaration order); cycles in the partial order are
// rejected. At execution time, conditional wrappers are skipped when their
// condition fails and non-modificatory wrappers operate on a copy of the
// message so their changes cannot leak downstream.
//
// Following the compile-time/run-time split of the adaptation stack
// (DESIGN.md §5), composition is the compile step: Insert and Remove
// revalidate and reorder under the chain's writer mutex and publish the new
// execution order as one immutable, generation-stamped snapshot behind an
// atomic pointer. Execute and Invoke load one snapshot and walk it — no
// lock, and the continuations handed to the wrappers are built once per
// pooled run, not per execution — so a concurrent recomposition never tears
// the chain mid-interaction, and a failed recomposition leaves the
// published chain untouched.
package metaobj

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bus"
)

// Props is the wrapper property set (bit flags).
type Props uint8

// The four wrapper properties from the paper.
const (
	Conditional Props = 1 << iota
	Mandatory
	Exclusive
	Modificatory
)

// Has reports whether all bits in p2 are set.
func (p Props) Has(p2 Props) bool { return p&p2 == p2 }

// MetaObject is one wrapper in a meta-controller chain.
type MetaObject struct {
	Name     string
	Props    Props
	Priority int // higher runs earlier, subject to Before/After constraints
	// Before and After declare the partial order: this object must run
	// before (resp. after) the named objects when they are present.
	Before []string
	After  []string
	// Cond gates execution for Conditional wrappers.
	Cond func(*bus.Message) bool
	// Invoke wraps the rest of the chain. Implementations call next to
	// continue; not calling it aborts the interaction. next (and, for a
	// chain run with Chain.Invoke, m) belongs to this execution: use neither
	// once Invoke has returned.
	Invoke func(m *bus.Message, next func(*bus.Message) error) error
}

// Composition errors.
var (
	ErrExclusiveConflict = errors.New("metaobj: multiple exclusive wrappers")
	ErrOrderCycle        = errors.New("metaobj: cyclic ordering constraints")
	ErrMandatory         = errors.New("metaobj: cannot remove mandatory wrapper")
	ErrUnknown           = errors.New("metaobj: unknown wrapper")
	ErrDuplicate         = errors.New("metaobj: duplicate wrapper")
)

// snapshot is one published execution order; it is immutable apart from
// its pool of runs.
type snapshot struct {
	gen     uint64
	ordered []*MetaObject
	runs    sync.Pool // *run, each built for this order
}

// run is the private state of one execution of a snapshot: the base it ends
// at, the base's result, and the continuations handed to the wrappers. The
// continuations are closures over the run, built once when the run is, so
// an execution leases a run instead of allocating a closure per wrapper and
// a cell for the result. next[i] enters wrapper i; next[len(ordered)] calls
// the base.
type run struct {
	next []func(*bus.Message) error
	// Exactly one base is set while leased: plain for Execute, invoke (whose
	// result lands in res) for Invoke.
	plain  func(*bus.Message) error
	invoke func(*bus.Message) (any, error)
	res    any
	m      bus.Message // Invoke's copy of the message
	// open counts continuations a wrapper has entered and not yet left. A
	// wrapper that returns while one is still running — it raced next
	// against a timeout, say — leaves it above zero, and the run is then
	// left to the collector instead of being leased to another execution.
	open atomic.Int32
}

func newRun(ordered []*MetaObject) *run {
	n := len(ordered)
	r := &run{next: make([]func(*bus.Message) error, n+1)}
	r.next[n] = func(m *bus.Message) error {
		r.open.Add(1)
		var err error
		if r.plain != nil {
			err = r.plain(m)
		} else {
			r.res, err = r.invoke(m)
		}
		r.open.Add(-1)
		return err
	}
	for i := n - 1; i >= 1; i-- {
		o, next := ordered[i], r.next[i+1]
		r.next[i] = func(m *bus.Message) error {
			r.open.Add(1)
			err := step(o, m, next)
			r.open.Add(-1)
			return err
		}
	}
	if n > 0 {
		// Not counted: Execute enters it itself and returns after it does.
		o, next := ordered[0], r.next[1]
		r.next[0] = func(m *bus.Message) error { return step(o, m, next) }
	}
	return r
}

// step runs one wrapper: a conditional wrapper whose condition fails is
// skipped, and a wrapper without the Modificatory property receives a
// private copy while downstream continues with the original.
func step(o *MetaObject, m *bus.Message, next func(*bus.Message) error) error {
	if o.Props.Has(Conditional) && !o.Cond(m) {
		return next(m)
	}
	if !o.Props.Has(Modificatory) {
		cp := *m
		return o.Invoke(&cp, func(*bus.Message) error { return next(m) })
	}
	return o.Invoke(m, next)
}

// lease takes a run of this snapshot out of the pool.
func (s *snapshot) lease() *run {
	if r, ok := s.runs.Get().(*run); ok {
		return r
	}
	return newRun(s.ordered)
}

// release returns a finished run to the pool, unless a continuation of it
// is still running somewhere.
func (s *snapshot) release(r *run) {
	r.plain, r.invoke, r.res = nil, nil, nil
	r.m = bus.Message{}
	if r.open.Load() == 0 {
		s.runs.Put(r)
	}
}

var emptySnapshot = &snapshot{}

// Chain is a validated, ordered meta-controller. It is safe for concurrent
// execution: structural changes recompose the order under the writer mutex
// and atomically publish a new generation-stamped snapshot; Execute reads
// the snapshot lock-free. The zero value is an empty, usable chain.
type Chain struct {
	mu      sync.Mutex    // serializes writers; never held during Execute
	objects []*MetaObject // in declaration order
	snap    atomic.Pointer[snapshot]
}

func (c *Chain) loadSnap() *snapshot {
	if s := c.snap.Load(); s != nil {
		return s
	}
	return emptySnapshot
}

// Compose validates the wrapper set and builds the chain.
func Compose(objects ...*MetaObject) (*Chain, error) {
	c := &Chain{}
	for _, o := range objects {
		c.objects = append(c.objects, o)
	}
	if err := c.recompose(); err != nil {
		return nil, err
	}
	return c, nil
}

// recompose revalidates, reorders and — only on success — publishes the new
// execution order; callers hold no lock (construction) or c.mu (mutation).
// On failure the previously published snapshot stays in effect.
func (c *Chain) recompose() error {
	seen := map[string]*MetaObject{}
	exclusive := 0
	for _, o := range c.objects {
		if o.Name == "" {
			return errors.New("metaobj: wrapper needs a name")
		}
		if o.Invoke == nil {
			return fmt.Errorf("metaobj: wrapper %s needs an Invoke", o.Name)
		}
		if _, dup := seen[o.Name]; dup {
			return fmt.Errorf("%w: %s", ErrDuplicate, o.Name)
		}
		seen[o.Name] = o
		if o.Props.Has(Exclusive) {
			exclusive++
		}
		if o.Props.Has(Conditional) && o.Cond == nil {
			return fmt.Errorf("metaobj: conditional wrapper %s needs a Cond", o.Name)
		}
	}
	if exclusive > 1 {
		return fmt.Errorf("%w: %d declared", ErrExclusiveConflict, exclusive)
	}

	ordered, err := topoOrder(c.objects, seen)
	if err != nil {
		return err
	}
	c.snap.Store(&snapshot{gen: c.loadSnap().gen + 1, ordered: ordered})
	return nil
}

// topoOrder sorts by the declared partial order; among unconstrained peers
// higher priority first, then declaration order (stable).
func topoOrder(objs []*MetaObject, byName map[string]*MetaObject) ([]*MetaObject, error) {
	// Build edges: a -> b means a runs before b.
	succ := map[string][]string{}
	indeg := map[string]int{}
	for _, o := range objs {
		if _, ok := indeg[o.Name]; !ok {
			indeg[o.Name] = 0
		}
	}
	addEdge := func(a, b string) {
		succ[a] = append(succ[a], b)
		indeg[b]++
	}
	for _, o := range objs {
		for _, b := range o.Before {
			if _, ok := byName[b]; ok {
				addEdge(o.Name, b)
			}
		}
		for _, a := range o.After {
			if _, ok := byName[a]; ok {
				addEdge(a, o.Name)
			}
		}
	}

	// Kahn's algorithm with a deterministic ready queue: priority desc,
	// then declaration order.
	declIndex := map[string]int{}
	for i, o := range objs {
		declIndex[o.Name] = i
	}
	less := func(a, b string) bool {
		oa, ob := byName[a], byName[b]
		if oa.Priority != ob.Priority {
			return oa.Priority > ob.Priority
		}
		return declIndex[a] < declIndex[b]
	}
	var ready []string
	for n, d := range indeg {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })

	var out []*MetaObject
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, byName[n])
		changed := false
		for _, m := range succ[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
				changed = true
			}
		}
		if changed {
			sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
		}
	}
	if len(out) != len(objs) {
		return nil, ErrOrderCycle
	}
	return out, nil
}

// Order returns the execution order of wrapper names.
func (c *Chain) Order() []string {
	snap := c.loadSnap()
	names := make([]string, len(snap.ordered))
	for i, o := range snap.ordered {
		names[i] = o.Name
	}
	return names
}

// Len reports the number of wrappers in the published execution order; a
// zero-length chain executes its base directly.
func (c *Chain) Len() int {
	return len(c.loadSnap().ordered)
}

// Generation returns the published composition generation: 0 for the empty
// zero-value chain, then strictly increasing across successful Compose,
// Insert and Remove calls. Two Executes observing the same generation ran
// the identical composed chain.
func (c *Chain) Generation() uint64 {
	return c.loadSnap().gen
}

// Insert adds a wrapper and recomposes; on validation failure the chain is
// unchanged and the published snapshot untouched.
func (c *Chain) Insert(o *MetaObject) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.objects = append(c.objects, o)
	if err := c.recompose(); err != nil {
		c.objects = c.objects[:len(c.objects)-1]
		return err
	}
	return nil
}

// Remove detaches a wrapper; mandatory wrappers are refused.
func (c *Chain) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, o := range c.objects {
		if o.Name != name {
			continue
		}
		if o.Props.Has(Mandatory) {
			return fmt.Errorf("%w: %s", ErrMandatory, name)
		}
		c.objects = append(c.objects[:i], c.objects[i+1:]...)
		return c.recompose()
	}
	return fmt.Errorf("%w: %s", ErrUnknown, name)
}

// Execute runs m through the chain, ending at base. Conditional wrappers
// whose condition fails are skipped; wrappers without the Modificatory
// property receive a copy of the message, so only modificatory wrappers can
// affect what downstream sees. Execute takes no lock and copies nothing up
// front: it walks one immutable snapshot, so every interaction sees exactly
// one composition generation even while wrappers are inserted or removed.
func (c *Chain) Execute(m *bus.Message, base func(*bus.Message) error) error {
	snap := c.loadSnap()
	if len(snap.ordered) == 0 {
		return base(m)
	}
	r := snap.lease()
	r.plain = base
	err := r.next[0](m)
	snap.release(r)
	return err
}

// Invoke is Execute for a base that produces a result, which it returns
// beside the chain's error. The chain works on its own copy of m. With a
// base that is not built per call — a method value kept in a field — an
// invocation through a chain of modificatory or conditional wrappers
// allocates nothing.
func (c *Chain) Invoke(m bus.Message, base func(*bus.Message) (any, error)) (any, error) {
	snap := c.loadSnap()
	r := snap.lease()
	r.invoke = base
	r.m = m
	err := r.next[0](&r.m)
	res := r.res
	snap.release(r)
	return res, err
}
