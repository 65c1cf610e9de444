// Package container implements the component-container execution model the
// paper describes for EJB/CCM (§3): "The container intercepts the incoming
// requests and plays a similar role as the Portable Object Adaptor (POA)."
// Deployment descriptors select the non-functional services the container
// interposes (authorization, call audit, transactional state rollback), and
// the lifecycle provides the quiescence states ("reconfiguration points")
// the reconfiguration engine relies on, plus the state snapshot/restore
// hooks of strong dynamic reconfiguration (§1).
package container

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Component is the application-level behaviour hosted by a container.
type Component interface {
	// Handle services one operation.
	Handle(op string, args []any) ([]any, error)
}

// TypedComponent is optionally implemented by components that service typed
// calls in place: HandleTyped reads the request and writes the response
// through the pointers a typed client handle supplied, so the round trip
// never boxes arguments or results. Return ErrUntypedOp for operations the
// component only implements through Handle — the container falls back.
type TypedComponent interface {
	Component
	HandleTyped(op string, req, resp any) error
}

// TypedRequest is the container-level view of a typed call: the pointers the
// component reads and writes, plus the untyped materialization used when the
// component (or a given op) only speaks Handle. It is implemented by the
// typed envelope in core and mirrored by connector.TypedCall.
type TypedRequest interface {
	// Req is nil when the call has no typed form (it was made in the []any
	// convention): the component is then not offered HandleTyped.
	Req() any
	Resp() any
	Args() []any
	SetResults(results []any) error
}

// ErrUntypedOp is returned by HandleTyped for operations the component
// serves only through the legacy Handle path.
var ErrUntypedOp = errors.New("container: op not served typed")

// StateCapturer is implemented by stateful components that support strong
// dynamic reconfiguration: "New components must be initialized with
// adequate internal state variables" (§1).
type StateCapturer interface {
	// Snapshot encodes the component's internal state.
	Snapshot() ([]byte, error)
	// Restore initializes the component from an encoded state.
	Restore([]byte) error
}

// Descriptor is the deployment descriptor: it declares which container
// services wrap the component ("deployment descriptors give information
// about which services to use", §3).
type Descriptor struct {
	Name string
	// RequireAuth rejects calls without a principal.
	RequireAuth bool
	// Audit records every call in the container's log.
	Audit bool
	// Transactional snapshots state before each call and restores it when
	// the call fails (requires the component to implement StateCapturer).
	Transactional bool
}

// LifecycleState is the container lifecycle.
type LifecycleState int

// Lifecycle states.
const (
	Inactive LifecycleState = iota + 1
	Active
	Quiescing
	Passive
)

// String implements fmt.Stringer.
func (s LifecycleState) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Active:
		return "active"
	case Quiescing:
		return "quiescing"
	case Passive:
		return "passive"
	default:
		return "unknown"
	}
}

// CallRecord is one audited invocation.
type CallRecord struct {
	Op        string
	Principal string
	Err       string
}

// Container errors.
var (
	ErrNotActive     = errors.New("container: not active")
	ErrUnauthorized  = errors.New("container: unauthorized")
	ErrNotCapturable = errors.New("container: component does not support state capture")
)

// Container hosts one component instance.
type Container struct {
	desc Descriptor

	mu       sync.Mutex
	comp     Component
	state    LifecycleState
	inflight int
	idle     chan struct{} // closed when inflight drops to 0 while quiescing
	calls    uint64
	failures uint64
	audit    []CallRecord
}

// New creates a container in the Inactive state.
func New(desc Descriptor, comp Component) (*Container, error) {
	if comp == nil {
		return nil, errors.New("container: nil component")
	}
	if desc.Transactional {
		if _, ok := comp.(StateCapturer); !ok {
			return nil, fmt.Errorf("%w: descriptor %s demands transactions", ErrNotCapturable, desc.Name)
		}
	}
	return &Container{desc: desc, comp: comp, state: Inactive}, nil
}

// Name returns the descriptor name.
func (c *Container) Name() string { return c.desc.Name }

// State returns the lifecycle state.
func (c *Container) State() LifecycleState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Activate moves to Active from any non-active state.
func (c *Container) Activate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = Active
	c.idle = nil
}

// Quiesce stops admitting new calls and waits (bounded by ctx) for in-
// flight calls to finish — the reconfiguration point between requests.
// On success the container is Passive.
func (c *Container) Quiesce(ctx context.Context) error {
	c.mu.Lock()
	if c.state != Active {
		st := c.state
		c.mu.Unlock()
		if st == Passive {
			return nil
		}
		return fmt.Errorf("container %s: cannot quiesce from %s", c.desc.Name, st)
	}
	c.state = Quiescing
	if c.inflight == 0 {
		c.state = Passive
		c.mu.Unlock()
		return nil
	}
	idle := make(chan struct{})
	c.idle = idle
	c.mu.Unlock()

	select {
	case <-idle:
		c.mu.Lock()
		c.state = Passive
		c.mu.Unlock()
		return nil
	case <-ctx.Done():
		// Roll back to Active: the reconfiguration failed to reach a
		// quiescent point in time.
		c.mu.Lock()
		c.state = Active
		c.idle = nil
		c.mu.Unlock()
		return fmt.Errorf("container %s: quiesce: %w", c.desc.Name, ctx.Err())
	}
}

// Invoke services one call through the container's interposition chain.
func (c *Container) Invoke(principal, op string, args []any) ([]any, error) {
	res, _, err := c.invoke(principal, op, nil, args)
	return res, err
}

// InvokeTyped services one typed call through the same interposition chain
// as Invoke. When the hosted component implements TypedComponent and serves
// op typed, the response is written in place through call.Resp and typed is
// true with nil results; otherwise the container falls back to Handle with
// the materialized argument list and returns its boxed results (typed
// false).
func (c *Container) InvokeTyped(principal, op string, call TypedRequest) (res []any, typed bool, err error) {
	return c.invoke(principal, op, call, nil)
}

// invoke is the one interposition chain: the admission, transaction, audit
// and quiescence accounting happen exactly once whichever way the component
// is entered. call is nil for an untyped invocation of args.
func (c *Container) invoke(principal, op string, call TypedRequest, args []any) (res []any, typed bool, err error) {
	c.mu.Lock()
	if c.state != Active {
		st := c.state
		c.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %s is %s", ErrNotActive, c.desc.Name, st)
	}
	if c.desc.RequireAuth && principal == "" {
		c.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %s.%s", ErrUnauthorized, c.desc.Name, op)
	}
	c.inflight++
	c.calls++
	comp := c.comp
	c.mu.Unlock()

	var pre []byte
	if c.desc.Transactional {
		snap, serr := comp.(StateCapturer).Snapshot()
		if serr != nil {
			c.finish(op, principal, serr)
			return nil, false, fmt.Errorf("container %s: pre-call snapshot: %w", c.desc.Name, serr)
		}
		pre = snap
	}

	if call != nil {
		if tc, ok := comp.(TypedComponent); ok {
			if req := call.Req(); req != nil {
				err = tc.HandleTyped(op, req, call.Resp())
				typed = !errors.Is(err, ErrUntypedOp)
			}
		}
		if !typed {
			args = call.Args()
		}
	}
	if !typed {
		res, err = comp.Handle(op, args)
	}
	if err != nil && c.desc.Transactional {
		if rerr := comp.(StateCapturer).Restore(pre); rerr != nil {
			err = errors.Join(err, fmt.Errorf("rollback failed: %w", rerr))
		}
	}
	c.finish(op, principal, err)
	return res, typed, err
}

func (c *Container) finish(op, principal string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	if err != nil {
		c.failures++
	}
	if c.desc.Audit {
		rec := CallRecord{Op: op, Principal: principal}
		if err != nil {
			rec.Err = err.Error()
		}
		c.audit = append(c.audit, rec)
	}
	if c.inflight == 0 && c.state == Quiescing && c.idle != nil {
		close(c.idle)
		c.idle = nil
	}
}

// Snapshot captures the hosted component's state; the container should be
// Passive (quiesced) first, but this is not enforced to allow hot copies.
func (c *Container) Snapshot() ([]byte, error) {
	c.mu.Lock()
	comp := c.comp
	c.mu.Unlock()
	sc, ok := comp.(StateCapturer)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotCapturable, c.desc.Name)
	}
	return sc.Snapshot()
}

// Restore initializes the hosted component from an encoded state — the
// receiving half of a cross-node migration. Like Snapshot, the container
// should be Passive or freshly built, but this is not enforced.
func (c *Container) Restore(state []byte) error {
	c.mu.Lock()
	comp := c.comp
	c.mu.Unlock()
	sc, ok := comp.(StateCapturer)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotCapturable, c.desc.Name)
	}
	return sc.Restore(state)
}

// ReplaceComponent swaps the hosted implementation, transferring state when
// both sides support capture and transfer is requested. The container must
// be Passive.
func (c *Container) ReplaceComponent(next Component, transferState bool) error {
	if next == nil {
		return errors.New("container: nil replacement")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != Passive {
		return fmt.Errorf("container %s: replace requires Passive, is %s", c.desc.Name, c.state)
	}
	if transferState {
		from, okF := c.comp.(StateCapturer)
		to, okT := next.(StateCapturer)
		if !okF || !okT {
			return fmt.Errorf("%w: state transfer between %T and %T", ErrNotCapturable, c.comp, next)
		}
		snap, err := from.Snapshot()
		if err != nil {
			return fmt.Errorf("container %s: snapshot: %w", c.desc.Name, err)
		}
		if err := to.Restore(snap); err != nil {
			return fmt.Errorf("container %s: restore: %w", c.desc.Name, err)
		}
	}
	if c.desc.Transactional {
		if _, ok := next.(StateCapturer); !ok {
			return fmt.Errorf("%w: transactional descriptor", ErrNotCapturable)
		}
	}
	c.comp = next
	return nil
}

// Stats returns (calls, failures).
func (c *Container) Stats() (calls, failures uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.failures
}

// AuditLog returns a copy of the audit records.
func (c *Container) AuditLog() []CallRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CallRecord(nil), c.audit...)
}
