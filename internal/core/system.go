package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/deploy"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Options configures a System. Zero values select working defaults: real
// clock, fresh bus, no topology (zero network latency), 10s call timeout.
type Options struct {
	Clock       clock.Clock
	Bus         *bus.Bus
	Topology    *netsim.Topology
	Registry    *registry.Registry
	Mailbox     int
	CallTimeout time.Duration
	// Placement maps components to topology nodes; computed with
	// deploy.LocalSearch when nil and a topology is present.
	Placement deploy.Placement
	// QoSWindow is the monitor window (default 10s).
	QoSWindow time.Duration
	// Remote names components declared in the configuration but hosted on
	// another cluster node: they are not instantiated locally, and calls
	// toward their (unchanged) bus address are served by a gateway endpoint
	// the distribution plane attaches once the hosting peer is linked.
	Remote map[string]bool
	// TraceSampling sets the telemetry recorder's head-sampling rate
	// (DESIGN.md §11): 0 selects the default of 1 (every root call traced),
	// n > 1 traces one root in n, and a negative value disables tracing
	// entirely. The sampling decision is made once, where a trace starts —
	// the compiled client-handle edge — and every downstream span inherits
	// it, so thinning the rate thins whole traces, never partial trees.
	TraceSampling int
	// TraceBuffer is the span capacity of each of the recorder's 8 ring
	// shards (default 512, i.e. 4096 recent spans retained per system).
	TraceBuffer int
	// NoOverloadControl disables overload governance (DESIGN.md §9): no
	// deadline-aware admission control at the platform edge, no EDF mailbox
	// lane, no expired-work shedding. Deadline-carrying calls are accepted
	// unconditionally and served FIFO — the pre-governance behaviour, kept
	// for comparison runs (E19). Only honoured when the system creates its
	// own bus; a caller-supplied Bus keeps whatever options it was built
	// with.
	NoOverloadControl bool
}

// System is the running auto-adaptive system: the base-level application
// (components, containers, connectors over the bus) plus the RAML — the
// Reconfiguration and Adaptation Meta-Level of the paper's §3 vision —
// "in charge of observing the system, checking the compliancy of each
// application with its behavioral constraints and properties, and
// undertaking adaptation or reconfiguration actions".
type System struct {
	name        string
	clk         clock.Clock
	bus         *bus.Bus
	topo        *netsim.Topology
	reg         *registry.Registry
	mailbox     int
	callTimeout time.Duration

	events  *EventHub
	monitor *qos.Monitor
	weaver  *aspects.Weaver
	// rec is the span recorder of the telemetry plane (DESIGN.md §11);
	// always non-nil, possibly with sampling disabled.
	rec *telemetry.Recorder
	// node is the cluster node id this system runs as, stamped into span
	// records as the local endpoint name. Empty for single-node systems;
	// the distribution plane sets it when it adopts the system.
	node atomic.Pointer[string]

	// noOverload disables edge admission control (Options.NoOverloadControl);
	// immutable after NewSystem.
	noOverload bool

	// addrs is the bus-address routing table read by delayFor on the send
	// path; it is maintained by assembly/reconfiguration and never guarded
	// by s.mu, eliminating the former bus→core lock-ordering hazard.
	addrs *addrIndex

	mu        sync.Mutex
	cfg       *adl.Config
	comps     map[string]*runtimeComponent
	conns     map[string]*connector.Connector
	placement deploy.Placement
	guards    []Guard
	running   bool
	ctx       context.Context
	cancel    context.CancelFunc

	// Data-plane views of the control-plane state above, mirroring the
	// bus's routing snapshot: Call resolves components and liveness with
	// atomic loads only; assembly and reconfiguration republish the
	// snapshot while holding s.mu.
	live     atomic.Bool
	compView atomic.Pointer[map[string]*runtimeComponent]

	// remoteView maps components hosted on peer nodes to the local bus
	// address their traffic is routed to (the gateway address — identical to
	// the component's canonical address, which is what keeps bus.Address
	// location-transparent). Same discipline as compView: atomic snapshot on
	// the call path, republished under s.mu.
	remoteView atomic.Pointer[map[string]bus.Address]

	// migrator, when set, is consulted by Migrate before the topology path:
	// the distribution plane registers a hook that recognizes live peer
	// nodes and runs the cross-node protocol instead.
	migrator atomic.Pointer[Migrator]

	triggers *triggerHub

	// reconfigMu serializes whole reconfiguration transactions: two
	// concurrent Reconfigure calls would otherwise derive plans from the
	// same old configuration and overwrite each other's commit, and with
	// overlapping regions one transaction's resume would reopen channels
	// the other still holds quiesced. Data-plane traffic never touches it.
	reconfigMu sync.Mutex

	// clientAddrs are the client edge's bus addresses, nil until Start.
	clientAddrs   atomic.Pointer[[]bus.Address]
	clientCorr    atomic.Uint64
	clientWaiters replyWaiters
	// clientStreams is the correlation-sharded table of open server
	// streams; settleClient routes chunk and end payloads through it.
	clientStreams streamWaiters
	// streamShed counts chunks that arrived for a stream the consumer had
	// already closed (or whose ring a misbehaving producer overran) — the
	// shed side of the conservation ledger sent == received + shed.
	streamShed atomic.Uint64

	// clients is the compiled client-binding table (see client.go): one
	// canonical *Client per component name, created on first System.Client
	// and kept resolved by the same copy-on-write republishing that
	// maintains compView/remoteView. Written under s.mu, read atomically.
	clients atomic.Pointer[map[string]*Client]
}

// clientEndpoints is the size of the sharded platform edge: external calls
// spread across this many bus endpoints (each with its own route lock) so
// concurrent callers do not funnel their replies through a single route.
// Power of two.
const clientEndpoints = 8

// Assembly errors.
var (
	ErrNotRunning     = errors.New("core: system not running")
	ErrAlreadyRunning = errors.New("core: system already running")
	ErrUnknownComp    = errors.New("core: unknown component")
	ErrUnknownConn    = errors.New("core: unknown connector")
	ErrBadComponent   = errors.New("core: factory did not produce a container.Component")
	// ErrOverloaded is returned by Client.Call/Async/Oneway when the
	// component's estimated queueing delay already exceeds the caller's
	// remaining deadline budget: serving the call would only produce a
	// deadline error after burning queue capacity, so it is shed at the edge
	// instead (DESIGN.md §9). The error is a bare sentinel — the reject path
	// is allocation-free by contract — and retryable: back off and retry, the
	// estimator admits again as soon as the backlog drains. Calls without a
	// deadline are never shed. A call that would queue with a budget shorter
	// than one expected service time is refused as a deadline instead.
	ErrOverloaded = errors.New("core: overloaded: estimated wait exceeds deadline budget")
)

// NewSystem validates cfg and assembles (but does not start) the system.
// Every component must have a registered implementation under its own name
// in opts.Registry.
func NewSystem(cfg *adl.Config, opts Options) (*System, error) {
	if _, err := adl.Check(cfg); err != nil {
		return nil, err
	}
	if opts.Registry == nil {
		return nil, errors.New("core: options need a Registry")
	}
	s := &System{
		name:        cfg.Name,
		clk:         opts.Clock,
		bus:         opts.Bus,
		topo:        opts.Topology,
		reg:         opts.Registry,
		mailbox:     opts.Mailbox,
		callTimeout: opts.CallTimeout,
		cfg:         cfg,
		comps:       map[string]*runtimeComponent{},
		conns:       map[string]*connector.Connector{},
		addrs:       newAddrIndex(),
		events:      NewEventHub(0),
		weaver:      aspects.NewWeaver(),
	}
	if s.clk == nil {
		s.clk = clock.Real{}
	}
	if s.callTimeout <= 0 {
		s.callTimeout = 10 * time.Second
	}
	window := opts.QoSWindow
	if window <= 0 {
		window = 10 * time.Second
	}
	s.monitor = qos.NewMonitor(s.clk, window, 1<<14)
	s.rec = telemetry.NewRecorder(opts.TraceBuffer)
	switch {
	case opts.TraceSampling < 0:
		s.rec.SetSampling(0)
	case opts.TraceSampling > 0:
		s.rec.SetSampling(opts.TraceSampling)
	}
	empty := ""
	s.node.Store(&empty)
	s.noOverload = opts.NoOverloadControl
	if s.bus == nil {
		busOpts := []bus.Option{bus.WithClock(s.clk), bus.WithDelay(s.delayFor)}
		if s.noOverload {
			busOpts = append(busOpts, bus.WithFIFOOnly())
		}
		s.bus = bus.New(busOpts...)
	}
	s.triggers = newTriggerHub(s)

	// Placement: provided, computed, or none.
	if opts.Placement != nil {
		s.placement = opts.Placement.Clone()
	} else if s.topo != nil {
		reqs := deploy.FromConfig(cfg)
		pl, err := (deploy.LocalSearch{Seed: 1}).Plan(s.topo, reqs, deploy.Objective{Edges: edgesFromBindings(cfg)})
		if err != nil {
			return nil, fmt.Errorf("core: initial placement: %w", err)
		}
		s.placement = pl
	} else {
		s.placement = deploy.Placement{}
	}

	emptyRemote := map[string]bus.Address{}
	s.remoteView.Store(&emptyRemote)
	emptyClients := map[string]*Client{}
	s.clients.Store(&emptyClients)

	// Instantiate components. Components placed on a peer node stay
	// uninstantiated: their address is recorded as remote and the cluster
	// layer attaches a forwarding gateway there once the peer is linked.
	for _, decl := range cfg.Components {
		if opts.Remote[decl.Name] {
			s.setRemoteLocked(decl.Name)
			continue
		}
		if err := s.buildComponentLocked(decl); err != nil {
			return nil, err
		}
	}
	// Instantiate one connector per binding and route the caller side.
	// Bindings whose caller lives on a peer node are mediated by that node's
	// own connector instance.
	for _, b := range cfg.Bindings {
		if opts.Remote[b.FromComponent] {
			continue
		}
		if err := s.buildBindingLocked(b); err != nil {
			return nil, err
		}
	}
	s.publishCompsLocked()
	return s, nil
}

// publishCompsLocked republishes the component-table snapshot read by the
// call path; callers hold s.mu (or own the system exclusively, as during
// assembly).
func (s *System) publishCompsLocked() {
	view := maps.Clone(s.comps)
	s.compView.Store(&view)
	s.refreshClientsLocked()
}

// edgesFromBindings derives communication edges for the placement
// objective from the configuration's bindings.
func edgesFromBindings(cfg *adl.Config) []deploy.Edge {
	var out []deploy.Edge
	for _, b := range cfg.Bindings {
		out = append(out, deploy.Edge{A: b.FromComponent, B: b.ToComponent, Weight: 1})
	}
	return out
}

// buildComponentLocked instantiates a component from the registry entry of
// the same name (latest version).
func (s *System) buildComponentLocked(decl adl.ComponentDecl) error {
	entry, err := s.reg.Lookup(decl.Name)
	if err != nil {
		return fmt.Errorf("core: component %s: %w", decl.Name, err)
	}
	return s.buildComponentFromEntryLocked(decl, entry)
}

func (s *System) buildComponentFromEntryLocked(decl adl.ComponentDecl, entry registry.Entry) error {
	raw := entry.New()
	comp, ok := raw.(container.Component)
	if !ok {
		return fmt.Errorf("%w: %s produced %T", ErrBadComponent, entry.Name, raw)
	}
	desc := container.Descriptor{
		Name:          decl.Name,
		RequireAuth:   decl.Properties["auth"] == "required",
		Audit:         decl.Properties["audit"] == "true",
		Transactional: decl.Properties["transactional"] == "true",
	}
	cont, err := container.New(desc, comp)
	if err != nil {
		return err
	}
	node := s.placement[decl.Name]
	cpu := componentCPU(decl)
	if s.topo != nil && node != "" {
		if err := s.topo.Allocate(node, cpu); err != nil {
			return fmt.Errorf("core: placing %s: %w", decl.Name, err)
		}
	} else {
		cpu = 0 // nothing allocated, nothing to release later
	}
	rc, err := newRuntimeComponent(s, decl, cont, node)
	if err != nil {
		return err
	}
	rc.entry = entry
	rc.allocCPU = cpu
	if aware, ok := comp.(CallerAware); ok {
		aware.SetCaller(rc)
	}
	s.comps[decl.Name] = rc
	s.addrs.setNode(rc.ep.Addr(), node)
	return nil
}

// connectorInstanceName derives the per-binding connector instance name.
func connectorInstanceName(b adl.Binding) string {
	return b.Via + ":" + b.FromComponent + "." + b.FromService
}

func (s *System) buildBindingLocked(b adl.Binding) error {
	decl, ok := s.cfg.Connector(b.Via)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConn, b.Via)
	}
	inst := decl
	inst.Name = connectorInstanceName(b)
	target := ComponentAddress(b.ToComponent)
	conn, err := (connector.Factory{Bus: s.bus}).Build(inst, []bus.Address{target})
	if err != nil {
		return err
	}
	s.conns[inst.Name] = conn
	s.addrs.setVia(connector.Address(inst.Name), target)
	if rc, ok := s.comps[b.FromComponent]; ok {
		rc.setRoute(b.FromService, connector.Address(inst.Name))
	}
	return nil
}

// delayFor is the bus delay model: the topology latency between the nodes
// hosting the source and destination addresses. Connector hops count as
// local to their first target, so one mediated call is charged one
// network traversal.
func (s *System) delayFor(src, dst bus.Address) time.Duration {
	if s.topo == nil {
		return 0
	}
	a := s.addrNode(src)
	b := s.addrNode(dst)
	if a == "" || b == "" || a == b {
		return 0
	}
	d, err := s.topo.Latency(a, b)
	if err != nil {
		return 0
	}
	return d
}

// addrNode resolves a bus address to the topology node hosting it — an O(1)
// routing-table lookup (see addrIndex), safe to call from the bus send path.
func (s *System) addrNode(addr bus.Address) netsim.NodeID {
	return s.addrs.nodeOf(addr)
}

// Start launches all connectors and components plus the client endpoint.
func (s *System) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return ErrAlreadyRunning
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	for _, c := range s.conns {
		c.Start(s.ctx)
	}
	for _, rc := range s.comps {
		rc.start(s.ctx)
	}
	s.running = true
	s.live.Store(true)
	s.mu.Unlock()

	return s.startClient()
}

// startClient attaches the sharded client edge: clientEndpoints direct bus
// endpoints whose deliveries settle on the replier's goroutine (see
// settleClient). It starts no goroutine.
func (s *System) startClient() error {
	addrs := make([]bus.Address, clientEndpoints)
	for i := range addrs {
		addrs[i] = bus.Address(fmt.Sprintf("client:%s#%d", s.name, i))
		// Mailbox of 1: settleClient declines nothing, so nothing queues.
		if _, err := s.bus.AttachDirect(addrs[i], 1, s.settleClient); err != nil {
			return err
		}
	}
	s.clientAddrs.Store(&addrs)
	return nil
}

// settleClient is the client edge's bus.DirectFunc: it consumes everything
// addressed to a client endpoint inline, on the goroutine that sent it —
// the serving worker, a connector, or a peer link's read pump. Every step
// is a short sharded critical section or a send on a cap-1 channel that
// receives exactly one reply, so it honours the direct-delivery contract:
// no blocking, no call back into the bus.
func (s *System) settleClient(m bus.Message) bool {
	if m.Kind != bus.Reply {
		return true
	}
	// Stream traffic dispatches on payload type before the unary waiter
	// path: chunks look their stream up without taking it, the end takes
	// it. The chunk envelope is released here — the item has moved into the
	// stream's ring, so the steady-state receive path recycles every
	// envelope it leases.
	switch pl := m.Payload.(type) {
	case *connector.StreamItem:
		if st, ok := s.clientStreams.lookup(m.Corr); !ok || !st.push(pl.Item) {
			s.streamShed.Add(1)
		}
		pl.Release()
	case connector.StreamEndPayload:
		if st, ok := s.clientStreams.take(m.Corr); ok {
			st.finish(pl.Err, pl.Kind)
		}
	default:
		s.clientWaiters.settle(m.Corr, m.Payload)
	}
	return true
}

// Stop shuts everything down and waits for goroutines to exit.
func (s *System) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	s.live.Store(false)
	comps := make([]*runtimeComponent, 0, len(s.comps))
	for _, rc := range s.comps {
		comps = append(comps, rc)
	}
	conns := make([]*connector.Connector, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	cancel := s.cancel
	s.mu.Unlock()

	s.triggers.stop()
	for _, rc := range comps {
		rc.stop()
	}
	for _, c := range conns {
		c.Stop()
	}
	if cancel != nil {
		cancel()
	}
}

// Name returns the architecture name of the running system.
func (s *System) Name() string { return s.name }

// Now returns the system clock's current time, so layers above core (the
// distribution plane) stamp their RAML events coherently with core's own
// emissions under a simulated clock.
func (s *System) Now() time.Time { return s.clk.Now() }

// HasComponent reports whether the component is hosted locally (one atomic
// snapshot load; safe on any path).
func (s *System) HasComponent(name string) bool {
	_, ok := (*s.compView.Load())[name]
	return ok
}

// LocalComponents returns the sorted names of locally hosted components —
// what a cluster node advertises to its peers.
func (s *System) LocalComponents() []string {
	view := *s.compView.Load()
	out := make([]string, 0, len(view))
	for name := range view {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Events exposes the RAML stream hub.
func (s *System) Events() *EventHub { return s.events }

// Recorder exposes the telemetry span recorder (sampling control, span
// reads, recorder health).
func (s *System) Recorder() *telemetry.Recorder { return s.rec }

// Spans copies out the recorder's recent spans.
func (s *System) Spans() []telemetry.Span { return s.rec.Spans(nil) }

// SetNodeName tells the system which cluster node it runs as; the name is
// stamped into span records. The distribution plane calls this once at
// node construction, before traffic flows.
func (s *System) SetNodeName(node string) { s.node.Store(&node) }

// NodeName returns the cluster node id set by SetNodeName ("" when
// single-node).
func (s *System) NodeName() string { return *s.node.Load() }

// Telemetry gathers the node-local sections of the unified metrics
// snapshot (DESIGN.md §11): bus conservation counters, event-hub ledger,
// stream occupancy, recorder health, per-component admission estimator
// state, and the QoS monitor's statistic map. The distribution plane
// layers the per-link sections on top (cluster.Node.Telemetry).
func (s *System) Telemetry() telemetry.Snapshot {
	bst := s.bus.Stats()
	rec, lost, roots := s.rec.Stats()
	return telemetry.Snapshot{
		Schema:     telemetry.SchemaVersion,
		Node:       s.NodeName(),
		TakenNanos: s.clk.Now().UnixNano(),
		Bus: telemetry.BusCounters{
			Sent:      bst.Sent,
			Delivered: bst.Delivered,
			Dropped:   bst.Dropped,
			Held:      bst.Held,
			InFlight:  bst.InFlight,
			Redirects: bst.Redirects,
		},
		Events: telemetry.EventCounters{
			Published: s.events.Published(),
			Dropped:   s.events.Dropped(),
		},
		Streams: telemetry.StreamCounters{
			Pending:   s.PendingStreams(),
			Active:    s.ActiveStreams(),
			ShedItems: s.ShedStreamItems(),
		},
		Spans: telemetry.SpanCounters{
			Recorded:   rec,
			Lost:       lost,
			Roots:      roots,
			SampleRate: s.rec.Sampling(),
		},
		QoS:       s.monitor.Snapshot(),
		Admission: s.Admission(),
	}
}

// Admission reads each local component's admission estimator state, sorted
// by component name: the Admission section of Telemetry, without the QoS
// windows the rest of the snapshot gathers. Lock-free, so the cluster load
// meter reads it on every beacon.
func (s *System) Admission() []telemetry.AdmissionState {
	view := *s.compView.Load()
	names := make([]string, 0, len(view))
	for name := range view {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []telemetry.AdmissionState
	for _, name := range names {
		ast := view[name].adm.Stats()
		out = append(out, telemetry.AdmissionState{
			Component:     name,
			EstimateNanos: float64(ast.EWMAServiceNanos),
			Admitted:      ast.Admitted,
			Rejected:      ast.Rejected,
		})
	}
	return out
}

// Monitor exposes the QoS monitor.
func (s *System) Monitor() *qos.Monitor { return s.monitor }

// Bus exposes the underlying software bus (for injectors and tests).
func (s *System) Bus() *bus.Bus { return s.bus }

// Weaver exposes the aspect weaver for run-time aspect interchange.
func (s *System) Weaver() *aspects.Weaver { return s.weaver }

// Config returns the current architectural configuration.
func (s *System) Config() *adl.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}
