// Package aas is the public API of the AAS framework — a Go implementation
// of the auto-adaptive systems vision of Aksit & Choukair, "Dynamic,
// Adaptive and Reconfigurable Systems — Overview and Prospective Vision"
// (ICDCSW'03): component-based applications described in an ADL, bound
// on-line through first-class connectors, and governed by a Reconfiguration
// and Adaptation Meta-Level (RAML) that observes the system through
// introspection and changes it through intercession.
//
// Quick start:
//
//	reg := aas.NewRegistry()
//	reg.MustRegister("Greeter", "1.0", nil, func() any { return &Greeter{} })
//	sys, err := aas.Load(adlSource, aas.Options{Registry: reg})
//	if err != nil { ... }
//	if err := sys.Start(ctx); err != nil { ... }
//	defer sys.Stop()
//	greeter := sys.Client("Greeter") // compiled binding handle; reuse it
//	out, err := greeter.Call(ctx, "greet", "world")
//
// The handle supports deadlines and cancellation end-to-end (the context's
// deadline travels with the request, across cluster links included),
// asynchronous fan-out (Async returning a *Future), fire-and-forget
// (Oneway), per-call options (With(WithPrincipal, WithDeadline,
// WithStreamWindow)), and server streaming:
//
//	st, err := greeter.Stream(ctx, "list", "prefix")
//	if err != nil { ... }
//	defer st.Close()
//	for {
//		item, err := st.Recv(ctx)
//		if err == io.EOF { break } // clean end
//		if err != nil { ... }      // deadline, cancel, app error
//		use(item)
//	}
//
// One admitted request, any number of credit-flow-controlled server-push
// items (DESIGN.md §10); the component implements StreamerComponent. See
// examples/ for complete programs, DESIGN.md §7 for the client-binding
// model, and DESIGN.md for the architecture.
package aas

import (
	"context"
	"time"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/filters"
	"repro/internal/flo"
	"repro/internal/inject"
	"repro/internal/lts"
	"repro/internal/metaobj"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// System is a running auto-adaptive system (see core.System).
type System = core.System

// Options configures system assembly.
type Options = core.Options

// Client-binding invocation surface (DESIGN.md §7): System.Client compiles a
// handle once; calls through it resolve nothing per call and thread their
// context end-to-end.
type (
	// Client is a compiled, context-aware binding handle to one component.
	Client = core.Client
	// Future is one in-flight asynchronous call (Client.Async).
	Future = core.Future
	// CallOption derives per-principal/per-deadline handles (Client.With).
	CallOption = core.CallOption
)

// Typed invocation surface (DESIGN.md §8): ClientOf compiles a
// reflection-free codec for concrete request/response types once at handle
// creation; calls through the typed handle skip []any boxing entirely and
// run near-zero-alloc while every filter and aspect still applies.
type (
	// TypedClient is a generics-typed binding handle (core.ClientOf).
	TypedClient[Req, Resp any] = core.TypedClient[Req, Resp]
	// TypedFuture is one in-flight asynchronous typed call.
	TypedFuture[Req, Resp any] = core.TypedFuture[Req, Resp]
	// TypedCodec is a pluggable request/response codec for ClientOfCodec.
	TypedCodec[Req, Resp any] = core.Codec[Req, Resp]
	// TypedRequest lets a request type supply its own wire encoding.
	TypedRequest = core.TypedRequest
	// TypedResponse lets a response type decode itself from reply results.
	TypedResponse = core.TypedResponse
	// TypedComponent serves typed calls in place, without boxing.
	TypedComponent = container.TypedComponent
)

// ClientOf compiles a typed handle to component with a derived codec. It
// panics when Req or Resp is not a supported scalar, struct{}, or a
// TypedRequest/TypedResponse implementor — use ClientOfCodec then.
func ClientOf[Req, Resp any](s *System, component string) *TypedClient[Req, Resp] {
	return core.ClientOf[Req, Resp](s, component)
}

// ClientOfCodec compiles a typed handle with an explicit codec.
func ClientOfCodec[Req, Resp any](s *System, component string, codec TypedCodec[Req, Resp]) *TypedClient[Req, Resp] {
	return core.ClientOfCodec(s, component, codec)
}

// Server-streaming surface (DESIGN.md §10): Client.Stream opens one
// admitted, deadlined request answered by many correlated server-push
// items, with a credit window as the end-to-end backpressure signal — a
// slow consumer blocks the producer instead of growing a queue, locally and
// across cluster links alike.
type (
	// Stream is one in-flight server stream (Client.Stream); Recv returns
	// io.EOF on a clean end.
	Stream = core.Stream
	// TypedStream is the typed consumer handle (StreamOf).
	TypedStream[Item any] = core.TypedStream[Item]
	// TypedStreamClient is a typed stream-opening handle (StreamOf).
	TypedStreamClient[Req, Item any] = core.TypedStreamClient[Req, Item]
	// StreamSink is the push surface handed to a streaming handler; Send
	// blocks on credit, so handler code never sees queue-full errors.
	StreamSink = container.StreamSink
	// StreamerComponent is implemented by components that serve streams.
	StreamerComponent = container.StreamerComponent
)

// StreamOf compiles a typed stream handle to component, deriving the codec
// exactly like ClientOf (and panicking under the same conditions). Each
// received item decodes through the same reflection-free machinery, keeping
// the per-item receive path at or below one allocation.
func StreamOf[Req, Item any](s *System, component string) *TypedStreamClient[Req, Item] {
	return core.StreamClientOf[Req, Item](s, component)
}

// StreamOfCodec compiles a typed stream handle with an explicit codec
// (ReqArgs and DecodeResp are the parts the stream plane uses).
func StreamOfCodec[Req, Item any](s *System, component string, codec TypedCodec[Req, Item]) *TypedStreamClient[Req, Item] {
	return core.StreamClientOfCodec(s, component, codec)
}

// Sentinel errors surfaced by client handles.
var (
	// ErrUntypedOp is returned by a TypedComponent to fall back to Handle.
	ErrUntypedOp = container.ErrUntypedOp
	// ErrNoSuchComponent reports a call or Oneway to a name no component
	// serves (matches errors.Is on replies from remote peers too).
	ErrNoSuchComponent = core.ErrNoSuchComponent
	// ErrOverloaded reports a deadline-carrying call shed at the platform
	// edge because the callee's estimated queueing delay already exceeds the
	// caller's remaining budget (DESIGN.md §9). Retryable: back off and call
	// again — admission reopens as soon as the backlog drains. Test with
	// errors.Is(err, aas.ErrOverloaded). A call that would queue with a
	// budget shorter than one expected service time is refused as a
	// deadline instead (errors.Is(err, context.DeadlineExceeded)).
	ErrOverloaded = core.ErrOverloaded
	// ErrStreamClosed is returned by Recv after the consumer closed the
	// stream.
	ErrStreamClosed = core.ErrStreamClosed
	// ErrUnstreamableOp is returned when a stream is opened on a component
	// that does not implement StreamerComponent.
	ErrUnstreamableOp = container.ErrUnstreamableOp
)

// WithPrincipal stamps every call of the derived handle with a security
// principal.
func WithPrincipal(principal string) CallOption { return core.WithPrincipal(principal) }

// WithDeadline gives every call of the derived handle a deadline budget used
// when its context carries none; the effective deadline propagates to the
// callee, across cluster links included.
func WithDeadline(d time.Duration) CallOption { return core.WithDeadline(d) }

// WithStreamWindow sets the credit window (in items) for streams opened
// through the derived handle — the bound on un-consumed items in flight
// from producer to consumer (default core.DefaultStreamWindow, 32).
func WithStreamWindow(n int) CallOption { return core.WithStreamWindow(n) }

// Event and EventKind form the RAML introspection stream.
type (
	// Event is one RAML stream observation.
	Event = core.Event
	// EventKind classifies events.
	EventKind = core.EventKind
)

// Re-exported event kinds (subset most callers react to).
const (
	EvRequestServed       = core.EvRequestServed
	EvRequestFailed       = core.EvRequestFailed
	EvQoSViolation        = core.EvQoSViolation
	EvReconfigCommitted   = core.EvReconfigCommitted
	EvReconfigRolledBack  = core.EvReconfigRolledBack
	EvAdaptation          = core.EvAdaptation
	EvMigration           = core.EvMigration
	EvSwap                = core.EvSwap
	EvTriggerFired        = core.EvTriggerFired
	EvGuardFailed         = core.EvGuardFailed
	EvTriggerActionFailed = core.EvTriggerActionFailed
	EvPeerUp              = core.EvPeerUp
	EvPeerDown            = core.EvPeerDown
	EvStateLost           = core.EvStateLost
)

// Component-side contracts.
type (
	// Component is the behaviour hosted in a container.
	Component = container.Component
	// StateCapturer enables strong (state-transferring) hot swaps.
	StateCapturer = container.StateCapturer
	// Caller lets a component invoke its required services.
	Caller = core.Caller
	// ContextCaller is the context-aware Caller extension (deadline and
	// cancellation on component outcalls); every injected Caller implements
	// it, assert to use.
	ContextCaller = core.ContextCaller
	// CallerAware components receive their Caller at assembly.
	CallerAware = core.CallerAware
)

// Meta-level control types.
type (
	// TriggerRule is a criteria-based adaptation trigger.
	TriggerRule = core.TriggerRule
	// EventTrigger is a Durra-style event-based trigger.
	EventTrigger = core.EventTrigger
	// Guard is a post-reconfiguration non-regression invariant.
	Guard = core.Guard
	// SwapReport quantifies a hot swap.
	SwapReport = core.SwapReport
	// Model is the introspection snapshot.
	Model = core.Model
)

// Registry holds versioned component implementations.
type Registry struct {
	*registry.Registry
}

// NewRegistry returns an empty implementation registry.
func NewRegistry() *Registry { return &Registry{Registry: &registry.Registry{}} }

// MustRegister registers a factory under name/version; provides may be nil
// for components without a declared interface. It panics on registration
// errors (meant for program initialization).
func (r *Registry) MustRegister(name, version string, provides *Interface, factory func() any) {
	v, err := registry.ParseVersion(version)
	if err != nil {
		panic(err)
	}
	e := registry.Entry{Name: name, Version: v, New: factory}
	if provides != nil {
		e.Provides = *provides
	}
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Interface is a versioned service interface.
type Interface = registry.Interface

// Signature is one service operation signature.
type Signature = registry.Signature

// Version is an interface/implementation version.
type Version = registry.Version

// Config is a parsed ADL configuration.
type Config = adl.Config

// ParseConfig parses ADL source ("system Name { ... }").
func ParseConfig(src string) (*Config, error) { return adl.Parse(src) }

// CheckConfig semantically validates a configuration and returns its
// diagnostics.
func CheckConfig(cfg *Config) ([]adl.Diagnostic, error) { return adl.Check(cfg) }

// DiffConfigs computes the reconfiguration plan between two configurations.
func DiffConfigs(old, new *Config) []adl.Change { return adl.Diff(old, new) }

// Load parses, validates and assembles a system from ADL source.
func Load(src string, opts Options) (*System, error) {
	cfg, err := adl.Parse(src)
	if err != nil {
		return nil, err
	}
	if opts.Registry == nil {
		opts.Registry = &registry.Registry{}
	}
	return core.NewSystem(cfg, opts)
}

// New assembles a system from an already-parsed configuration.
func New(cfg *Config, opts Options) (*System, error) { return core.NewSystem(cfg, opts) }

// Commonly re-exported subsystem handles. Advanced callers can use the
// internal packages through these aliases without importing them directly.
type (
	// Bus is the software bus.
	Bus = bus.Bus
	// Message is the bus message unit.
	Message = bus.Message
	// Topology is the simulated infrastructure.
	Topology = netsim.Topology
	// NodeID identifies a topology node.
	NodeID = netsim.NodeID
	// Region names a geographic area.
	Region = netsim.Region
	// Contract is a QoS contract.
	Contract = qos.Contract
	// Bound is one QoS contract clause.
	Bound = qos.Bound
	// Monitor is a QoS monitor.
	Monitor = qos.Monitor
	// Placement maps components to nodes.
	Placement = deploy.Placement
	// Connector mediates a binding at run time.
	Connector = connector.Connector
	// Aspect is a named crosscutting concern.
	Aspect = aspects.Aspect
	// Advice is one aspect hook.
	Advice = aspects.Advice
	// Pointcut selects join points.
	Pointcut = aspects.Pointcut
	// Invocation is a join point instance.
	Invocation = aspects.Invocation
	// FilterSet is a component/connector filter pair.
	FilterSet = filters.Set
	// Filter is one declarative message manipulator (System.AttachFilter,
	// System.ReplaceFilters).
	Filter = filters.Filter
	// FilterDirection selects a set's input or output chain.
	FilterDirection = filters.Direction
	// FilterMatcher declaratively selects messages (globs compiled and
	// validated at attach time).
	FilterMatcher = filters.Matcher
	// DispatchFilter, ErrorFilter, WaitFilter, TransformFilter and
	// MetaFilter are the five composition-filter kinds.
	DispatchFilter  = filters.Dispatch
	ErrorFilter     = filters.Error
	WaitFilter      = filters.Wait
	TransformFilter = filters.Transform
	MetaFilter      = filters.Meta
	// Superimposition scatters one filter specification across components.
	Superimposition = filters.Superimposition
	// MetaObject is one wrapper of a component's meta-controller chain
	// (System.InsertMetaObject / RemoveMetaObject).
	MetaObject = metaobj.MetaObject
	// MetaProps is the wrapper property set.
	MetaProps = metaobj.Props
	// Injector inserts behaviour into communications.
	Injector = inject.Injector
	// LTS is a labelled transition system behaviour model.
	LTS = lts.LTS
	// Rule is a FLO/C interaction rule.
	Rule = flo.Rule
	// SimClock is the deterministic simulated clock.
	SimClock = clock.Sim
)

// NewTopology builds a simulated infrastructure (see netsim.New).
func NewTopology(seed int64, intraLatency time.Duration, jitterFrac float64) *Topology {
	return netsim.New(seed, intraLatency, jitterFrac)
}

// QoS dimension and statistic constants for contract construction.
const (
	Latency      = qos.Latency
	Throughput   = qos.Throughput
	Availability = qos.Availability
	Jitter       = qos.Jitter
	Loss         = qos.Loss

	Mean = qos.Mean
	P50  = qos.P50
	P95  = qos.P95
	P99  = qos.P99
	Max  = qos.Max
	Min  = qos.Min
	Rate = qos.Rate
)

// Filter directions and meta-object wrapper properties, re-exported for
// the System-level interchange APIs.
const (
	FilterInput  = filters.Input
	FilterOutput = filters.Output

	MetaConditional  = metaobj.Conditional
	MetaMandatory    = metaobj.Mandatory
	MetaExclusive    = metaobj.Exclusive
	MetaModificatory = metaobj.Modificatory
)

// Metrics is an introspection metric snapshot.
type Metrics = strategy.Metrics

// Telemetry plane (DESIGN.md §11): end-to-end tracing plus one unified
// metrics snapshot per node. Zero-alloc span records are written at the
// client-handle edge, the serving component, and cluster gateways; trace
// context crosses peer links in the wire trace trailer. Observe a system through
// System.Telemetry / System.Spans (node-local), ClusterNode.Telemetry
// (adds per-link state and gateway sheds), ClusterNode.ShedStats and
// ClusterNode.BatchStats (the raw distribution-plane counters), and
// System.Events().Published / .Dropped (the event hub's ledger). Tune
// sampling with Options.TraceSampling or at run time via
// System.Recorder().SetSampling.
type (
	// Telemetry is the unified metrics snapshot of one node.
	Telemetry = telemetry.Snapshot
	// Span is one recorded hop of a traced call.
	Span = telemetry.Span
	// SpanRecorder keeps recent spans in fixed-size lock-free rings.
	SpanRecorder = telemetry.Recorder
	// SpanKind classifies which edge of the call path a span covers.
	SpanKind = telemetry.Kind
	// SpanOutcome classifies how a span ended.
	SpanOutcome = telemetry.Outcome
	// EventHub is the RAML event fan-out (System.Events).
	EventHub = core.EventHub
)

// Re-exported span kinds and outcomes.
const (
	SpanClient  = telemetry.KindClient
	SpanServer  = telemetry.KindServer
	SpanForward = telemetry.KindForward
	SpanStream  = telemetry.KindStream

	SpanOK                = telemetry.OutcomeOK
	SpanAppError          = telemetry.OutcomeAppError
	SpanDeadline          = telemetry.OutcomeDeadline
	SpanCancelled         = telemetry.OutcomeCancelled
	SpanNoSuchComponent   = telemetry.OutcomeNoSuchComponent
	SpanStreamUnsupported = telemetry.OutcomeStreamUnsupported
	SpanOverload          = telemetry.OutcomeOverload
	SpanShed              = telemetry.OutcomeShed
)

// PackSpan packs a span id over its parent id into the single word carried
// by bus.Message.Span; SpanID and ParentSpanID unpack it.
func PackSpan(span, parent uint32) int64 { return telemetry.PackSpan(span, parent) }

// SpanID extracts the current span id from a packed span word.
func SpanID(packed int64) uint32 { return telemetry.SpanID(packed) }

// ParentSpanID extracts the parent span id from a packed span word.
func ParentSpanID(packed int64) uint32 { return telemetry.ParentID(packed) }

// Distribution plane (DESIGN.md §6): real multi-node clustering with
// location-transparent remote bindings and live cross-node migration.
type (
	// ClusterNode is one cluster member wrapping a running System.
	ClusterNode = cluster.Node
	// ClusterOptions configures a cluster node (listen address, heartbeat
	// interval, failure-detection threshold).
	ClusterOptions = cluster.Options
	// ClusterSpec describes an in-process multi-node cluster (tests,
	// benchmarks, demos).
	ClusterSpec = cluster.Spec
	// ClusterHarness is a started in-process cluster.
	ClusterHarness = cluster.Harness
	// Handoff is the quiesced image of a component crossing nodes.
	Handoff = core.Handoff
	// Migrator is the cross-node migration hook type.
	Migrator = core.Migrator
)

// StartClusterNode turns a running system into a cluster node: it listens
// for peers, serves remote calls, and extends System.Migrate to live peers.
func StartClusterNode(sys *System, opts ClusterOptions) (*ClusterNode, error) {
	return cluster.Start(sys, opts)
}

// StartCluster starts an in-process multi-node cluster over TCP loopback
// from one shared ADL source and a component placement.
func StartCluster(ctx context.Context, spec ClusterSpec) (*ClusterHarness, error) {
	return cluster.StartHarness(ctx, spec)
}

// Elastic plane (DESIGN.md §12): gossip membership, load-driven placement
// and warm-standby replication on top of the distribution plane. A node
// given ClusterOptions.Seeds joins by dialing any live peer and learns the
// full member view through gossip; ClusterNode.StartPlacer feeds observed
// load into the live rebalancing planner and enacts its own moves;
// ClusterNode.StartReplicator ships component snapshots to a follower so
// ClusterNode.EnableFailover can promote warm state when the host dies.
type (
	// Member is a point-in-time copy of one gossip membership entry.
	Member = cluster.Member
	// MemberStatus is a member's health as seen by the failure detector.
	MemberStatus = cluster.MemberStatus
	// MemberComponent is one component hosted by a member, as gossiped.
	MemberComponent = cluster.MemberComponent
	// PlacerOptions tunes the load-driven placement loop.
	PlacerOptions = cluster.PlacerOptions
	// Placer is a running placement loop (ClusterNode.StartPlacer).
	Placer = cluster.Placer
	// ReplicatorOptions tunes warm-standby snapshot shipping.
	ReplicatorOptions = cluster.ReplicatorOptions
	// Replicator is a running replication loop (ClusterNode.StartReplicator).
	Replicator = cluster.Replicator
)

// Re-exported membership statuses.
const (
	MemberAlive   = cluster.MemberAlive
	MemberSuspect = cluster.MemberSuspect
	MemberDead    = cluster.MemberDead
)
