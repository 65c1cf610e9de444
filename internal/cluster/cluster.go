// Package cluster is the distribution plane: it turns a single-process
// core.System into one node of a real multi-process cluster connected over
// TCP (DESIGN.md §6). The paper's motivating scenario — services "deployed
// optimally on network equipments … reconfigured automatically according to
// user's mobility" — needs components in separate failure domains; this
// package provides the node runtime: a listener, peer links speaking the
// internal/wire frame protocol, heartbeat failure detection, gateway
// endpoints that make remote components reachable at their unchanged bus
// address, and the cross-node half of live migration.
//
// Location transparency is the design invariant: a component hosted on a
// peer keeps its canonical bus address (core.ComponentAddress), behind
// which a gateway endpoint forwards requests over the peer link. Every
// adaptation mechanism attached on the caller side — connector filters,
// woven aspects, FLO rules, interceptors, regions — applies to remote calls
// unchanged, because nothing between the caller and the gateway knows the
// provider is elsewhere.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Defaults for Options.
const (
	DefaultHeartbeat   = 250 * time.Millisecond
	DefaultFailAfter   = 4 * DefaultHeartbeat
	defaultDialTimeout = 5 * time.Second
	writeTimeout       = 10 * time.Second
	handshakeTimeout   = 5 * time.Second
	gatewayMailbox     = 4096
)

// Cluster errors.
var (
	ErrClosed        = errors.New("cluster: node closed")
	ErrUnknownPeer   = errors.New("cluster: unknown peer")
	ErrDuplicatePeer = errors.New("cluster: peer already linked")
	// ErrSystemName refuses a link to a node running a different
	// architecture. Like ErrWireVersion, both ends reach it from the
	// hello/welcome exchange: Join returns it and the acceptor logs it.
	ErrSystemName = errors.New("cluster: peer runs a different architecture")
	// ErrWireVersion refuses a link whose two ends speak no common wire
	// protocol version: min(both offers) is below wire.MinVersion. Both ends
	// compute the same verdict from the hello/welcome exchange, so the dialer
	// gets it from Join and the acceptor logs it.
	ErrWireVersion = errors.New("cluster: no common wire protocol version")
)

// Options configures a cluster node.
type Options struct {
	// Node is this node's id; peers address it by this name and Migrate
	// recognizes it as a migration target. Required.
	Node string
	// Listen is the TCP listen address (default "127.0.0.1:0").
	Listen string
	// Heartbeat is the beacon interval per peer link (default 250ms).
	Heartbeat time.Duration
	// FailAfter is the silence threshold after which a peer is declared
	// down (default 4×Heartbeat). Any received frame counts as liveness.
	FailAfter time.Duration
	// MigrateTimeout bounds the wait for a peer's adoption ack (default 30s).
	MigrateTimeout time.Duration
	// DialTimeout bounds Join dials (default 5s).
	DialTimeout time.Duration
	// Logf, when set, receives diagnostic lines (dropped frames, late
	// replies); nil discards them.
	Logf func(format string, args ...any)
	// BatchLinger optionally delays each egress flush to pack more frames
	// per write (default 0: no artificial delay; batching arises from
	// backpressure while the previous write is in flight).
	BatchLinger time.Duration
	// Seeds lists addresses of existing cluster members. The node dials
	// them at start and keeps retrying while it has no link at all; one
	// reachable seed suffices — gossip then teaches it the rest of the
	// cluster and the mesh completes itself through auto-dial.
	Seeds []string
	// Advertise is the address gossiped for other members to dial this
	// node (default: the actual listen address). Set it when the listen
	// address is not reachable as-is (NAT, 0.0.0.0 binds).
	Advertise string
	// SuspectAfter is the refute window: how long a member stays suspect
	// after its link dies before the failure detector declares it dead and
	// fires EvPeerDown (default FailAfter). Fresh gossip through any other
	// path clears the suspicion within this window.
	SuspectAfter time.Duration
	// StandbyTTL bounds the age of a warm standby snapshot at promotion
	// time (default 1 minute): an older snapshot is treated as absent and
	// failover takes the lossy path with an explicit EvStateLost.
	StandbyTTL time.Duration
}

// Node is one cluster member: a core.System plus its links to peers.
type Node struct {
	sys  *core.System
	id   string
	opts Options
	ln   net.Listener

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	peers  map[string]*peer
	owners map[string]string // component -> hosting peer id
	// ownersAt records when each component's ownership last changed through
	// an authoritative path (handshake, announce, migration rebind, local
	// adoption). Gossip-learned claims are refused while the record is
	// fresh: a just-migrated-away host keeps advertising the component for
	// up to its load-meter cache window, and without the timestamp that
	// stale claim would flip ownership back and misroute new calls.
	ownersAt map[string]time.Time
	gateways map[string]*gateway
	blocked  map[string]bool // peers refused at handshake (partition testing)
	repl     *Replicator     // outbound replication loop, nil until started
	closed   bool

	// membership is the gossip view, meter the local load signal feeding
	// it; both exist from Start (gossip runs on every link regardless of
	// whether a placer or replicator was started).
	membership *membership
	meter      *loadMeter

	// standbys holds warm snapshots shipped by peers' replicators; the
	// intake is always on (see handleReplicate).
	smu      sync.Mutex
	standbys map[string]standby

	// inflight maps a caller-side (src, corr) to the wire call it became,
	// so a bus-level cancel arriving at a gateway can revoke the matching
	// remote call (see cancelForward).
	imu      sync.Mutex
	inflight map[callKey]remoteRef

	// Egress coalescing counters across all links (see BatchStats).
	batchWrites atomic.Uint64
	batchFrames atomic.Uint64
	// shedGateway counts requests shed at this node's gateways before
	// crossing the wire: expired in a gateway mailbox's EDF lane, expired
	// at forward time, or expired in the egress queue (see ShedStats).
	shedGateway atomic.Uint64
	// linkSeq numbers link incarnations; it makes each link's bus address
	// unique for the life of the node (see peer.addr).
	linkSeq atomic.Uint64
}

// callKey identifies a caller-side in-flight request: the caller's reply
// address plus its bus correlation id.
type callKey struct {
	src  bus.Address
	corr uint64
}

// remoteRef locates the wire call a forwarded request became.
type remoteRef struct {
	p    *peer
	corr uint64
}

// gateway is a forwarding endpoint occupying a remote component's canonical
// bus address. It is a direct endpoint: a unary request that can go straight
// onto the owning peer's link is forwarded inside the caller's bus.Send
// (forwardDirect); everything else queues for gatewayLoop.
type gateway struct {
	comp   string
	addr   bus.Address // core.ComponentAddress(comp): the Src of every reply
	ep     *bus.Endpoint
	cancel context.CancelFunc
}

// Start turns sys into a cluster node: it listens on opts.Listen, registers
// the cross-node migration hook, and parks requests toward components the
// system declared Remote until their hosting peer links up. The system
// should already be running (or be started shortly after).
func Start(sys *core.System, opts Options) (*Node, error) {
	if opts.Node == "" {
		return nil, errors.New("cluster: Options.Node is required")
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = 4 * opts.Heartbeat
	}
	if opts.MigrateTimeout <= 0 {
		opts.MigrateTimeout = 30 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultDialTimeout
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = opts.FailAfter
	}
	if opts.StandbyTTL <= 0 {
		opts.StandbyTTL = time.Minute
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	if opts.Advertise == "" {
		opts.Advertise = ln.Addr().String()
	}
	n := &Node{
		sys:      sys,
		id:       opts.Node,
		opts:     opts,
		ln:       ln,
		peers:    map[string]*peer{},
		owners:   map[string]string{},
		ownersAt: map[string]time.Time{},
		gateways: map[string]*gateway{},
		blocked:  map[string]bool{},
		standbys: map[string]standby{},
		inflight: map[callKey]remoteRef{},
	}
	n.membership = newMembership(n, opts.Advertise)
	n.meter = newLoadMeter(opts.Heartbeat / 2)
	n.ctx, n.cancel = context.WithCancel(context.Background())
	// Spans recorded from here on carry the cluster identity as their node.
	sys.SetNodeName(opts.Node)

	// Requests toward declared-remote components park at their (otherwise
	// endpoint-less) address until the hosting peer links and a gateway
	// attaches — early traffic waits instead of erroring.
	for _, comp := range sys.Remotes() {
		sys.Bus().PauseRequests(core.ComponentAddress(comp))
	}
	sys.SetMigrator(n.migrateHook)

	n.wg.Add(2)
	go n.acceptLoop()
	go n.watchdogLoop()
	if len(opts.Seeds) > 0 {
		n.wg.Add(1)
		go n.seedLoop()
	}
	return n, nil
}

// seedLoop dials the seed list until the node holds at least one link, then
// keeps watching: if every link is ever lost (full partition, every peer
// restarted) it resumes dialing, so a node rejoins the cluster without
// operator action. Gossip takes over from the first successful link.
func (n *Node) seedLoop() {
	defer n.wg.Done()
	try := func() {
		for _, addr := range n.opts.Seeds {
			if addr == n.opts.Advertise || addr == n.Addr() {
				continue // a node may appear in its own seed list
			}
			if len(n.Peers()) > 0 {
				return
			}
			if err := n.Join(addr); err != nil {
				n.opts.Logf("cluster %s: seed %s: %v", n.id, addr, err)
			}
		}
	}
	try()
	t := time.NewTicker(2 * n.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			if len(n.Peers()) == 0 {
				try()
			}
		}
	}
}

// ID returns this node's id.
func (n *Node) ID() string { return n.id }

// Addr returns the actual listen address (useful with ":0").
func (n *Node) Addr() string { return n.ln.Addr().String() }

// System returns the node's underlying system.
func (n *Node) System() *core.System { return n.sys }

// Peers returns the ids of currently linked peers.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	return out
}

// Owner reports which peer hosts a component ("" when unknown or local).
func (n *Node) Owner(component string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.owners[component]
}

// Join dials a peer, performs the handshake and links it. Joining an
// already-linked peer is an error; joining a node running a different
// architecture is refused.
func (n *Node) Join(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, n.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", addr, err)
	}
	enc := wire.NewEncoder(conn)
	seen := new(atomic.Int64)
	dec := wire.NewDecoder(&livenessReader{r: conn, seen: seen})
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := enc.Encode(wire.FrameHello, n.hello()); err != nil {
		conn.Close()
		return fmt.Errorf("cluster: join %s: %w", addr, err)
	}
	t, body, err := dec.Next()
	if err != nil || t != wire.FrameWelcome {
		conn.Close()
		return fmt.Errorf("cluster: join %s: handshake failed (%v, frame %v)", addr, err, t)
	}
	var h wire.Hello
	if err := wire.Parse(body, &h); err != nil {
		conn.Close()
		return fmt.Errorf("cluster: join %s: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return n.addPeer(conn, enc, dec, h, seen)
}

// hello builds this node's handshake payload.
func (n *Node) hello() *wire.Hello {
	return &wire.Hello{Node: n.id, System: n.sys.Name(), Components: n.sys.LocalComponents(),
		MaxVersion: wire.MaxVersion, Addr: n.opts.Advertise}
}

// Members returns the gossip membership view, this node included, sorted by
// id. Entries for dead members are retained — they carry the component and
// follower assignments failover needs.
func (n *Node) Members() []Member {
	return n.membership.members()
}

// Member returns one membership entry by id.
func (n *Node) Member(id string) (Member, bool) {
	return n.membership.member(id)
}

// Block refuses future links from peer id and severs any current one —
// a test helper for partition scenarios. The severed link follows the
// normal failure-detection path (suspect, then dead after the refute
// window), exactly as a real partition would.
func (n *Node) Block(id string) {
	n.mu.Lock()
	n.blocked[id] = true
	p := n.peers[id]
	n.mu.Unlock()
	if p != nil {
		n.peerDown(p, "blocked")
	}
}

// Unblock lifts a Block; gossip-driven auto-dial re-links the two sides.
func (n *Node) Unblock(id string) {
	n.mu.Lock()
	delete(n.blocked, id)
	n.mu.Unlock()
}

// BatchStats reports the egress coalescing counters across all links: writes
// is the number of socket writes the egress path issued, frames the number
// of data frames they carried — calls, replies, cancels, the stream plane's
// opens, chunks, credits and ends, snapshots and their acks. frames/writes
// is the achieved batching factor; a healthy cross-node stream drives it
// well above the unary baseline because consecutive chunks pack into single
// writes.
func (n *Node) BatchStats() (writes, frames uint64) {
	return n.batchWrites.Load(), n.batchFrames.Load()
}

// ShedStats reports how many requests this node's gateways shed before they
// crossed the wire: expired in a gateway mailbox's deadline lane, found
// expired at forward time, or expired while queued in an egress batch.
// Stream opens count here exactly like unary calls — one shed open is one
// unit, regardless of how many items the stream would have carried. Under
// overload these sheds are the cluster edge's contribution to goodput — work
// whose caller already gave up never spends a network round trip.
func (n *Node) ShedStats() (shed uint64) {
	return n.shedGateway.Load()
}

// ServedCalls reports how many calls and streams this node is serving for its
// peers: the inbound requests its links have put on the local bus and not yet
// seen answered (replied to, or ended), revoked or expired. It is the
// callee-side counterpart of core.System.PendingCalls and PendingStreams — an
// inbound call or stream holds no waiter slot and no stream handle, only its
// link's record — and like them returns to zero at quiescence; a leak here is
// a bug.
func (n *Node) ServedCalls() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, p := range n.peers {
		total += p.servedCalls()
	}
	return total
}

// Telemetry returns the node's unified metrics snapshot: the system-level
// sections filled by core.System.Telemetry plus the distribution-plane
// sections only this layer can see — gateway sheds and one LinkState per
// peer (negotiated wire version, per-link batching counters, heartbeat
// liveness). This is the struct the aasd -obs /metrics endpoint serves.
func (n *Node) Telemetry() telemetry.Snapshot {
	snap := n.sys.Telemetry()
	snap.GatewayShed = n.shedGateway.Load()
	now := time.Now().UnixNano()
	n.mu.Lock()
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := n.peers[id]
		ls := telemetry.LinkState{
			Peer:          id,
			WireVersion:   wire.MaxVersion,
			BatchWrites:   p.batchWrites.Load(),
			BatchFrames:   p.batchFrames.Load(),
			LastSeenNanos: p.lastSeen.Load(),
			Down:          p.down.Load(),
		}
		if ls.LastSeenNanos == 0 {
			ls.LastSeenNanos, ls.SinceSeenNanos = -1, -1
		} else {
			ls.SinceSeenNanos = now - ls.LastSeenNanos
		}
		snap.Links = append(snap.Links, ls)
	}
	repl := n.repl
	n.mu.Unlock()

	for _, m := range n.Members() {
		ms := telemetry.MemberState{
			ID: m.ID, Addr: m.Addr, Status: m.Status.String(),
			Incarnation: m.Incarnation, Version: m.Version, Load: m.Load,
		}
		for _, c := range m.Components {
			ms.Components = append(ms.Components, c.Name)
		}
		snap.Members = append(snap.Members, ms)
	}

	if repl != nil {
		repl.mu.Lock()
		comps := make([]string, 0, len(repl.states))
		for comp := range repl.states {
			comps = append(comps, comp)
		}
		sort.Strings(comps)
		for _, comp := range comps {
			st := repl.states[comp]
			rs := telemetry.ReplicationState{
				Component: comp, Follower: st.follower,
				ShippedSeq: st.seq, AckedSeq: st.ackedSeq,
				Bytes: st.bytes, LastError: st.lastErr,
			}
			if st.ackedAt == 0 {
				rs.AckAgeNanos = -1
			} else {
				rs.AckAgeNanos = now - st.ackedAt
			}
			snap.Replication = append(snap.Replication, rs)
		}
		repl.mu.Unlock()
	}

	n.smu.Lock()
	scomps := make([]string, 0, len(n.standbys))
	for comp := range n.standbys {
		scomps = append(scomps, comp)
	}
	sort.Strings(scomps)
	for _, comp := range scomps {
		sb := n.standbys[comp]
		snap.Standbys = append(snap.Standbys, telemetry.StandbyState{
			Component: comp, Origin: sb.origin, Seq: sb.seq,
			Bytes: len(sb.state), AgeNanos: now - sb.at.UnixNano(),
		})
	}
	n.smu.Unlock()
	return snap
}

// acceptLoop links inbound peers.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handshakeInbound(conn)
		}()
	}
}

// handshakeInbound answers a dialer's hello with a welcome and links it. Any
// hello that parses is answered, so a dialer refused by addPeer — another
// architecture, no common version — learns the verdict from the welcome.
func (n *Node) handshakeInbound(conn net.Conn) {
	enc := wire.NewEncoder(conn)
	seen := new(atomic.Int64)
	dec := wire.NewDecoder(&livenessReader{r: conn, seen: seen})
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	t, body, err := dec.Next()
	if err != nil || t != wire.FrameHello {
		conn.Close()
		return
	}
	var h wire.Hello
	if err := wire.Parse(body, &h); err != nil {
		conn.Close()
		return
	}
	if err := enc.Encode(wire.FrameWelcome, n.hello()); err != nil {
		conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	if err := n.addPeer(conn, enc, dec, h, seen); err != nil {
		n.opts.Logf("cluster %s: inbound link from %s rejected: %v", n.id, h.Node, err)
	}
}

// addPeer registers the link and starts its pumps. seen is the liveness
// cell shared with the decoder's livenessReader.
func (n *Node) addPeer(conn net.Conn, enc *wire.Encoder, dec *wire.Decoder, h wire.Hello, seen *atomic.Int64) error {
	if h.System != n.sys.Name() {
		conn.Close()
		return fmt.Errorf("%w: %q vs %q", ErrSystemName, h.System, n.sys.Name())
	}
	if h.Node == n.id {
		conn.Close()
		return fmt.Errorf("cluster: %s dialed itself", n.id)
	}
	n.mu.Lock()
	refused := n.blocked[h.Node]
	n.mu.Unlock()
	if refused {
		conn.Close()
		return fmt.Errorf("cluster: peer %s is blocked", h.Node)
	}
	// Version negotiation: both sides independently compute min(offers) —
	// the hello carried each side's MaxVersion — so they agree on the version,
	// or on refusing the link, without another round trip. This build speaks
	// one version, so a link it accepts runs at MaxVersion.
	if min(h.MaxVersion, wire.MaxVersion) < wire.MinVersion {
		conn.Close()
		return fmt.Errorf("%w: peer %s offers up to v%d, this build speaks v%d to v%d",
			ErrWireVersion, h.Node, h.MaxVersion, wire.MinVersion, wire.MaxVersion)
	}
	p := newPeer(n, h.Node, conn, enc, dec, seen)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	if _, dup := n.peers[h.Node]; dup {
		n.mu.Unlock()
		conn.Close()
		return fmt.Errorf("%w: %s", ErrDuplicatePeer, h.Node)
	}
	n.peers[h.Node] = p
	n.mu.Unlock()

	for _, comp := range h.Components {
		n.learnOwner(comp, h.Node)
	}
	n.membership.linkUp(h.Node, h.Addr, h.Components)
	n.sys.Events().Emit(core.Event{Kind: core.EvPeerUp, At: n.sys.Now(),
		Component: h.Node, Detail: conn.RemoteAddr().String()})
	if err := p.start(); err != nil {
		n.peerDown(p, "start: "+err.Error())
		return err
	}
	return nil
}

// learnOwner records that a peer hosts comp and makes sure a gateway serves
// its address locally (unless we host it ourselves).
func (n *Node) learnOwner(comp, peerID string) {
	if n.sys.HasComponent(comp) {
		return
	}
	n.mu.Lock()
	n.owners[comp] = peerID
	n.ownersAt[comp] = time.Now()
	n.mu.Unlock()
	if err := n.attachGateway(comp); err != nil {
		n.opts.Logf("cluster %s: gateway for %s: %v", n.id, comp, err)
	}
}

// attachGateway occupies comp's canonical address with a forwarding
// endpoint, then flushes any requests that parked there while the address
// had no endpoint. Idempotent: an existing gateway (or a locally hosted
// component holding the address) leaves the routing as is.
func (n *Node) attachGateway(comp string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.gateways[comp] != nil {
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()

	addr := core.ComponentAddress(comp)
	g := &gateway{comp: comp, addr: addr}
	ep, err := n.sys.Bus().AttachDirect(addr, gatewayMailbox, func(m bus.Message) bool {
		return n.forwardDirect(g, &m)
	})
	if err != nil {
		// Address taken: the component is local (or a gateway raced us in).
		if errors.Is(err, bus.ErrAddressTaken) {
			return nil
		}
		return err
	}
	// Deadlined requests queue in the gateway mailbox's EDF lane and are
	// shed there when they expire before the loop gets to them; count those
	// sheds into the node's edge accounting.
	ep.SetExpiredFunc(func(bus.Message) { n.shedGateway.Add(1) })
	ctx, cancel := context.WithCancel(n.ctx)
	g.ep, g.cancel = ep, cancel
	n.mu.Lock()
	if n.closed || n.gateways[comp] != nil {
		n.mu.Unlock()
		cancel()
		n.sys.Bus().Detach(addr)
		return nil
	}
	n.gateways[comp] = g
	n.mu.Unlock()

	n.sys.RegisterRemote(comp)
	n.wg.Add(1)
	go n.gatewayLoop(g, ctx)
	_, _ = n.sys.Bus().Resume(addr)
	return nil
}

// removeGateway detaches comp's forwarding endpoint; it reports whether one
// existed. Messages arriving while the address is endpoint-less park on the
// route and are recovered by the next attach+resume.
func (n *Node) removeGateway(comp string) bool {
	n.mu.Lock()
	g := n.gateways[comp]
	delete(n.gateways, comp)
	n.mu.Unlock()
	if g == nil {
		return false
	}
	n.detachGateway(g)
	return true
}

// detachGateway tears one gateway endpoint down without losing a message:
// the address is paused first (a detached, unpaused address fails sends
// with ErrUnknownDst, while a paused one parks them), and requests still
// queued in the gateway's mailbox are re-sent so they park on the paused
// route alongside the rest — the attach+resume that follows (real endpoint
// or re-attached gateway) recovers every one.
func (n *Node) detachGateway(g *gateway) {
	addr := core.ComponentAddress(g.comp)
	n.sys.Bus().PauseRequests(addr)
	g.cancel()
	n.sys.Bus().Detach(addr)
	// Drain what the loop never got to. Detach keeps queued messages
	// readable; a message the loop popped concurrently is forwarded, never
	// dropped, so this split loses nothing either way.
	for {
		m, ok := g.ep.TryReceive()
		if !ok {
			return
		}
		if m.Kind == bus.Request {
			_ = n.sys.Bus().Send(m)
		}
	}
}

// forwardDirect is the gateway's bus.DirectFunc: a request — a unary call or
// a stream open — that can go onto the owning peer's link as it stands is
// forwarded here, inside the caller's bus.Send. Everything else is declined
// and queues for gatewayLoop: controls, and every request forward refuses —
// those must be answered with a bus.Send of their own, which the direct
// contract forbids (the same split runtimeComponent.deliverDirect makes). It
// runs under the gateway address's route lock; forward takes short locks,
// reads the clock and queues one egress item.
func (n *Node) forwardDirect(g *gateway, m *bus.Message) bool {
	if m.Kind != bus.Request {
		return false
	}
	kind, _ := n.forward(g, m)
	return kind == connector.ErrKindNone
}

// gatewayLoop serves what forwardDirect declined at the gateway's address.
func (n *Node) gatewayLoop(g *gateway, ctx context.Context) {
	defer n.wg.Done()
	for {
		m, err := g.ep.Receive(ctx)
		if err != nil {
			return
		}
		if m.Kind == bus.Control && m.Op == bus.OpCancel {
			// A caller gave up on a forwarded call or stream: revoke it on
			// the peer.
			n.cancelForward(m)
			continue
		}
		if m.Kind == bus.Control && m.Op == bus.OpStreamCredit {
			// A consumer replenished its window: relay the grant to the
			// producer across the link.
			n.creditForward(m)
			continue
		}
		if m.Kind != bus.Request {
			continue // stray replies/events toward a remote address are meaningless here
		}
		// A request the direct path refused. Try again — the refusal may have
		// been momentary — and answer it here if it is refused again.
		if kind, reason := n.forward(g, &m); kind != connector.ErrKindNone {
			if kind == connector.ErrKindDeadline {
				n.shedGateway.Add(1)
			}
			// The kind rides on the payload so typed handles map it back to
			// a sentinel without string matching.
			_ = n.sys.Bus().Send(bus.Message{
				Kind: bus.Reply, Op: m.Op,
				Payload: answerPayload(m.Payload, wire.Reply{Err: reason, Kind: uint8(kind)}),
				Src:     g.addr, Dst: m.Src, Corr: m.Corr,
			})
		}
	}
}

// answerPayload is the bus payload that answers the request payload req with
// what rep says, in the shape req's sender expects. A typed call's envelope
// is completed in place (SetResults + Finish, the contract local serving
// uses) and rides back as the request's own payload, so nothing is boxed for
// it; an envelope its caller has abandoned is never pooled, so a late
// completion is harmless. A stream open is answered by its end. Everything
// else gets a reply payload.
func answerPayload(req any, rep wire.Reply) any {
	switch pl := req.(type) {
	case connector.TypedCall:
		errMsg, kind := rep.Err, connector.ErrKind(rep.Kind)
		if errMsg == "" {
			// A reply off the wire carries its result block raw, and the
			// envelope decodes it into the shape its caller wants — here, on
			// the read pump, while the bytes are still the frame's.
			if derr := pl.SetRawResults(rep.RawResults); derr != nil {
				errMsg, kind = derr.Error(), connector.ErrKindApp
			}
		}
		pl.Finish(errMsg, kind)
		return req
	case connector.StreamOpenPayload:
		return connector.StreamEndPayload{Err: rep.Err, Kind: connector.ErrKind(rep.Kind)}
	default:
		// The block was validated by the read pump; an answer made up on this
		// node carries none, and decodes to no results.
		results, _, _ := wire.ReadValues(rep.RawResults)
		return connector.ReplyPayload{Results: results, Err: rep.Err, Kind: connector.ErrKind(rep.Kind)}
	}
}

// forward ships one bus request — a unary call or a stream open — over the
// wire and records what it takes to re-emit the peer's answer as bus replies
// toward the original caller — from the caller's perspective the remote
// component answered from its usual address. It sends nothing on the bus
// itself, so it runs on the caller's goroutine inside forwardDirect as well as
// on the gateway loop's. A request it cannot ship is refused with the error
// kind and text the caller is owed, and nothing has changed.
func (n *Node) forward(g *gateway, m *bus.Message) (connector.ErrKind, string) {
	p := n.livePeer(n.Owner(g.comp))
	if p == nil {
		return connector.ErrKindApp, fmt.Sprintf("cluster: no live peer hosts %s", g.comp)
	}
	return n.forwardVia(p, g, m)
}

// forwardVia is forward once the owning peer is picked.
func (n *Node) forwardVia(p *peer, g *gateway, m *bus.Message) (connector.ErrKind, string) {
	comp := g.comp
	// Deadline propagation: ship the remaining budget (relative, so peer
	// clocks need not agree). A request that expired before reaching the
	// gateway is answered here — crossing the wire to be rejected on the
	// other side would waste a round trip on a caller that already left.
	// The budget itself is stamped at write time from the absolute deadline
	// (see egress), so only the already-expired check happens here.
	if m.Deadline != 0 && time.Now().UnixNano() >= m.Deadline {
		return connector.ErrKindDeadline,
			fmt.Sprintf("cluster: %s.%s: deadline exceeded at gateway", comp, m.Op)
	}
	// The frame, as the egress will queue it. Its argument block is encoded
	// there, into memory the egress owns: a typed call's preencoded form is
	// spliced verbatim — no []any boxing at the gateway, no buffer per call.
	it := egressItem{kind: wire.FrameCall, comp: comp, op: m.Op, absDeadline: m.Deadline}
	var (
		call connector.TypedCall
		args []any
	)
	switch pl := m.Payload.(type) {
	case connector.CallPayload:
		it.text, args = pl.Principal, pl.Args
	case connector.TypedCall:
		it.text, it.respTag, call = pl.Principal(), pl.RespTag(), pl
	case connector.StreamOpenPayload:
		it.kind, it.num = wire.FrameStreamOpen, uint64(uint32(pl.Window))
		it.text, args = pl.Principal, pl.Args
	}
	pc := pendingCall{g: g, src: m.Src, srcCorr: m.Corr, op: m.Op, payload: m.Payload}
	// Trace propagation: the gateway opens a forward span parented under the
	// caller's span and ships its own id as the new parent, so the remote
	// serve span hangs off the gateway hop.
	if m.Trace != 0 {
		pc.trace, pc.parentSpan = m.Trace, telemetry.SpanID(m.Span)
		pc.fwdSpan = telemetry.NextSpanID()
		pc.fwdStart = time.Now().UnixNano()
		it.trace = m.Trace
		it.span = telemetry.PackSpan(pc.fwdSpan, pc.parentSpan)
	}
	it.corr = p.corr.Add(1)
	key := callKey{src: m.Src, corr: m.Corr}
	n.imu.Lock()
	n.inflight[key] = remoteRef{p: p, corr: it.corr}
	n.imu.Unlock()
	p.addPending(it.corr, pc)
	// withdraw takes the registration back when the request cannot go out after
	// all, so that it is refused at once — before its caller's Send returns and
	// the caller could observe a registered call — rather than sit in a table
	// nobody will ever fail. Whoever took the record first (failAll, see below)
	// is answering the caller instead.
	withdraw := func(reason string) (connector.ErrKind, string) {
		if _, ok := p.takePending(it.corr); ok {
			n.untrack(key)
			return connector.ErrKindApp, reason
		}
		return connector.ErrKindNone, ""
	}
	// The link may have died since it was picked. failAll runs after down is
	// set and fails what it finds registered, so re-checking down after
	// registering leaves no gap: either failAll saw the record and is
	// answering the caller, or it is still here, behind an egress nobody
	// drains, and is withdrawn.
	if p.down.Load() {
		return withdraw("cluster: peer " + p.id + " down")
	}
	// Arguments the codec cannot ship are found out here, as the frame is
	// queued, not by the writer later.
	if err := p.egress.enqueueRequest(&it, call, args); err != nil {
		return withdraw(fmt.Sprintf("cluster: %s.%s: %v", comp, m.Op, err))
	}
	return connector.ErrKindNone, ""
}

// untrack forgets a caller-side in-flight request.
func (n *Node) untrack(key callKey) {
	n.imu.Lock()
	delete(n.inflight, key)
	n.imu.Unlock()
}

// closeForwardSpan records the forward span of a traced forwarded request as
// it leaves the pending table.
func (n *Node) closeForwardSpan(p *peer, pc *pendingCall, outcome telemetry.Outcome) {
	if pc.fwdStart == 0 {
		return
	}
	n.sys.Recorder().Record(telemetry.Span{
		Trace: pc.trace, ID: pc.fwdSpan, Parent: pc.parentSpan,
		Start: pc.fwdStart, End: time.Now().UnixNano(),
		Op: pc.op, Comp: pc.g.comp, Src: n.id, Dst: p.id,
		Kind: telemetry.KindForward, Outcome: outcome,
	})
}

// settleForward completes one forwarded call with the reply its peer sent,
// or one forwarded stream with its end — or with the answer made up for it
// when the request expired in the egress queue, its link died or a chunk
// could not be handed on: the forward span closes and the answer goes onto
// the bus toward the original caller in the shape it expects (answerPayload).
func (n *Node) settleForward(p *peer, pc pendingCall, rep wire.Reply) {
	// Untrack first: a cancel arriving after any completion must find
	// nothing to revoke.
	n.untrack(callKey{src: pc.src, corr: pc.srcCorr})
	n.closeForwardSpan(p, &pc, telemetry.Outcome(rep.Kind))
	m := bus.Message{
		Kind: bus.Reply, Op: pc.op, Payload: answerPayload(pc.payload, rep),
		Src: pc.g.addr, Dst: pc.src, Corr: pc.srcCorr,
	}
	if serr := n.sys.Bus().Send(m); serr != nil {
		n.opts.Logf("cluster %s: dropped reply corr=%d: %v", n.id, pc.srcCorr, serr)
	}
}

// cancelForward revokes a forwarded call or stream whose caller gave up
// (context cancel, deadline expiry, a closed stream handle). The caller-side
// record is dropped immediately — a late reply, chunk or end finds nothing —
// and a FrameCancel rides to the callee so its serving slot, or its stream
// producer, is reclaimed right away too. No answer flows back: by the time a
// cancel reaches the gateway the caller has already settled.
func (n *Node) cancelForward(m bus.Message) {
	key := callKey{src: m.Src, corr: m.Corr}
	n.imu.Lock()
	ref, ok := n.inflight[key]
	if ok {
		delete(n.inflight, key)
	}
	n.imu.Unlock()
	if !ok {
		return // already answered, expired in egress, or never forwarded
	}
	if pc, ok := ref.p.takePending(ref.corr); ok {
		n.closeForwardSpan(ref.p, &pc, telemetry.OutcomeCancelled)
	}
	if !ref.p.down.Load() {
		ref.p.egress.enqueue(&egressItem{kind: wire.FrameCancel, corr: ref.corr})
	}
}

// livePeer returns the linked, not-down peer with the given id, or nil.
func (n *Node) livePeer(id string) *peer {
	if id == "" {
		return nil
	}
	n.mu.Lock()
	p := n.peers[id]
	n.mu.Unlock()
	if p == nil || p.down.Load() {
		return nil
	}
	return p
}

// migrateHook is the core.Migrator registered on the system: it intercepts
// Migrate calls whose target names a live peer.
func (n *Node) migrateHook(component string, to netsim.NodeID) (bool, error) {
	p := n.livePeer(string(to))
	if p == nil {
		return false, nil // not a cluster peer; fall through to the topology path
	}
	return true, n.migrateTo(component, p)
}

// migrateTo runs the origin half of the cross-node migration protocol
// against a live peer (see core.MigrateOut for the sequence and its
// rollback guarantees).
func (n *Node) migrateTo(component string, p *peer) error {
	ship := func(h core.Handoff) error {
		corr := p.corr.Add(1)
		ack := make(chan string, 1)
		p.addMig(corr, ack)
		defer p.dropMig(corr)
		err := p.send(func(e *wire.Encoder) error {
			return e.Encode(wire.FrameMigrate, &wire.Migrate{
				Corr: corr, Component: h.Component,
				Implements: h.Decl.Implements, Properties: h.Decl.Properties,
				CPU: h.CPU, HasState: h.HasState, State: h.State,
			})
		})
		if err != nil {
			return err
		}
		select {
		case msg := <-ack:
			if msg != "" {
				return errors.New(msg)
			}
			return nil
		case <-time.After(n.opts.MigrateTimeout):
			return fmt.Errorf("cluster: %s: adoption ack timed out", p.id)
		case <-n.ctx.Done():
			return ErrClosed
		}
	}
	rebind := func() error {
		n.mu.Lock()
		n.owners[component] = p.id
		n.ownersAt[component] = time.Now()
		n.mu.Unlock()
		return n.attachGateway(component)
	}
	return n.sys.MigrateOut(component, netsim.NodeID(p.id), ship, rebind)
}

// adopt runs the destination half: it swaps this node's gateway (if any)
// for a real instance built from the local registry. On failure the gateway
// is re-attached so forwarding toward the still-running origin resumes.
func (n *Node) adopt(decl adl.ComponentDecl, state []byte, hasState bool) error {
	removed := false
	err := n.sys.AdoptComponent(decl, state, hasState, func() {
		removed = n.removeGateway(decl.Name)
	})
	if err != nil && removed && !n.sys.HasComponent(decl.Name) {
		if aerr := n.attachGateway(decl.Name); aerr != nil {
			n.opts.Logf("cluster %s: re-attach gateway for %s: %v", n.id, decl.Name, aerr)
		}
	}
	return err
}

// AdoptLocal promotes a component currently served through a gateway to a
// local instance built from this node's registry — the failover path an
// EvPeerDown trigger uses when the hosting peer died. When this node holds
// a fresh warm-standby snapshot for the component (shipped by the dead
// host's replicator) the instance restarts from it — the warm promotion;
// without one the component restarts from its config default and a
// distinct EvStateLost marks the loss on the RAML stream, so operators and
// tests can tell a lossless failover from a lossy one.
func (n *Node) AdoptLocal(component string) error {
	decl, ok := n.sys.Config().Component(component)
	if !ok {
		return fmt.Errorf("cluster: adopt-local %s: not declared here", component)
	}
	sb, warm := n.takeStandby(component)
	var state []byte
	if warm {
		state = sb.state
	}
	if err := n.adopt(decl, state, warm); err != nil {
		// Ownership untouched: if the hosting peer is in fact alive, the
		// still-attached gateway keeps forwarding to it.
		if warm {
			// The snapshot was consumed from the table but not used; put it
			// back so a retry can still promote warm.
			n.smu.Lock()
			if _, exists := n.standbys[component]; !exists {
				n.standbys[component] = sb
			}
			n.smu.Unlock()
		}
		return err
	}
	n.mu.Lock()
	delete(n.owners, component)
	n.ownersAt[component] = time.Now()
	n.mu.Unlock()
	if warm {
		n.opts.Logf("cluster %s: promoted %s warm (seq %d, %d bytes)",
			n.id, component, sb.seq, len(sb.state))
	} else if _, serr := n.sys.SnapshotComponent(component); serr == nil {
		// Only a capturable (stateful) component adopted cold actually lost
		// anything; a stateless one restarts from nothing by design.
		n.sys.Events().Emit(core.Event{Kind: core.EvStateLost, At: n.sys.Now(),
			Component: component, Detail: "no warm standby: restarted from config default"})
	}
	n.announce(wire.Announce{Add: true, Component: component}, "")
	return nil
}

// announce broadcasts an ownership change to every linked peer except the
// named one.
func (n *Node) announce(a wire.Announce, except string) {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for id, p := range n.peers {
		if id != except {
			peers = append(peers, p)
		}
	}
	n.mu.Unlock()
	for _, p := range peers {
		if err := p.send(func(e *wire.Encoder) error { return e.Encode(wire.FrameAnnounce, &a) }); err != nil {
			n.opts.Logf("cluster %s: announce to %s: %v", n.id, p.id, err)
		}
	}
}

// handleAnnounce updates ownership from a peer's broadcast.
func (n *Node) handleAnnounce(p *peer, a wire.Announce) {
	if a.Add {
		n.learnOwner(a.Component, p.id)
		return
	}
	n.mu.Lock()
	if n.owners[a.Component] == p.id {
		delete(n.owners, a.Component)
		n.ownersAt[a.Component] = time.Now()
	}
	n.mu.Unlock()
}

// watchdogLoop declares peers down after FailAfter of silence, promotes
// suspicions that outlived their refute window to dead, and dials alive
// members gossip says we should be linked to but are not.
func (n *Node) watchdogLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			cutoff := time.Now().Add(-n.opts.FailAfter).UnixNano()
			n.mu.Lock()
			stale := make([]*peer, 0, 1)
			for _, p := range n.peers {
				if p.lastSeen.Load() < cutoff {
					stale = append(stale, p)
				}
			}
			n.mu.Unlock()
			for _, p := range stale {
				n.peerDown(p, "heartbeat timeout")
			}
			for _, id := range n.membership.sweep(n.opts.SuspectAfter) {
				n.memberDead(id, "suspicion unrefuted")
			}
			for _, tgt := range n.membership.dialCandidates(n.linkedIDs()) {
				n.dialMember(tgt)
			}
		}
	}
}

// dialMember joins a gossip-discovered member in the background.
func (n *Node) dialMember(t dialTarget) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := n.Join(t.addr); err != nil {
			n.opts.Logf("cluster %s: auto-dial %s (%s): %v", n.id, t.id, t.addr, err)
		}
	}()
}

// memberDead emits the converged failure verdict for one member: EvPeerDown
// on the RAML stream, which failover triggers react to.
func (n *Node) memberDead(id, reason string) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	n.opts.Logf("cluster %s: member %s dead (%s)", n.id, id, reason)
	n.sys.Events().Emit(core.Event{Kind: core.EvPeerDown, At: n.sys.Now(),
		Component: id, Detail: reason})
}

// handleGossip merges one received view and applies its side effects:
// EvPeerDown for members the merge declared dead, ownership learned from
// alive entries, and dials toward discovered members.
func (n *Node) handleGossip(p *peer, g wire.Gossip) {
	eff := n.membership.merge(g, n.linkedIDs())
	for _, id := range eff.newlyDead {
		n.memberDead(id, "gossip: declared dead by "+p.id)
	}
	// Gossiped self entries are built from a cached load meter, so for up to
	// that cache window a host that just migrated a component away (or had
	// it adopted out from under it) still advertises it. A claim that
	// contradicts an ownership record younger than the stale-claim window is
	// therefore presumed stale and dropped; once the window passes, only the
	// real owner keeps claiming the component and the view converges.
	staleClaim := 2 * n.opts.Heartbeat
	for _, cl := range eff.claims {
		if cl.owner == n.id {
			continue
		}
		n.mu.Lock()
		known := n.owners[cl.comp] == cl.owner
		fresh := time.Since(n.ownersAt[cl.comp]) < staleClaim
		n.mu.Unlock()
		if !known && !fresh {
			n.learnOwner(cl.comp, cl.owner)
		}
	}
	for _, tgt := range eff.dialable {
		n.dialMember(tgt)
	}
}

// peerDown tears a peer link down exactly once: the connection closes, its
// pending remote calls fail fast (the caller sees an error, not a hung
// timeout), waiting migrations abort. A lost link only makes the member
// suspect — EvPeerDown waits for converged suspicion (sweep or merged gossip)
// so one flaky link cannot trigger cluster-wide failover. Gateways toward
// the dead peer stay attached — new calls get immediate error replies until
// an announce or adoption repoints or replaces them.
func (n *Node) peerDown(p *peer, reason string) {
	if !p.down.CompareAndSwap(false, true) {
		return
	}
	p.conn.Close()
	n.mu.Lock()
	if n.peers[p.id] == p {
		delete(n.peers, p.id)
	}
	closed := n.closed
	n.mu.Unlock()
	p.failAll("cluster: peer " + p.id + " down: " + reason)
	if closed {
		return
	}
	n.membership.suspect(p.id)
	n.opts.Logf("cluster %s: link to %s lost (%s), member suspect", n.id, p.id, reason)
}

// Close stops the node: the migration hook is removed, the listener and all
// peer links close, gateways detach (their addresses keep parking traffic),
// and every pump goroutine exits. The underlying system keeps running;
// stopping it is the caller's job.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	gws := make([]*gateway, 0, len(n.gateways))
	for _, g := range n.gateways {
		gws = append(gws, g)
	}
	n.gateways = map[string]*gateway{}
	n.mu.Unlock()

	n.sys.SetMigrator(nil)
	n.cancel()
	n.ln.Close()
	for _, p := range peers {
		n.peerDown(p, "node closed")
	}
	for _, g := range gws {
		n.detachGateway(g)
	}
	n.wg.Wait()
}
