package telemetry

// SchemaVersion identifies the Snapshot wire/JSON schema. Bump it whenever
// a field changes meaning or moves; additions are backward compatible and
// do not bump it.
const SchemaVersion = 1

// Snapshot is the unified metrics view of one node: every operational
// counter the layers accumulate — bus conservation, admission estimator
// state, shed counts, per-link batching and liveness, stream occupancy,
// QoS percentiles, recorder health — gathered into a single versioned
// struct. core.System fills the node-local sections; cluster.Node adds the
// per-link sections. The struct is plain data (JSON-encodable as-is) so the
// aasd -obs endpoint serves it directly and the placement plane can consume
// it without touching internal packages.
type Snapshot struct {
	Schema     int    `json:"schema"`
	Node       string `json:"node"`
	TakenNanos int64  `json:"taken_nanos"`

	Bus         BusCounters        `json:"bus"`
	Events      EventCounters      `json:"events"`
	Streams     StreamCounters     `json:"streams"`
	Spans       SpanCounters       `json:"spans"`
	QoS         map[string]float64 `json:"qos,omitempty"`
	Admission   []AdmissionState   `json:"admission,omitempty"`
	Links       []LinkState        `json:"links,omitempty"`
	GatewayShed uint64             `json:"gateway_shed"`

	// Elastic-plane sections (cluster.Node fills these).
	Members     []MemberState      `json:"members,omitempty"`
	Replication []ReplicationState `json:"replication,omitempty"`
	Standbys    []StandbyState     `json:"standbys,omitempty"`
}

// BusCounters is the software bus's conservation ledger. When the bus is
// quiescent, Sent == Delivered + Dropped + Held (DESIGN.md §2).
type BusCounters struct {
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Held      uint64 `json:"held"`
	InFlight  uint64 `json:"in_flight"`
	Redirects uint64 `json:"redirects"`
}

// EventCounters is the event hub's delivery ledger.
type EventCounters struct {
	Published uint64 `json:"published"`
	Dropped   uint64 `json:"dropped"`
}

// StreamCounters reports the stream plane's occupancy and shedding.
type StreamCounters struct {
	Pending   int    `json:"pending"` // open client-side stream tables
	Active    int    `json:"active"`  // running server-side producers
	ShedItems uint64 `json:"shed_items"`
}

// SpanCounters reports recorder health so a reader can tell thin data from
// no data: SampleRate 0 means tracing is off, Lost > 0 means slot-claim
// collisions dropped spans.
type SpanCounters struct {
	Recorded   uint64 `json:"recorded"`
	Lost       uint64 `json:"lost"`
	Roots      uint64 `json:"roots"`
	SampleRate int    `json:"sample_rate"`
}

// AdmissionState is one component's admission-control estimator: the EWMA
// per-request service estimate it admits against, and its ledger.
type AdmissionState struct {
	Component     string  `json:"component"`
	EstimateNanos float64 `json:"estimate_nanos"`
	Admitted      uint64  `json:"admitted"`
	Rejected      uint64  `json:"rejected"`
}

// LinkState is one peer link's health: negotiated wire version, batching
// efficiency, and heartbeat liveness (nanoseconds since the last frame was
// read from the peer; -1 when never).
type LinkState struct {
	Peer           string `json:"peer"`
	WireVersion    int    `json:"wire_version"`
	BatchWrites    uint64 `json:"batch_writes"`
	BatchFrames    uint64 `json:"batch_frames"`
	LastSeenNanos  int64  `json:"last_seen_nanos"`
	SinceSeenNanos int64  `json:"since_seen_nanos"`
	Down           bool   `json:"down"`
}

// MemberState is one row of the gossip membership view: liveness verdict,
// gossiped load, and the components the member hosts.
type MemberState struct {
	ID          string   `json:"id"`
	Addr        string   `json:"addr,omitempty"`
	Status      string   `json:"status"`
	Incarnation uint64   `json:"incarnation"`
	Version     uint64   `json:"version"`
	Load        float64  `json:"load"`
	Components  []string `json:"components,omitempty"`
}

// ReplicationState is the outbound warm-standby bookkeeping for one
// component this node replicates: where the snapshots go and how far the
// follower's acknowledgements lag behind what was shipped.
type ReplicationState struct {
	Component   string `json:"component"`
	Follower    string `json:"follower,omitempty"`
	ShippedSeq  uint64 `json:"shipped_seq"`
	AckedSeq    uint64 `json:"acked_seq"`
	AckAgeNanos int64  `json:"ack_age_nanos"` // -1 when never acked
	Bytes       int    `json:"bytes"`
	LastError   string `json:"last_error,omitempty"`
}

// StandbyState is one warm snapshot this node holds for a peer's component,
// ready for promotion on that peer's death.
type StandbyState struct {
	Component string `json:"component"`
	Origin    string `json:"origin"`
	Seq       uint64 `json:"seq"`
	Bytes     int    `json:"bytes"`
	AgeNanos  int64  `json:"age_nanos"`
}
