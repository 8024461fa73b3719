// Package proxy implements the SQL enforcement proxy of the paper's
// §2.2: a network server that intercepts each application-issued
// query, vets it against the policy with the compliance checker
// (considering the session's query history), and either forwards it to
// the database engine as-is or blocks it outright.
//
// The wire protocol is line-delimited JSON over TCP: one Request per
// line from the client, one Response per line back. Sessions are
// established with a "hello" carrying the principal's attributes
// (e.g. MyUId), which bind the policy's parameters.
//
// # Protocol v2 (pipelining)
//
// A client that sends "hello" with MaxProto >= 2 upgrades the
// connection to protocol v2, negotiated in the hello response's Proto
// field. Under v2:
//
//   - Every request carries a client-assigned sequence ID, echoed in
//     its response. Responses may return OUT OF ORDER; clients demux
//     by ID.
//   - A connection multiplexes independent sessions ("lanes") keyed
//     by the request's SID. Requests within one session are executed
//     strictly in arrival order — the history-dependence of compliance
//     decisions requires it — while different sessions' checks run
//     concurrently on a bounded per-connection worker pool.
//   - The server stops reading when Server.MaxInFlight requests are
//     queued or executing (TCP backpressure).
//   - "batch" submits sub-requests (query/exec) in one round trip;
//     they execute in order on the batch's session and return one
//     sub-response each, in order, inside the enclosing response. A
//     blocked or failing sub-query does not abort the rest.
//   - "cancel" (Target = an in-flight request ID) cancels that
//     request's context; the canceled request responds with the
//     "canceled" error code.
//   - Per-request TimeoutMillis bounds queueing plus execution.
//   - Error responses carry a stable machine-readable Code (see
//     internal/acerr) alongside the human-readable Error string.
//
// v1 clients are untouched: without the MaxProto >= 2 hello the
// server keeps the serial read-handle-respond loop, in-order
// responses, and v1 response shapes.
package proxy

import (
	"encoding/json"
	"fmt"

	"repro/internal/sqlvalue"
)

// Mode selects the proxy's enforcement behaviour.
type Mode int

// Enforcement modes.
const (
	// Enforce blocks non-compliant queries.
	Enforce Mode = iota
	// LogOnly decides but always forwards, recording violations.
	LogOnly
	// Off forwards everything without deciding.
	Off
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Enforce:
		return "enforce"
	case LogOnly:
		return "log-only"
	case Off:
		return "off"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Protocol versions. ProtoV1 is the implicit version of clients that
// never negotiate; ProtoV2 adds pipelining, sessions lanes, batch,
// and cancel.
const (
	ProtoV1 = 1
	ProtoV2 = 2
)

// Request is one client message.
type Request struct {
	// Op is "hello", "query", "exec", "stats", "batch", or "cancel".
	Op string `json:"op"`
	// ID is the client-assigned sequence number (v2). Echoed in the
	// response; 0 means "no ID" (v1 clients).
	ID uint64 `json:"id,omitempty"`
	// SID selects the session lane this request executes on (v2).
	// Lane 0 is the connection's default session.
	SID uint64 `json:"sid,omitempty"`
	// MaxProto, on "hello", is the highest protocol version the client
	// speaks; the server answers with the negotiated version.
	MaxProto int `json:"maxProto,omitempty"`
	// Name, on "hello", declares a durable session: when the server
	// runs with a WAL, the session's query history is persisted under
	// this name and restored across proxy restarts. Empty means an
	// ephemeral session (the v1 behaviour). Ignored when the server has
	// no WAL.
	Name string `json:"name,omitempty"`
	// Session attributes for "hello" (policy parameter values).
	Session map[string]any `json:"session,omitempty"`
	// SQL and arguments for "query"/"exec".
	SQL   string         `json:"sql,omitempty"`
	Args  []any          `json:"args,omitempty"`
	Named map[string]any `json:"named,omitempty"`
	// Batch holds the sub-requests of a "batch" op (query/exec only).
	Batch []Request `json:"batch,omitempty"`
	// Views, on "policy.stage", carries the candidate policy's view SQL
	// by name. On "policy.diff", Target is the last diff sequence the
	// client has seen (only newer records return).
	Views map[string]string `json:"views,omitempty"`
	// Target is the in-flight request ID a "cancel" op aborts, or the
	// after-sequence cursor of a "policy.diff".
	Target uint64 `json:"target,omitempty"`
	// TimeoutMillis bounds this request's queueing plus execution; 0
	// means no per-request deadline.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`

	// Cluster fields (cluster.* ops between peer nodes; DESIGN.md §16).
	// Node identifies the sending node; Epoch its membership epoch.
	// Term and TTLMillis carry the lease a shipping owner asserts on
	// "cluster.ship"; Ship is the shipped WAL record batch.
	Node      string       `json:"node,omitempty"`
	Epoch     uint64       `json:"epoch,omitempty"`
	Term      uint64       `json:"term,omitempty"`
	TTLMillis int64        `json:"ttlMillis,omitempty"`
	Ship      []ShipRecord `json:"ship,omitempty"`
}

// ShipRecord is one WAL record in flight between cluster peers: the
// session it belongs to, the durable record type byte, and the exact
// payload bytes the owner's WAL logged (base64 on the wire).
type ShipRecord struct {
	Session string `json:"session"`
	Type    byte   `json:"type"`
	Payload []byte `json:"payload"`
}

// Response is one server message.
type Response struct {
	// ID echoes the request's sequence number (v2).
	ID uint64 `json:"id,omitempty"`
	OK bool   `json:"ok"`
	// Proto, on a hello response, is the negotiated protocol version.
	Proto int    `json:"proto,omitempty"`
	Error string `json:"error,omitempty"`
	// Code is the stable machine-readable error code (internal/acerr
	// wire codes); set alongside Error, and to "blocked" on policy
	// blocks.
	Code string `json:"code,omitempty"`
	// Restored, on a durable hello response, is how many history
	// entries the session came back with from the WAL.
	Restored int        `json:"restored,omitempty"`
	Blocked  bool       `json:"blocked,omitempty"`
	Reason   string     `json:"reason,omitempty"`
	Views    []string   `json:"views,omitempty"`
	Columns  []string   `json:"columns,omitempty"`
	Rows     [][]any    `json:"rows,omitempty"`
	Affected int        `json:"affected,omitempty"`
	Stats    *StatsBody `json:"stats,omitempty"`
	// Policy reports the policy lifecycle state (policy.* ops).
	Policy *PolicyBody `json:"policy,omitempty"`
	// Batch holds sub-responses of a "batch" op, in request order.
	Batch []Response `json:"batch,omitempty"`
	// Cluster reports cluster state (cluster.* ops).
	Cluster *ClusterBody `json:"cluster,omitempty"`
}

// ClusterBody is the payload of the cluster.* ops: this node's
// identity and membership view, the sessions it serves vs forwards,
// ship-stream accounting, and the leases it currently holds as a
// follower.
type ClusterBody struct {
	Self     string `json:"self"`
	Epoch    uint64 `json:"epoch"`
	Draining bool   `json:"draining,omitempty"`

	Members []MemberStatus `json:"members,omitempty"`
	Leases  []LeaseStatus  `json:"leases,omitempty"`

	// Session placement: hellos served locally vs forwarded to an
	// owner, and the queries relayed over forwarded sessions.
	LocalSessions     int64 `json:"localSessions,omitempty"`
	ForwardedSessions int64 `json:"forwardedSessions,omitempty"`
	ForwardedOps      int64 `json:"forwardedOps,omitempty"`
	ForwardErrors     int64 `json:"forwardErrors,omitempty"`

	// Ship-stream accounting (this node as an owner): records and bytes
	// enqueued for followers, acknowledged by them, and dropped under
	// backpressure. Lag is enqueued minus acknowledged.
	ShipEnqueued int64 `json:"shipEnqueued,omitempty"`
	ShipAcked    int64 `json:"shipAcked,omitempty"`
	ShipDropped  int64 `json:"shipDropped,omitempty"`
	ShipBytes    int64 `json:"shipBytes,omitempty"`

	// Takeovers counts sessions this node adopted after an owner's
	// lease expired.
	Takeovers int64 `json:"takeovers,omitempty"`
}

// MemberStatus is one peer in a node's membership view.
type MemberStatus struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	Self     bool   `json:"self,omitempty"`
	Alive    bool   `json:"alive"`
	Draining bool   `json:"draining,omitempty"`
	// Epoch is the member's own epoch as last reported by its probe
	// response (0 until first contact).
	Epoch uint64 `json:"epoch,omitempty"`
}

// LeaseStatus is one lease this node holds as a follower: it accepts
// shipped records from Origin under Term until the lease expires.
type LeaseStatus struct {
	Origin string `json:"origin"`
	Term   uint64 `json:"term"`
	// ExpiresInMillis is the remaining validity (negative: expired).
	ExpiresInMillis int64 `json:"expiresInMillis"`
}

// PolicyBody is the payload of the policy.* admin ops: the resident
// policy versions (the enforcing active and, when a shadow trial is
// running, the staged candidate), the cumulative shadow counters, and
// — for policy.diff — recent divergence records.
type PolicyBody struct {
	ActiveEpoch       uint64 `json:"activeEpoch"`
	ActiveFingerprint string `json:"activeFingerprint"`
	ActiveViews       int    `json:"activeViews"`

	Staged               bool   `json:"staged"`
	CandidateEpoch       uint64 `json:"candidateEpoch,omitempty"`
	CandidateParent      uint64 `json:"candidateParent,omitempty"`
	CandidateFingerprint string `json:"candidateFingerprint,omitempty"`
	CandidateViews       int    `json:"candidateViews,omitempty"`
	// CandidateVersionID is the WAL-scoped version id of the staged
	// candidate (0 when the proxy runs without durability).
	CandidateVersionID uint64 `json:"candidateVersionId,omitempty"`

	// Shadow accounting (cumulative across trials): dual-decides
	// executed, divergences total and by kind, and the newest diff
	// sequence issued so far (the cursor a policy.diff resumes from).
	ShadowDecides  int64  `json:"shadowDecides,omitempty"`
	Divergences    int64  `json:"divergences,omitempty"`
	DivergeTighten int64  `json:"divergeTighten,omitempty"`
	DivergeLoosen  int64  `json:"divergeLoosen,omitempty"`
	LastDiffSeq    uint64 `json:"lastDiffSeq,omitempty"`

	// Diffs holds divergence records newer than the request's Target
	// cursor (policy.diff only), oldest first.
	Diffs []ShadowDiff `json:"diffs,omitempty"`
}

// ShadowDiff is one dual-decide divergence: a live query the active
// and candidate policies decided differently. Records stream to the
// structured log and to subscribers, and a bounded ring retains the
// most recent ones for policy.diff polling.
type ShadowDiff struct {
	// Seq orders diffs; the ring evicts oldest-first, so gaps in Seq
	// tell a poller it missed records.
	Seq     uint64 `json:"seq"`
	SQL     string `json:"sql"`
	Session string `json:"session,omitempty"`
	// Active / Shadow are the two verdicts; Kind classifies the
	// divergence ("tighten": active allows, candidate blocks;
	// "loosen": the reverse).
	ActiveAllowed bool   `json:"activeAllowed"`
	ShadowAllowed bool   `json:"shadowAllowed"`
	ActiveReason  string `json:"activeReason,omitempty"`
	ShadowReason  string `json:"shadowReason,omitempty"`
	Kind          string `json:"kind"`
	ActiveEpoch   uint64 `json:"activeEpoch,omitempty"`
	ShadowEpoch   uint64 `json:"shadowEpoch,omitempty"`
}

// StatsBody reports server counters over the wire: decision counts,
// cache effectiveness (decision templates and the per-session
// trace-fact cache), recent-window latency percentiles, and
// connection accounting.
type StatsBody struct {
	Queries    int `json:"queries"`
	Decisions  int `json:"decisions"`
	Allowed    int `json:"allowed"`
	Blocked    int `json:"blocked"`
	CacheHits  int `json:"cacheHits"`
	Violations int `json:"violations"` // log-only mode

	// Cache effectiveness.
	CacheHitRate          float64 `json:"cacheHitRate"`
	CacheEntries          int     `json:"cacheEntries"`
	FactEntriesReused     uint64  `json:"factEntriesReused"`
	FactEntriesTranslated uint64  `json:"factEntriesTranslated"`
	FactCacheHitRate      float64 `json:"factCacheHitRate"`

	// Cold-path effectiveness: candidate policy views the compiled
	// index searched vs pruned before any embedding search.
	ColdViewsKept   int     `json:"coldViewsKept"`
	ColdViewsPruned int     `json:"coldViewsPruned"`
	ColdPruneRatio  float64 `json:"coldPruneRatio"`

	// Latency over the recent-query window, in microseconds.
	LatencyP50Micros  int64   `json:"latencyP50Micros"`
	LatencyP90Micros  int64   `json:"latencyP90Micros"`
	LatencyP99Micros  int64   `json:"latencyP99Micros"`
	LatencyMeanMicros float64 `json:"latencyMeanMicros"`
	LatencySamples    int     `json:"latencySamples"`

	// Connection accounting.
	ActiveConns   int `json:"activeConns"`
	TotalConns    int `json:"totalConns"`
	RejectedConns int `json:"rejectedConns"`
	// CanceledReqs counts in-flight requests aborted by a v2 "cancel"
	// op.
	CanceledReqs int `json:"canceledReqs,omitempty"`

	// Inline fast path and write coalescing (v2): queries executed on
	// the read goroutine (warm lane-idle hits), warm probes that fell
	// back to the lane queue, response frames encoded, and flush
	// syscalls issued — frames/flushes is the write batching factor.
	InlineHits   int `json:"inlineHits,omitempty"`
	InlineBypass int `json:"inlineBypass,omitempty"`
	WriteFrames  int `json:"writeFrames,omitempty"`
	WriteFlushes int `json:"writeFlushes,omitempty"`

	// Durability (WAL) accounting; zero / absent when the proxy runs
	// without a WAL.
	WALEnabled       bool  `json:"walEnabled,omitempty"`
	WALAppends       int64 `json:"walAppends,omitempty"`
	WALBatches       int64 `json:"walBatches,omitempty"`
	WALFsyncs        int64 `json:"walFsyncs,omitempty"`
	WALAppendedBytes int64 `json:"walAppendedBytes,omitempty"`
	WALCheckpoints   int64 `json:"walCheckpoints,omitempty"`
	// WALRecoveredSessions / WALRecoveredEntries report what the last
	// Open replayed from disk.
	WALRecoveredSessions int `json:"walRecoveredSessions,omitempty"`
	WALRecoveredEntries  int `json:"walRecoveredEntries,omitempty"`
}

// encodeRows converts engine values to JSON-friendly values.
func encodeRows(rows [][]sqlvalue.Value) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = v.Any()
		}
		out[i] = row
	}
	return out
}

// decodeValues converts JSON-decoded values to engine values.
// encoding/json decodes numbers as float64; integral floats become
// INTEGERs to keep key comparisons exact.
func decodeValues(vals []any) ([]sqlvalue.Value, error) {
	out := make([]sqlvalue.Value, len(vals))
	for i, v := range vals {
		sv, err := decodeValue(v)
		if err != nil {
			return nil, err
		}
		out[i] = sv
	}
	return out, nil
}

func decodeValue(v any) (sqlvalue.Value, error) {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return sqlvalue.NewInt(int64(x)), nil
		}
		return sqlvalue.NewReal(x), nil
	case json.Number:
		// Normally normalized away by the wire decoders; handled here
		// so a stray Number from any other decode path stays exact.
		return decodeValue(normalizeWireNumber(x))
	}
	return sqlvalue.FromAny(v)
}
