// Package proxy implements the SQL enforcement proxy of the paper's
// §2.2: a network server that intercepts each application-issued
// query, vets it against the policy with the compliance checker
// (considering the session's query history), and either forwards it to
// the database engine as-is or blocks it outright.
//
// The wire protocol is line-delimited JSON over TCP: one Request per
// line from the client, exactly one Response line back for each.
// Sessions are established with a "hello" carrying the principal's
// attributes (e.g. MyUId), which bind the policy's parameters.
//
// # Pipelining
//
// Every connection pipelines from its first line; there is no serial
// mode and nothing to negotiate:
//
//   - A request may carry a client-assigned ID, echoed in its
//     response. Responses may return OUT OF ORDER across sessions; a
//     client that sends several lines without waiting gives them IDs
//     and demuxes by ID. A client that waits for each response needs
//     no IDs.
//   - A connection multiplexes independent sessions ("lanes") keyed
//     by the request's SID; lane 0 is the default session. Requests
//     within one session execute, and answer, strictly in arrival
//     order — the history-dependence of compliance decisions requires
//     it — while different sessions' checks run concurrently.
//   - The read loop answers "stats", "cancel" and malformed lines
//     itself, ahead of queued session work.
//   - The server stops reading when Server.MaxInFlight requests are
//     queued or executing (TCP backpressure).
//   - "batch" submits sub-requests (query/exec) in one round trip;
//     they execute in order on the batch's session and return one
//     sub-response each, in order, inside the enclosing response. A
//     blocked or failing sub-query does not abort the rest.
//   - "cancel" (Target = an in-flight request ID) cancels that
//     request's context; the canceled request responds with the
//     "canceled" error code. The cancel itself is always answered.
//   - Per-request TimeoutMillis bounds queueing plus execution.
//   - Error responses carry a stable machine-readable Code (see
//     internal/acerr) alongside the human-readable Error string.
//   - A "hello" with MaxProto >= 2 gets Proto 2 back, so clients that
//     negotiate before pipelining still do.
package proxy

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

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

// ProtoV2 is the protocol version a hello with MaxProto >= 2 is
// answered with: pipelining, session lanes, batch, and cancel, which
// every connection has from its first line.
const ProtoV2 = 2

// Request is one client message.
type Request struct {
	// Op is "hello", "query", "exec", "stats", "batch", or "cancel".
	Op string `json:"op"`
	// ID is the client-assigned sequence number, echoed in the
	// response; 0 means "no ID" (a client that waits for each answer).
	ID uint64 `json:"id,omitempty"`
	// SID selects the session lane this request executes on. Lane 0
	// is the connection's default session.
	SID uint64 `json:"sid,omitempty"`
	// MaxProto, on "hello", is the highest protocol version the client
	// speaks; the server answers with the negotiated version.
	MaxProto int `json:"maxProto,omitempty"`
	// Name, on "hello", declares a durable session: when the server
	// runs with a WAL, the session's query history is persisted under
	// this name and restored across proxy restarts. Empty means an
	// ephemeral session. Ignored when the server has
	// no WAL.
	Name string `json:"name,omitempty"`
	// Session attributes for "hello" (policy parameter values).
	Session map[string]any `json:"session,omitempty"`
	// SQL and arguments for "query"/"exec".
	SQL   string         `json:"sql,omitempty"`
	Args  []any          `json:"args,omitempty"`
	Named map[string]any `json:"named,omitempty"`
	// Sink, set by pgwire, takes a query's rows in place of Response.Rows,
	// as engine.DB.QueryEach's emit does (under its lock, in its buffer).
	Sink func(row []sqlvalue.Value) `json:"-"`
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
	// RID is the server-minted request id of a statement, unique and
	// increasing across every ingress of the Server; the slow log, shadow
	// diffs and pgwire error details name it. It is minted where the
	// statement enters (dispatch, statement) and never travels on the
	// v2 wire.
	RID uint64 `json:"-"`
}

// Response is one server message.
type Response struct {
	// ID echoes the request's sequence number.
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
	Restored int      `json:"restored,omitempty"`
	Blocked  bool     `json:"blocked,omitempty"`
	Reason   string   `json:"reason,omitempty"`
	Views    []string `json:"views,omitempty"`
	Columns  []string `json:"columns,omitempty"`
	// Rows are the result rows as the engine returned them, unless the
	// request's Sink took them; a kept trace entry shares them.
	Rows     [][]sqlvalue.Value `json:"rows,omitempty"`
	Affected int                `json:"affected,omitempty"`
	// Metrics, on a "stats" response, is the server's metrics registry
	// snapshot (obsv.Registry.Snapshot): what acproxy -metrics serves.
	Metrics map[string]any `json:"metrics,omitempty"`
	// Policy reports the policy lifecycle state (policy.* ops).
	Policy *PolicyBody `json:"policy,omitempty"`
	// Batch holds sub-responses of a "batch" op, in request order.
	Batch []Response `json:"batch,omitempty"`
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
// structured log, and a bounded ring retains the most recent ones for
// policy.diff polling.
type ShadowDiff struct {
	// Seq orders diffs; the ring evicts oldest-first, so gaps in Seq
	// tell a poller it missed records.
	Seq uint64 `json:"seq"`
	// RID is the diverging statement's request id.
	RID     uint64 `json:"rid"`
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

// TypeAttr types an attribute that arrives as text by affinity: an
// integer, else a float, else a boolean (true/t, false/f, any case),
// else the text itself. pgwire types attr.* startup parameters and
// untyped (OID 0) parameters with it, and the database/sql driver its
// DSN attributes, so the same principal keys the same decisions on
// every surface; the result decodes as a v2 JSON attribute does.
func TypeAttr(s string) any {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	switch strings.ToLower(s) {
	case "true", "t":
		return true
	case "false", "f":
		return false
	}
	return s
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
