// Package beyond is the public API of the access-control toolkit
// built around Zhang, Panda & Shenker, "Access Control for Database
// Applications: Beyond Policy Enforcement" (HotOS '23). It covers the
// full life-cycle the paper lays out:
//
//   - Enforcement (§2.2): a Blockaid-style compliance Checker and a
//     network Proxy that allow a query as-is or block it, considering
//     the session's query history.
//   - Policy creation (§3): Extract policies from application code by
//     symbolic execution, or Mine them from black-box query traces
//     with hints and active probing.
//   - Policy evaluation (§4): Audit a policy against sensitive queries
//     with the prior-agnostic PQI/NQI criteria, k-anonymity, and an
//     exact Bayesian baseline.
//   - Violation diagnosis (§5): Diagnose blocked queries with
//     counterexamples, contained rewritings, synthesized access
//     checks, and policy patches.
//
// The toolkit is self-contained: it ships its own SQL parser,
// in-memory relational engine, conjunctive-query reasoner, and model
// applications (see internal/ and DESIGN.md).
//
// Quick start:
//
//	sch := beyond.NewSchema().
//		Table("Attendance").
//		NotNullCol("UId", beyond.Int).
//		NotNullCol("EId", beyond.Int).
//		PK("UId", "EId").Done().
//		MustBuild()
//	db := beyond.NewDB(sch)
//	pol := beyond.MustNewPolicy(sch, map[string]string{
//		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
//	})
//	chk := beyond.NewChecker(pol)
//	d, _ := chk.CheckSQL(context.Background(),
//		"SELECT EId FROM Attendance WHERE UId = 1",
//		beyond.Args(), beyond.Session(map[string]any{"MyUId": 1}), nil)
//	fmt.Println(d.Allowed)
//
// Every public entry point that can do nontrivial work takes a
// context.Context first; cancellation aborts compliance checks,
// engine scans, counterexample search, and audits mid-decision.
// Failures surface as typed errors — errors.Is(err, beyond.ErrBlocked
// / ErrParse / ErrTooManyConns / ErrCanceled).
package beyond

import (
	"context"
	"time"

	"repro/internal/acerr"
	"repro/internal/appdsl"
	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/checker"
	"repro/internal/diagnose"
	"repro/internal/disclosure"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/obsv"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Core value and schema types.
type (
	// Value is a typed SQL value.
	Value = sqlvalue.Value
	// Schema describes tables, keys, and foreign keys.
	Schema = schema.Schema
	// SchemaBuilder declares schemas fluently.
	SchemaBuilder = schema.Builder
	// DB is the in-memory relational engine.
	DB = engine.DB
	// Result is a query result set.
	Result = engine.Result
	// Row is one stored tuple.
	Row = engine.Row
)

// Column type constants.
const (
	Int  = sqlvalue.Int
	Real = sqlvalue.Real
	Text = sqlvalue.Text
	Bool = sqlvalue.Bool
)

// Policy and enforcement types.
type (
	// Policy is an allow-list of parameterized SQL views.
	Policy = policy.Policy
	// View is one policy view.
	View = policy.View
	// Checker vets queries against a policy (the §2.2 enforcement
	// core).
	Checker = checker.Checker
	// Decision is a compliance verdict.
	Decision = checker.Decision
	// CheckerOptions sizes the decision-template cache and picks the
	// metrics registry; the zero value is the production configuration.
	CheckerOptions = checker.Options
	// Metrics is the observability registry: atomic counters and
	// bounded latency histograms that the checker, pipeline stages,
	// proxy, engine, and diagnosis search all report into. See
	// DESIGN.md §9 for the metric-name inventory.
	Metrics = obsv.Registry
	// SpanSet collects a per-request stage-latency breakdown through
	// context.Context (what the proxy's slow-decision log attaches).
	SpanSet = obsv.SpanSet
	// Trace is a session's query history.
	Trace = trace.Trace
	// ProxyServer is the network enforcement proxy.
	ProxyServer = proxy.Server
	// ProxyClient is its line-protocol client.
	ProxyClient = proxy.Client
	// ProxyMode selects enforce / log-only / off.
	ProxyMode = proxy.Mode
	// RLS is the query-modification baseline.
	RLS = baseline.RLS
	// ColumnGrants is the static column-policy baseline.
	ColumnGrants = baseline.ColumnGrants
)

// Proxy modes.
const (
	Enforce = proxy.Enforce
	LogOnly = proxy.LogOnly
	Off     = proxy.Off
)

// Policy lifecycle types (DESIGN.md §14): a staged candidate policy
// shadow-decides alongside the active one until the operator promotes
// or rolls it back.
type (
	// PolicyVersion summarizes one resident policy version: its epoch,
	// the epoch it was staged against, and its compiled fingerprint.
	PolicyVersion = checker.PolicyVersion
	// ShadowDecision is one dual-decide outcome: the enforcing active
	// verdict, the candidate's shadow verdict, and their divergence.
	ShadowDecision = checker.ShadowDecision
	// ShadowDiff is one recorded divergence between the active and
	// candidate policies on a live query.
	ShadowDiff = proxy.ShadowDiff
	// PolicyStatus is the policy.* op payload: resident versions,
	// shadow counters, and (for policy.diff) recent divergences.
	PolicyStatus = proxy.PolicyBody
)

// Extraction types (§3).
type (
	// App is a model application written in the handler DSL.
	App = appdsl.App
	// Handler is one request handler.
	Handler = appdsl.Handler
	// MineOptions configures black-box extraction.
	MineOptions = extract.MineOptions
	// ExtractionAccuracy compares an extraction to ground truth.
	ExtractionAccuracy = extract.Accuracy
)

// Disclosure types (§4).
type (
	// DisclosureVerdict is a PQI/NQI finding.
	DisclosureVerdict = disclosure.Verdict
	// DisclosureReport is a full audit.
	DisclosureReport = disclosure.Report
	// BayesPrior is a tuple-independent adversary belief.
	BayesPrior = disclosure.Prior
)

// Diagnosis types (§5).
type (
	// Diagnosis bundles counterexample, rewritings, checks, patches.
	Diagnosis = diagnose.Diagnosis
	// Counterexample is the two-database proof of violation.
	Counterexample = diagnose.Counterexample
	// AccessCheck is a synthesized application patch.
	AccessCheck = diagnose.AccessCheck
	// Rewriting is a contained-rewriting patch.
	Rewriting = diagnose.Rewriting
)

// Fixture is a bundled model application (calendar, hospital,
// employees, forum).
type Fixture = apps.Fixture

// NewSchema starts a schema declaration.
func NewSchema() *SchemaBuilder { return schema.NewBuilder() }

// NewDB creates an empty database over the schema.
func NewDB(s *Schema) *DB { return engine.New(s) }

// NewPolicy builds a policy from named view SQL.
func NewPolicy(s *Schema, views map[string]string) (*Policy, error) {
	return policy.New(s, views)
}

// MustNewPolicy is NewPolicy, panicking on error.
func MustNewPolicy(s *Schema, views map[string]string) *Policy {
	return policy.MustNew(s, views)
}

// Typed error taxonomy: match with errors.Is / errors.As.
var (
	// ErrBlocked marks a query refused by policy.
	ErrBlocked = acerr.ErrBlocked
	// ErrParse marks unparseable SQL.
	ErrParse = acerr.ErrParse
	// ErrTooManyConns marks a proxy dial rejected at the connection
	// limit.
	ErrTooManyConns = acerr.ErrTooManyConns
	// ErrCanceled marks work aborted by context cancellation or
	// deadline.
	ErrCanceled = acerr.ErrCanceled
)

// CheckerOption configures NewChecker.
type CheckerOption func(*CheckerOptions)

// WithCacheSize bounds the decision-template cache (total entries
// across shards).
func WithCacheSize(n int) CheckerOption {
	return func(o *CheckerOptions) { o.CacheSize = n }
}

// WithMetrics points the checker at an explicit metrics registry —
// share one across components to get a combined snapshot, or pass
// DisabledMetrics() for a strictly no-op instrumentation build.
// Without this option every checker gets its own enabled registry. A
// proxy core (Serve) reports into its checker's registry, so this is
// also how serving metrics are shared or turned off.
func WithMetrics(reg *Metrics) CheckerOption {
	return func(o *CheckerOptions) { o.Metrics = reg }
}

// NewMetrics creates an enabled observability registry.
func NewMetrics() *Metrics { return obsv.NewRegistry() }

// DisabledMetrics returns the no-op registry: instruments it hands
// out record nothing and cost one nil check per operation.
func DisabledMetrics() *Metrics { return obsv.Disabled() }

// NewChecker builds a compliance checker: history-aware, with decision
// templates. Options size the cache and pick the metrics registry:
//
//	beyond.NewChecker(p, beyond.WithCacheSize(1<<16), beyond.WithMetrics(reg))
func NewChecker(p *Policy, opts ...CheckerOption) *Checker {
	var o CheckerOptions
	for _, opt := range opts {
		opt(&o)
	}
	return checker.NewWithOptions(p, o)
}

// ProxyOption configures the proxy core Serve builds (through
// WithV2Listener or WithProxyConfig).
type ProxyOption func(*ProxyServer)

// WithMaxConns bounds simultaneous proxy connections over every
// listener, v2 and pgwire together (negative means unlimited).
func WithMaxConns(n int) ProxyOption {
	return func(s *ProxyServer) { s.MaxConns = n }
}

// WithReadTimeout sets the per-connection idle deadline on every
// listener, v2 and pgwire alike: a connection that sends nothing, or
// stops reading its responses, for this long is dropped.
func WithReadTimeout(d time.Duration) ProxyOption {
	return func(s *ProxyServer) { s.ReadTimeout = d }
}

// WithMaxLineBytes bounds one request line.
func WithMaxLineBytes(n int) ProxyOption {
	return func(s *ProxyServer) { s.MaxLineBytes = n }
}

// WithMaxInFlight bounds the per-connection pipelined window.
func WithMaxInFlight(n int) ProxyOption {
	return func(s *ProxyServer) { s.MaxInFlight = n }
}

// WithSlowLog turns on the proxy's structured slow-decision log:
// queries at or over the threshold emit one JSON line (through the
// server's Logf) with the verdict, the cache tier that answered, and
// the per-stage latency breakdown. See DESIGN.md §9 for the schema.
func WithSlowLog(threshold time.Duration) ProxyOption {
	return func(s *ProxyServer) { s.SlowLogThreshold = threshold }
}

// Durability types: the WAL that persists enforcement state (session
// query histories and the policy snapshot) across proxy restarts. See
// DESIGN.md §11.
type (
	// WALOptions tunes the durability layer (fsync policy, segment
	// size, checkpoint cadence).
	WALOptions = durable.Options
	// WALManager is the durable-state manager a WAL-enabled proxy runs
	// (Server.Durable()).
	WALManager = durable.Manager
	// FsyncPolicy selects when appended records become crash-durable.
	FsyncPolicy = durable.FsyncPolicy
)

// Fsync policies for WithFsync.
const (
	// FsyncAlways fsyncs every group-commit batch before acknowledging
	// (an acknowledged append survives any crash).
	FsyncAlways = durable.FsyncAlways
	// FsyncInterval acknowledges after the OS write and fsyncs on a
	// timer (bounded loss window).
	FsyncInterval = durable.FsyncInterval
	// FsyncOff never fsyncs (page-cache durability; benchmarks and
	// tests).
	FsyncOff = durable.FsyncOff
)

// DurabilityOption tunes WithDurability.
type DurabilityOption func(*WALOptions)

// WithFsync selects the WAL fsync policy (default FsyncAlways).
func WithFsync(p FsyncPolicy) DurabilityOption {
	return func(o *WALOptions) { o.Fsync = p }
}

// WithFsyncInterval sets the FsyncInterval timer period.
func WithFsyncInterval(d time.Duration) DurabilityOption {
	return func(o *WALOptions) { o.FsyncInterval = d }
}

// WithCheckpointEvery checkpoints automatically after n appended
// records (0 disables auto-checkpointing; explicit and shutdown
// checkpoints still happen).
func WithCheckpointEvery(n int) DurabilityOption {
	return func(o *WALOptions) { o.CheckpointEvery = n }
}

// WithSegmentBytes sets the segment rotation threshold.
func WithSegmentBytes(n int64) DurabilityOption {
	return func(o *WALOptions) { o.SegmentBytes = n }
}

// WithDurability turns on durable enforcement state: sessions that
// hello with a name get their query history write-ahead-logged under
// dir and restored across proxy restarts, so the compliance decisions
// a crashed proxy would have made are exactly the decisions its
// successor makes. The WAL opens (and recovery replays) on Listen.
//
//	beyond.Serve(db, chk, beyond.Enforce,
//		beyond.WithV2Listener(addr, beyond.WithDurability("/var/lib/ac/wal",
//			beyond.WithFsync(beyond.FsyncInterval),
//			beyond.WithCheckpointEvery(10000))))
func WithDurability(dir string, opts ...DurabilityOption) ProxyOption {
	return func(s *ProxyServer) {
		o := durable.DefaultOptions()
		for _, opt := range opts {
			opt(&o)
		}
		s.WALDir = dir
		s.WALOpts = o
	}
}

// WithHistoryWindow bounds every proxy session trace — durable or
// ephemeral — to its most recent n entries. Eviction only ever forgets
// facts, so windowed decisions stay sound (merely more conservative),
// and long-lived sessions stop growing without bound.
func WithHistoryWindow(n int) ProxyOption {
	return func(s *ProxyServer) { s.HistoryWindow = n }
}

// DialProxy connects the native client to a proxy address, for tools
// that want its typed surface (Stats, HelloDurable, pipelining,
// lanes). Application code can use the database/sql driver instead
// (import _ "repro/driver"; sql.Open("beyond", dsn)), which rides the
// same v2 protocol behind the standard library API.
func DialProxy(addr string, opts ...proxy.ClientOption) (*ProxyClient, error) {
	return proxy.Dial(addr, opts...)
}

// Args builds positional query arguments from Go values.
func Args(vals ...any) sqlparser.Args { return sqlparser.PositionalArgs(vals...) }

// Session builds the principal attribute map policies parameterize
// over (e.g. {"MyUId": 7}).
func Session(attrs map[string]any) map[string]Value {
	out := make(map[string]Value, len(attrs))
	for k, v := range attrs {
		out[k] = sqlvalue.MustFromAny(v)
	}
	return out
}

// ExtractPolicy derives a draft policy from application handlers by
// symbolic execution (§3.2.1).
func ExtractPolicy(s *Schema, app *App) (*Policy, error) {
	return extract.SymbolicExtract(s, app)
}

// MinePolicy derives a draft policy from black-box samples (§3.2.2).
func MinePolicy(s *Schema, samples []extract.Sample, opts MineOptions) (*Policy, error) {
	return extract.Mine(s, samples, opts)
}

// CompareExtraction measures extraction accuracy against a ground
// truth policy.
func CompareExtraction(extracted, truth *Policy) ExtractionAccuracy {
	return extract.Compare(extracted, truth)
}

// AuditPolicy checks PQI and NQI for each named sensitive query
// (§4.3). The ctx bounds the audit; cancellation aborts it between
// queries.
func AuditPolicy(ctx context.Context, p *Policy, sensitive map[string]string) (*DisclosureReport, error) {
	return disclosure.Audit(ctx, p, sensitive)
}

// KAnonymity computes the k parameter of a released view over a
// concrete database.
func KAnonymity(db *DB, releaseSQL string, quasi []string) (int, error) {
	return disclosure.KAnonymity(db, releaseSQL, quasi)
}

// DiagnoseBlocked explains a blocked query and proposes patches
// (§5.2). The ctx bounds the (potentially expensive) counterexample
// and rewriting search; cancellation aborts it mid-pass.
func DiagnoseBlocked(ctx context.Context, c *Checker, session map[string]Value, sql string, args sqlparser.Args, tr *Trace) (*Diagnosis, error) {
	return diagnose.Diagnose(ctx, c, session, sql, args, tr)
}

// Fixtures returns the bundled model applications.
func Fixtures() []*Fixture { return apps.All() }

// FixtureByName returns one bundled model application.
func FixtureByName(name string) (*Fixture, error) { return apps.ByName(name) }
