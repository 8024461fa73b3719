// Package checker implements Blockaid-style compliance checking: a
// query is allowed iff its answer is guaranteed to reveal no more
// information than the policy views do, given the history of prior
// queries and their results (the paper's §2.2). Queries are allowed
// as-is or blocked outright — never modified.
//
// The decision procedure works in the conjunctive fragment: the query
// is covered if each of its atoms either matches a row already known
// from the trace, or is the image of a policy-view embedding whose
// visible (head) columns expose every output, join, and
// selection-relevant position. This condition is sound — it implies
// the answer is determined by view contents plus trace — and complete
// enough to decide all of the paper's examples; queries outside the
// fragment are conservatively blocked.
//
// The decide path is an explicit staged pipeline (stages.go, built on
// internal/pipeline): front-cache probe → bind (fill the statement
// plan's slots) → history-free template probe → fact derivation →
// template-cache probe → policy coverage → verdict. Each stage is
// named, and every stage reports run counts and latency into the checker's
// obsv.Registry, so per-phase time (the Blockaid-style parse / cache
// probe / solver breakdown) is observable at runtime rather than
// reconstructed from ad-hoc benchmarks. The coverage algorithm itself
// lives in cover.go.
//
// Decisions are memoized as parameter-generic templates (Blockaid's
// "decision cache"): constants equal to session attributes are
// abstracted to parameters, so one cold decision serves every
// principal issuing the same query shape. The template cache is
// sharded and bounded (see cache.go) so concurrent sessions with warm
// templates never serialize on one mutex, and the session-parameter
// generalization of trace facts is memoized so long histories don't
// pay repeated rewriting.
//
// A Checker is safe for concurrent use: policy versions (compiled
// plan plus monotone epoch; version.go) are published through an
// atomic pointer, so ResetCache / StagePolicy / Promote / Rollback
// can swap them while checks are in flight — each decision pins the
// version it started with — and all counters are atomic (obsv
// instruments). Every cache key embeds the deciding epoch, so a
// policy swap invalidates warm state by epoch bump rather than cache
// teardown, and a staged candidate dual-decides via CheckShadow
// (shadow.go).
package checker

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acerr"
	"repro/internal/cq"
	"repro/internal/obsv"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Cache-tier labels reported in Decision.Tier and the proxy's
// slow-decision log.
const (
	// TierFront marks a statement-identity front-cache hit.
	TierFront = "front"
	// TierHistFree marks a history-free decision-template hit.
	TierHistFree = "histfree"
	// TierTemplate marks a full (trace-keyed) decision-template hit.
	TierTemplate = "template"
)

// Decision is the outcome of a compliance check.
type Decision struct {
	Allowed bool
	// Reason explains the outcome in one line (covering views, the
	// uncovered atom, or the fragment violation).
	Reason string
	// Views lists the policy views used to cover the query.
	Views []string
	// FromCache reports a decision-template hit.
	FromCache bool
	// Tier names the cache tier that answered ("front", "histfree",
	// "template"); empty for a cold decision.
	Tier string
	// Epoch identifies the policy version that decided (version.go):
	// the active version's epoch for Check*, the candidate's for the
	// shadow half of CheckShadow.
	Epoch uint64
}

// Stats counts checker activity. It is assembled from the checker's
// obsv instruments; with a Disabled metrics registry every field
// except CacheEntries reads zero.
type Stats struct {
	Decisions int
	CacheHits int
	Allowed   int
	Blocked   int
	// CacheEntries is the current number of cached decision templates.
	CacheEntries int
	// FactGenHits / FactGenMisses count memoized vs computed
	// session-parameter generalizations of trace facts.
	FactGenHits   int
	FactGenMisses int
	// ColdViewsKept / ColdViewsPruned count, per decided disjunct, the
	// policy views the discrimination index let into the embedding
	// search vs kept out of it (their ratio is the proxy's
	// cold_prune_ratio).
	ColdViewsKept   int
	ColdViewsPruned int
}

// Options configure a Checker.
type Options struct {
	// UseHistory enables trace-derived facts (the paper's Example 2.1
	// depends on it). Disabling it is the E3 ablation.
	UseHistory bool
	// UseCache enables decision templates.
	UseCache bool
	// UseFactCache enables the trace's incremental fact cache and the
	// checker's fact-generalization memo. Disabling it re-derives the
	// whole history on every check (the pre-optimization behaviour,
	// kept for ablation benchmarks).
	UseFactCache bool
	// MaxHomsPerView bounds the embedding search per view disjunct.
	MaxHomsPerView int
	// ColdIndex runs the cold coverage search on the compiled policy
	// plan — discrimination index plus match programs (compile.go);
	// disabling it scans every view through cq.FindHoms instead: the
	// reference the parity tests compare against, and the baseline of
	// acbench -coldpath.
	ColdIndex bool
	// CacheSize bounds the decision-template cache (total entries
	// across shards); 0 means the default.
	CacheSize int
	// Metrics is the observability registry every pipeline stage and
	// counter reports into. Nil means a fresh private registry;
	// obsv.Disabled() turns instrumentation off (stage clock reads are
	// skipped entirely). Sharing one registry across checkers
	// aggregates their instruments.
	Metrics *obsv.Registry
}

// DefaultCacheSize bounds the decision-template cache when Options
// leaves CacheSize zero.
const DefaultCacheSize = 8192

// genCacheMax bounds the fact-generalization memo (total entries
// across all session signatures); past it the memo is dropped
// wholesale and rebuilt (epoch reset, no tracking cost).
const genCacheMax = 1 << 16

// internMax bounds the warm path's key-intern table; past it the
// table is dropped wholesale, same epoch-reset discipline as the memo.
const internMax = 1 << 15

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{UseHistory: true, UseCache: true, UseFactCache: true, MaxHomsPerView: 64, ColdIndex: true}
}

// genEntry is one memoized fact generalization: the rewritten fact
// plus its canonical string (reused for decision-cache keys).
type genEntry struct {
	f   cq.Fact
	key string
}

// frontKey identifies a concrete check: the deciding policy version's
// epoch, the parsed statement BY POINTER (sqlparser.ParseCached
// returns one shared immutable statement per SQL text, so the pointer
// stands in for the text), and the rendered session attributes and
// arguments, interned. Holding the pointer as a map key also keeps the statement
// alive, so an address can never be reused while its entry exists.
// Statements parsed outside the cache simply miss here and fall
// through to the template path. Entries keyed by a superseded epoch
// can never match again and are evicted as the cap recycles them.
type frontKey struct {
	epoch uint64
	sel   *sqlparser.SelectStmt
	sig   string
}

// frontCacheMax bounds the front cache; past it an arbitrary entry is
// evicted (the workload's key population is far below the cap).
const frontCacheMax = 4096

// Checker vets queries against a policy.
type Checker struct {
	opts Options

	// The versioned policy store (version.go): the (active, candidate)
	// pair behind one atomic pointer, the monotone epoch source behind
	// verMu. Lifecycle writers (installActive, StagePolicy, Promote,
	// Rollback) serialize on verMu; decisions just Load.
	verMu     sync.Mutex
	nextEpoch uint64
	vers      atomic.Pointer[versionTable]

	cache *decisionCache
	// tr translates over the checker's schema (fixed for its lifetime:
	// every policy version shares it) and holds the statement plans, which
	// therefore outlive policy swaps and cache resets.
	tr *cq.Translator

	// Session-parameterized fact generalization memo, two levels:
	// interned session signature → raw fact canonical string → entry.
	// Two map lookups replace the old per-fact key concatenation, so a
	// memo hit allocates nothing. genN counts total inner entries for
	// the epoch-reset bound.
	genMu sync.RWMutex
	gen   map[string]map[string]genEntry
	genN  int

	// strs interns rendered signatures — front-cache keys as they are
	// stored, session signatures as the memo's namespace: a hit maps
	// scratch bytes to the one canonical string without allocating (map
	// index by converted []byte is no-copy).
	strMu sync.RWMutex
	strs  map[string]string

	// Front cache for trace-independent decisions, keyed by identity
	// of the shared parsed statement (see frontKey). Holds only
	// decisions allowed with zero history facts, which stay valid
	// under every trace.
	frontMu sync.RWMutex
	front   map[frontKey]Decision

	// Observability: the staged decide pipeline plus named obsv
	// instruments, resolved once here so the hot path never touches
	// the registry map. All are nil-safe no-ops under obsv.Disabled().
	reg  *obsv.Registry
	pipe *pipeline.Pipeline[*decideState]

	mDecisions, mAllowed, mBlocked, mCacheHits *obsv.Counter
	mFrontHit, mFrontMiss                      *obsv.Counter
	mHistFreeHit, mTemplateHit, mTemplateMiss  *obsv.Counter
	mGenHits, mGenMisses                       *obsv.Counter
	mParseErrors                               *obsv.Counter
	mColdKept, mColdPruned                     *obsv.Counter
	mParse                                     *obsv.Histogram
	mCompile, mColdSelect, mColdMatch          *obsv.Histogram
	coldTick                                   atomic.Uint64 // samples the two cold histograms
}

// New creates a checker for the policy with default options.
func New(p *policy.Policy) *Checker { return NewWithOptions(p, DefaultOptions()) }

// NewWithOptions creates a checker with explicit options.
func NewWithOptions(p *policy.Policy, opts Options) *Checker {
	if opts.MaxHomsPerView <= 0 {
		opts.MaxHomsPerView = 64
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.Metrics == nil {
		opts.Metrics = obsv.NewRegistry()
	}
	c := &Checker{
		opts:  opts,
		cache: newDecisionCache(opts.CacheSize),
		tr:    &cq.Translator{Schema: p.Schema},
		gen:   make(map[string]map[string]genEntry),
		strs:  make(map[string]string),
		front: make(map[frontKey]Decision),
		reg:   opts.Metrics,
	}
	reg := c.reg
	c.mDecisions = reg.Counter("checker.decisions")
	c.mAllowed = reg.Counter("checker.allowed")
	c.mBlocked = reg.Counter("checker.blocked")
	c.mCacheHits = reg.Counter("checker.cache.hits")
	c.mFrontHit = reg.Counter("checker.front.hit")
	c.mFrontMiss = reg.Counter("checker.front.miss")
	c.mHistFreeHit = reg.Counter("checker.histfree.hit")
	c.mTemplateHit = reg.Counter("checker.template.hit")
	c.mTemplateMiss = reg.Counter("checker.template.miss")
	c.mGenHits = reg.Counter("checker.factgen.hit")
	c.mGenMisses = reg.Counter("checker.factgen.miss")
	c.mParseErrors = reg.Counter("checker.parse.errors")
	c.mColdKept = reg.Counter("checker.cold.views.kept")
	c.mColdPruned = reg.Counter("checker.cold.views.pruned")
	c.mParse = reg.Histogram("checker.parse.micros")
	c.mCompile = reg.Histogram("checker.compile.micros")
	c.mColdSelect = reg.Histogram("checker.cold.select.micros")
	c.mColdMatch = reg.Histogram("checker.cold.match.micros")
	c.pipe = c.newDecidePipeline()
	comp := c.compilePol(p)
	c.nextEpoch = 1
	c.vers.Store(&versionTable{active: &polVersion{epoch: 1, fp: comp.fp, comp: comp, pol: p}})
	return c
}

// Policy returns the checker's active policy.
func (c *Checker) Policy() *policy.Policy { return c.activeVersion().pol }

// WarmTrace pre-derives the ground facts of a restored session trace
// under the checker's schema, so the first decision after a crash
// recovery pays cache-extension cost instead of a full history
// re-translation. It is a pure warm-up: facts are derived into the
// trace's own incremental cache, and a trace warmed twice (or never)
// decides identically.
func (c *Checker) WarmTrace(tr *trace.Trace) {
	if tr == nil || !c.opts.UseHistory {
		return
	}
	_, _ = tr.FactsKeyed(c.tr)
}

// Metrics returns the checker's observability registry (the one every
// decide stage reports into). Share it with the proxy server and the
// diagnose search to get one consolidated snapshot.
func (c *Checker) Metrics() *obsv.Registry { return c.reg }

// Stats returns a copy of the counters.
func (c *Checker) Stats() Stats {
	return Stats{
		Decisions:       int(c.mDecisions.Value()),
		CacheHits:       int(c.mCacheHits.Value()),
		Allowed:         int(c.mAllowed.Value()),
		Blocked:         int(c.mBlocked.Value()),
		CacheEntries:    c.cache.Len(),
		FactGenHits:     int(c.mGenHits.Value()),
		FactGenMisses:   int(c.mGenMisses.Value()),
		ColdViewsKept:   int(c.mColdKept.Value()),
		ColdViewsPruned: int(c.mColdPruned.Value()),
	}
}

// ResetCache republishes the policy (used when it is edited in place)
// and invalidates warm decision state by EPOCH BUMP: every cache key
// embeds the deciding epoch, so entries made under the old policy can
// never match again and age out through normal eviction — no map is
// recreated, and the policy-independent state (fact-generalization
// memo, string interns) survives untouched. When the recompiled plan's
// fingerprint is unchanged the epoch is kept too, so a no-op republish
// destroys nothing: front-cache hits keep accumulating across it.
// Checks already in flight keep using the version they started with;
// new checks see the new policy.
func (c *Checker) ResetCache() {
	c.installActive(c.Policy())
}

// intern returns the canonical string for the scratch bytes, keeping
// the warm path free of per-check string conversions: the read-path
// map index converts b without copying, so a hit allocates nothing.
func (c *Checker) intern(b []byte) string {
	c.strMu.RLock()
	s, ok := c.strs[string(b)]
	c.strMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	c.strMu.Lock()
	if len(c.strs) >= internMax {
		c.strs = make(map[string]string)
	}
	c.strs[s] = s
	c.strMu.Unlock()
	return s
}

func (c *Checker) frontGet(k frontKey) (Decision, bool) {
	c.frontMu.RLock()
	d, ok := c.front[k]
	c.frontMu.RUnlock()
	return d, ok
}

func (c *Checker) frontPut(k frontKey, d Decision) {
	// Copy Views in: the caller's slice may itself be borrowed from the
	// decision cache or about to be handed to the application, and the
	// front cache must own what it serves (frontGet hands the stored
	// slice out borrowed; stageFront copies for the safe API).
	if len(d.Views) > 0 {
		d.Views = append([]string(nil), d.Views...)
	}
	c.frontMu.Lock()
	if len(c.front) >= frontCacheMax {
		for old := range c.front {
			delete(c.front, old)
			break
		}
	}
	c.front[k] = d
	c.frontMu.Unlock()
}

// CheckSQL parses and checks a SELECT. A parse failure wraps
// acerr.ErrParse; a context cancellation mid-check wraps
// acerr.ErrCanceled (the accompanying Decision conservatively blocks).
// Parse time is the pipeline's first stage observationally: it lands
// in checker.parse.micros and in the request SpanSet as "parse".
func (c *Checker) CheckSQL(ctx context.Context, sql string, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) (Decision, error) {
	return c.checkSQL(ctx, sql, args, session, tr, false)
}

// CheckSQLBorrowed is CheckSQL under the borrowed-Decision contract of
// CheckBorrowed: the result's Views may alias cache-owned storage.
func (c *Checker) CheckSQLBorrowed(ctx context.Context, sql string, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) (Decision, error) {
	return c.checkSQL(ctx, sql, args, session, tr, true)
}

func (c *Checker) checkSQL(ctx context.Context, sql string, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace, borrow bool) (Decision, error) {
	var start time.Time
	timed := c.reg.Enabled()
	if timed {
		start = time.Now()
	}
	sel, err := sqlparser.ParseSelectCached(sql)
	if timed {
		d := time.Since(start)
		c.mParse.Observe(d.Microseconds())
		obsv.SpanSetFrom(ctx).Record("parse", d)
	}
	if err != nil {
		c.mParseErrors.Inc()
		return Decision{}, fmt.Errorf("%w: %v", acerr.ErrParse, err)
	}
	d := c.check(ctx, sel, args, session, tr, borrow)
	if err := ctx.Err(); err != nil {
		return d, acerr.Canceled(err)
	}
	return d, nil
}

// Check decides whether the query may run for the given principal
// session, considering the trace when history is enabled. It is safe
// for concurrent use. A canceled ctx aborts the embedding search and
// yields a conservative blocked Decision (never cached); callers that
// care should inspect ctx.Err.
//
// The returned Decision is owned by the caller: its Views slice never
// aliases cache storage and may be mutated or retained freely.
func (c *Checker) Check(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) Decision {
	return c.check(ctx, sel, args, session, tr, false)
}

// CheckBorrowed is Check without the defensive Views copy on cache
// hits: the returned Decision's Views may alias the decision caches
// directly, making warm front-cache decisions fully allocation-free.
// The borrowed contract (DESIGN.md §12): treat Views as read-only, and
// do not rely on it after ResetCache. Everything else in the Decision
// is a value and owned by the caller. The proxy hot path — which only
// reads a decision — uses this form.
func (c *Checker) CheckBorrowed(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) Decision {
	return c.check(ctx, sel, args, session, tr, true)
}

func (c *Checker) check(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace, borrow bool) Decision {
	c.mDecisions.Inc()
	d := c.decide(ctx, sel, args, session, tr, borrow)
	if d.Allowed {
		c.mAllowed.Inc()
	} else {
		c.mBlocked.Inc()
	}
	if d.FromCache {
		c.mCacheHits.Inc()
	}
	return d
}

// canceledDecision is the conservative verdict for an aborted check.
// It is never cached: the search did not finish, so the template would
// poison future decisions.
func canceledDecision(ctx context.Context) Decision {
	return Decision{Allowed: false, Reason: fmt.Sprintf("check canceled: %v", ctx.Err())}
}

// appendSessionSig renders the session attributes into buf, in the
// order of names (decideState.attrNames: sorted); the result namespaces
// the fact-generalization memo, since the same ground fact generalizes
// differently under different principals. Rendering into scratch
// instead of building a string keeps the warm path allocation-free.
// Values are length-framed (appendKeyed) here and in appendArgsSig: a
// text value cannot spell a separator and pass for two.
func appendSessionSig(buf []byte, names []string, session map[string]sqlvalue.Value) []byte {
	for _, n := range names {
		buf = append(buf, n...)
		buf = append(buf, '=')
		buf = appendKeyed(buf, session[n])
	}
	return buf
}

// appendArgsSig renders the bound arguments deterministically into buf
// for the front-cache key, sorting argument names in the caller's
// scratch slice.
func appendArgsSig(buf []byte, names []string, args sqlparser.Args) ([]byte, []string) {
	for _, v := range args.Positional {
		buf = appendKeyed(buf, v)
	}
	if len(args.Named) > 0 {
		names = names[:0]
		for n := range args.Named {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			buf = append(buf, '@')
			buf = append(buf, n...)
			buf = append(buf, '=')
			buf = appendKeyed(buf, args.Named[n])
		}
	}
	return buf, names
}

// generalizeFactMemo returns the session-parameterized form of a
// trace fact, memoized per (fact, session signature), and reports
// whether it was a memo hit. rawKey is the fact's canonical string as
// rendered once by the trace's fact cache (trace.FactsKeyed); together
// with the interned sig it keys the two-level memo, so a hit is two
// map lookups and no allocation. Counting is left to the caller (the
// facts stage batches one atomic add per check instead of one per
// fact). Memoized facts are shared; callers must treat their atoms as
// immutable. The memo is skipped when the fact cache is disabled
// (ablation mode measures the unmemoized path).
func (c *Checker) generalizeFactMemo(f cq.Fact, rawKey string, session map[string]sqlvalue.Value, sig string) (genEntry, bool) {
	if !c.opts.UseFactCache {
		g := generalizeFact(f, session)
		return genEntry{f: g, key: g.String()}, false
	}
	c.genMu.RLock()
	e, ok := c.gen[sig][rawKey]
	c.genMu.RUnlock()
	if ok {
		return e, true
	}
	g := generalizeFact(f, session)
	e = genEntry{f: g, key: g.String()}
	c.genMu.Lock()
	if c.genN >= genCacheMax {
		c.gen = make(map[string]map[string]genEntry)
		c.genN = 0
	}
	inner := c.gen[sig]
	if inner == nil {
		inner = make(map[string]genEntry)
		c.gen[sig] = inner
	}
	if _, dup := inner[rawKey]; !dup {
		c.genN++
	}
	inner[rawKey] = e
	c.genMu.Unlock()
	return e, false
}

// generalized returns the term a constant is written as in a decision
// template: the parameter of the session attribute it equals — the
// first in names, which callers pass sorted, so ambiguities resolve
// deterministically — or itself.
func generalized(names []string, session map[string]sqlvalue.Value, v sqlvalue.Value) cq.Term {
	for _, n := range names {
		if sqlvalue.Identical(session[n], v) {
			return cq.P(n)
		}
	}
	return cq.C(v)
}

// generalizeConsts replaces constants equal to a session attribute
// with that attribute's parameter (see generalized).
func generalizeConsts(q *cq.Query, session map[string]sqlvalue.Value) *cq.Query {
	if len(session) == 0 {
		return q
	}
	names := make([]string, 0, len(session))
	for n := range session {
		names = append(names, n)
	}
	sort.Strings(names)
	repl := func(t cq.Term) cq.Term {
		if !t.IsConst() {
			return t
		}
		return generalized(names, session, t.Const)
	}
	out := q.Clone()
	for i, t := range out.Head {
		out.Head[i] = repl(t)
	}
	for ai := range out.Atoms {
		for i, t := range out.Atoms[ai].Args {
			out.Atoms[ai].Args[i] = repl(t)
		}
	}
	for i := range out.Comps {
		out.Comps[i].Left = repl(out.Comps[i].Left)
		out.Comps[i].Right = repl(out.Comps[i].Right)
	}
	return out
}

func generalizeFact(f cq.Fact, session map[string]sqlvalue.Value) cq.Fact {
	q := &cq.Query{Atoms: []cq.Atom{f.Atom.Clone()}}
	q = generalizeConsts(q, session)
	return cq.Fact{Atom: q.Atoms[0], Negated: f.Negated}
}
