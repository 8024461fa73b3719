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
// A read takes one form after the parser: its statement plan
// (cq.StmtPlan), compiled once per statement from the parameter form.
// A statement whose parameter form does not translate is refused once,
// when it is planned, and every call of it blocks with that reason;
// nothing is bound or translated per call.
//
// The decide path is a fixed table of named stages (stages.go):
// bind (fill the statement plan's slots) → history-free template probe
// → fact derivation → template-cache probe → policy coverage →
// verdict. Every stage reports run counts and latency into the
// checker's obsv.Registry, so per-phase time (the Blockaid-style parse
// / cache probe / solver breakdown) is observable at runtime rather
// than reconstructed from ad-hoc benchmarks. CheckCold
// runs only the table's bind, facts and cover stages: the decision with
// every cache out of the way, which the parity tests and the cold
// timings use. The coverage algorithm itself lives in cover.go.
//
// Decisions are memoized as parameter-generic templates (Blockaid's
// "decision cache"): constants equal to session attributes are
// abstracted to parameters, so one cold decision serves every
// principal issuing the same query shape. The template cache is
// sharded and bounded (see cache.go) so concurrent sessions with warm
// templates share only read locks; once full it keeps a cold decision
// only when its key comes back, so a one-off decision writes no cache.
// The session-parameter generalization of trace facts is memoized so
// long histories don't pay repeated rewriting.
//
// A Checker is safe for concurrent use: policy versions (compiled
// plan plus monotone epoch; version.go) are published through an
// atomic pointer, so ResetCache / StagePolicy / Promote / Rollback
// can swap them while checks are in flight — each decision pins the
// version it started with — and all counters are atomic (obsv
// instruments). Every cache key embeds the deciding epoch, so a
// policy swap invalidates warm state by epoch bump rather than cache
// teardown, and a staged candidate dual-decides via CheckShadowBorrowed
// (shadow.go).
package checker

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acerr"
	"repro/internal/cq"
	"repro/internal/obsv"
	"repro/internal/policy"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Cache-tier labels reported in Decision.Tier and the proxy's
// slow-decision log.
const (
	// TierFront named the statement-identity front cache, which no
	// longer exists: no decision carries it. It stays declared for
	// readers of older slow-log lines and tier tallies.
	TierFront = "front"
	// TierHistFree marks a history-free decision-template hit.
	TierHistFree = "histfree"
	// TierTemplate marks a decision-template hit that looked at the
	// session's facts: an allow stored under a justification (the facts
	// its proof used) that is among the session's usable facts, or, when
	// the session has no usable facts, the template's history-free
	// verdict.
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
	// Tier names the cache tier that answered ("histfree" or
	// "template"); empty for a cold decision.
	Tier string
	// Epoch identifies the policy version that decided (version.go):
	// the active version's epoch for Check*, the candidate's for the
	// shadow half of CheckShadowBorrowed.
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

// Options configure a Checker; the zero value is the production
// configuration.
type Options struct {
	// CacheSize bounds the decision-template cache (total entries
	// across shards); 0 means the default.
	CacheSize int
	// Metrics is the observability registry every decide stage and
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

// maxHomsPerView bounds the embeddings the cover search enumerates per
// view disjunct.
const maxHomsPerView = 64

// genEntry is one memoized fact generalization: the rewritten fact
// plus the id its canonical string is interned as (factID), which
// justifications name it by.
type genEntry struct {
	f  cq.Fact
	id uint64
}

// Checker vets queries against a policy.
type Checker struct {
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
	// rendered session signature → raw fact canonical string → entry.
	// Both levels are indexed by converted bytes or shared strings, so
	// a memo hit allocates nothing. genN counts total inner entries for
	// the epoch-reset bound. genIDs interns each generalized fact's
	// canonical string as an id from lastGenID, a counter never reset:
	// the map resets with the memo, and an id it forgot is never issued
	// again, so a justification naming it only misses.
	genMu     sync.RWMutex
	gen       map[string]map[string]genEntry
	genN      int
	genIDs    map[string]uint64
	lastGenID uint64

	// Observability: the stage table (stages.go) plus named obsv
	// instruments, resolved once here so the hot path never touches
	// the registry map. All are nil-safe no-ops under obsv.Disabled().
	reg           *obsv.Registry
	stages        [numStages]stage
	mDecideTotal  *obsv.Histogram
	mDecideAborts *obsv.Counter
	stageTick     atomic.Uint64 // samples the stage histograms

	mDecisions, mAllowed, mBlocked, mCacheHits *obsv.Counter
	mHistFreeHit, mTemplateHit, mTemplateMiss  *obsv.Counter
	mDeclined                                  *obsv.Counter
	mGenHits, mGenMisses                       *obsv.Counter
	mParseErrors                               *obsv.Counter
	mColdKept, mColdPruned                     *obsv.Counter
	mParse                                     *obsv.Histogram
	mCompile, mColdSelect, mColdMatch          *obsv.Histogram
	coldTick                                   atomic.Uint64 // samples the two cold histograms
}

// New creates a checker for the policy with default options.
func New(p *policy.Policy) *Checker { return NewWithOptions(p, Options{}) }

// NewWithOptions creates a checker with explicit options.
func NewWithOptions(p *policy.Policy, opts Options) *Checker {
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.Metrics == nil {
		opts.Metrics = obsv.NewRegistry()
	}
	c := &Checker{
		cache:  newDecisionCache(opts.CacheSize, opts.Metrics.Counter("checker.cache.entries")),
		tr:     &cq.Translator{Schema: p.Schema},
		gen:    make(map[string]map[string]genEntry),
		genIDs: make(map[string]uint64),
		reg:    opts.Metrics,
	}
	reg := c.reg
	c.mDecisions = reg.Counter("checker.decisions")
	c.mAllowed = reg.Counter("checker.allowed")
	c.mBlocked = reg.Counter("checker.blocked")
	c.mCacheHits = reg.Counter("checker.cache.hits")
	c.mHistFreeHit = reg.Counter("checker.histfree.hit")
	c.mTemplateHit = reg.Counter("checker.template.hit")
	c.mTemplateMiss = reg.Counter("checker.template.miss")
	c.mDeclined = reg.Counter("checker.cache.declined")
	c.mGenHits = reg.Counter("checker.factgen.hit")
	c.mGenMisses = reg.Counter("checker.factgen.miss")
	c.mParseErrors = reg.Counter("checker.parse.errors")
	c.mColdKept = reg.Counter("checker.cold.views.kept")
	c.mColdPruned = reg.Counter("checker.cold.views.pruned")
	c.mParse = reg.Histogram("checker.parse.micros")
	c.mCompile = reg.Histogram("checker.compile.micros")
	c.mColdSelect = reg.Histogram("checker.cold.select.micros")
	c.mColdMatch = reg.Histogram("checker.cold.match.micros")
	c.initStages()
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
	if tr == nil {
		return
	}
	_, _ = tr.FactsKeyed(c.tr)
}

// ReadsRows reports whether a trace entry of sel must keep its result
// rows for the checker to derive its facts (cq.StmtPlan.ReadsRows): when
// it does not, the row count alone derives the same facts under the
// checker's schema. The plan is the one decisions use, so this is a
// plan-map hit.
func (c *Checker) ReadsRows(sel *sqlparser.SelectStmt) bool { return c.tr.Plan(sel).ReadsRows() }

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
// never match again. They are dropped from the decision cache, whose
// capacity a new policy's decisions then fill without waiting for a
// second sighting, and the policy-independent state (statement plans,
// fact-generalization memo) survives untouched. When the recompiled
// plan's fingerprint is unchanged the epoch is kept too, so a no-op
// republish destroys nothing: warm hits keep accumulating across it.
// Checks already in flight keep using the version they started with;
// new checks see the new policy.
func (c *Checker) ResetCache() {
	c.installActive(c.Policy())
}

// store offers a template's history-free verdict to the cache and
// returns the entry holding it, counting a store that admission turned
// down (nil).
func (c *Checker) store(key []byte, d Decision) *cacheEntry {
	e := c.cache.Put(key, d)
	if e == nil {
		c.mDeclined.Inc()
	}
	return e
}

// dropDeadEpochs frees the decision cache of entries that no resident
// policy version can match. Callers hold verMu, after publishing.
func (c *Checker) dropDeadEpochs() {
	t := c.vers.Load()
	c.cache.dropEpochs(func(e uint64) bool {
		return e == t.active.epoch || t.candidate != nil && e == t.candidate.epoch
	})
}

// CheckSQL parses and checks a SELECT. A parse failure wraps
// acerr.ErrParse; a context cancellation mid-check wraps
// acerr.ErrCanceled (the accompanying Decision conservatively blocks).
// Parse time is the decide path's first stage observationally: it lands
// in checker.parse.micros and in the request SpanSet as "parse".
func (c *Checker) CheckSQL(ctx context.Context, sql string, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) (Decision, error) {
	var start time.Time
	timed := c.reg.Enabled()
	if timed {
		start = time.Now()
	}
	sel, err := sqlparser.ParseSelectNorm(sql)
	if timed {
		d := time.Since(start)
		c.mParse.Observe(d.Microseconds())
		obsv.SpanSetFrom(ctx).Record("parse", d)
	}
	if err != nil {
		c.mParseErrors.Inc()
		return Decision{}, fmt.Errorf("%w: %v", acerr.ErrParse, err)
	}
	d := c.check(ctx, sel, args, session, tr, false)
	if err := ctx.Err(); err != nil {
		return d, acerr.Canceled(err)
	}
	return d, nil
}

// Check decides whether the query may run for the given principal
// session, considering the trace (nil for none). It is safe
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
// hits: the returned Decision's Views may alias the decision cache
// directly, making warm history-free decisions fully allocation-free.
// The borrowed contract (DESIGN.md §12): treat Views as read-only, and
// do not rely on it after ResetCache. Everything else in the Decision
// is a value and owned by the caller. The proxy hot path — which only
// reads a decision — uses this form.
func (c *Checker) CheckBorrowed(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) Decision {
	return c.check(ctx, sel, args, session, tr, true)
}

func (c *Checker) check(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace, borrow bool) Decision {
	return c.countDecision(c.decide(ctx, sel, args, session, tr, borrow))
}

// countDecision applies the decision accounting (decisions,
// allowed/blocked, cache hits) to an enforcing verdict.
func (c *Checker) countDecision(d Decision) Decision {
	c.mDecisions.Inc()
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
// Values are length-framed (appendKeyed): a text value cannot spell a
// separator and pass for two.
func appendSessionSig(buf []byte, names []string, session map[string]sqlvalue.Value) []byte {
	for _, n := range names {
		buf = append(buf, n...)
		buf = append(buf, '=')
		buf = appendKeyed(buf, session[n])
	}
	return buf
}

// generalizeFactMemo returns the session-parameterized form of a
// trace fact, memoized per (fact, session signature), and reports
// whether it was a memo hit. rawKey is the fact's canonical string as
// rendered once by the trace's fact cache (trace.FactsKeyed); together
// with the rendered session signature sig it keys the two-level memo,
// so a hit is two map lookups and no allocation. Counting is left to
// the caller (the facts stage batches one atomic add per check instead
// of one per fact). Memoized facts are shared; callers must treat their atoms as
// immutable.
func (c *Checker) generalizeFactMemo(f cq.Fact, rawKey string, session map[string]sqlvalue.Value, sig []byte) (genEntry, bool) {
	c.genMu.RLock()
	e, ok := c.gen[string(sig)][rawKey]
	c.genMu.RUnlock()
	if ok {
		return e, true
	}
	g := generalizeFact(f, session)
	key := g.String()
	c.genMu.Lock()
	if c.genN >= genCacheMax {
		c.gen = make(map[string]map[string]genEntry)
		c.genIDs = make(map[string]uint64)
		c.genN = 0
	}
	e = genEntry{f: g, id: c.factIDLocked(key)}
	inner := c.gen[string(sig)]
	if inner == nil {
		inner = make(map[string]genEntry)
		c.gen[string(sig)] = inner
	}
	if _, dup := inner[rawKey]; !dup {
		c.genN++
	}
	inner[rawKey] = e
	c.genMu.Unlock()
	return e, false
}

// factIDLocked returns the id a generalized fact's canonical string is
// interned as, issuing the next one for a string the map does not hold.
// Callers hold genMu for writing.
func (c *Checker) factIDLocked(key string) uint64 {
	id, ok := c.genIDs[key]
	if !ok {
		c.lastGenID++
		id = c.lastGenID
		c.genIDs[key] = id
	}
	return id
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
