package checker

// One decision, in straight-line code, from three entry points that
// call the steps below in their own order (DESIGN.md §9.1; §10.5 for
// the statement plans bind fills). A canceled decision is never stored:
// the search did not finish, so a template would poison future
// decisions. Decision.Tier is set only on the way out of a cache hit —
// cached entries store an empty Tier.

import (
	"context"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// decideState carries one decision. States are pooled (decidePool):
// the scratch fields at the bottom keep their capacity across
// decisions, which is what makes the warm tiers allocation-free.
// Nothing in a state may outlive its decision — the Decision is copied
// out by value, and the caches copy in what they keep — so recycling
// can never alias into a cached or returned decision.
type decideState struct {
	c *Checker
	// ver is the policy version this decision is pinned to: the active
	// version for Check*, either half's version for CheckShadowBorrowed.
	// Every cache key embeds ver.epoch.
	ver *polVersion

	// Inputs.
	sel     *sqlparser.SelectStmt
	args    sqlparser.Args
	session map[string]sqlvalue.Value
	tr      *trace.Trace

	// The statement's plan and this call's slot vector (bind): raw
	// values, and the term each is written as — the constant, or the
	// session attribute's parameter it equals.
	plan *cq.StmtPlan
	raw  []sqlvalue.Value
	gen  []cq.Term

	// Parameter-generic query templates: instantiated from the plan the
	// first time the decision has to search (a cache hit never builds
	// them).
	tpl  []*cq.Query
	inst cq.Instantiation

	// Session-generalized trace facts, each with its interned id
	// (factID).
	facts   []cq.Fact
	factIDs []uint64

	// Pooled scratch, reused across decisions (capacity survives the
	// pool round-trip; contents never do).
	keyBuf    []byte   // the decision-cache key: the probe's, kept for the store
	justBuf   []uint64 // the verdict's justification ids
	sigBuf    []byte   // the rendered session signature (memoFacts)
	attrs     []string // session attribute names, sorted (attrNames)
	attrsDone bool
	sc        *coverScratch // the cold cover search's arrays (cover.go); nil until a decision goes cold
}

var decidePool = sync.Pool{New: func() any { return new(decideState) }}

// newState takes a pooled state for one decision of sel under ver.
func (c *Checker) newState(ver *polVersion, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) *decideState {
	st := decidePool.Get().(*decideState)
	st.c, st.ver, st.sel, st.args, st.session, st.tr = c, ver, sel, args, session, tr
	return st
}

// release zeroes the state and returns it to the pool, keeping only
// the scratch capacity. Pointerful scratch is cleared element-wise so
// a pooled idle state never pins a policy snapshot, statement, trace,
// argument value or fact graph in memory.
func (st *decideState) release() {
	st.inst.Reset()
	clear(st.raw)
	clear(st.gen)
	clear(st.facts)
	clear(st.attrs)
	if st.sc != nil {
		st.sc.release()
	}
	*st = decideState{
		sigBuf:  st.sigBuf[:0],
		keyBuf:  st.keyBuf[:0],
		justBuf: st.justBuf[:0],
		attrs:   st.attrs[:0],
		raw:     st.raw[:0],
		gen:     st.gen[:0],
		inst:    st.inst,
		facts:   st.facts[:0],
		factIDs: st.factIDs[:0],
		sc:      st.sc,
	}
	decidePool.Put(st)
}

// attrNames returns the session's attribute names in sorted order,
// computed once per decision: the order signatures render in, and the
// order in which a value equal to several attributes picks its
// parameter.
func (st *decideState) attrNames() []string {
	if !st.attrsDone {
		st.attrsDone = true
		st.attrs = st.attrs[:0]
		for n := range st.session {
			st.attrs = append(st.attrs, n)
		}
		if len(st.attrs) > 1 {
			slices.Sort(st.attrs)
		}
	}
	return st.attrs
}

// sampleEvery is the latency sampling period of the decision's sections
// and the cold search's histograms: the first decision and every
// sampleEvery-th after it pay the clock reads; the rest increment
// counters only. A decision whose context carries an obsv.SpanSet is
// always timed (the caller asked for its breakdown), and every counter
// is exact — only the latency histograms are sampled. Sampling keeps
// the instrumented hot path inside its overhead budget on hosts with
// slow clock reads.
const sampleEvery = 8

// section is one timed section of the enforcing decision: its name,
// which labels its span in a request's breakdown, and its histogram,
// pipeline.decide.<name>.micros.
type section struct {
	name   string
	micros *obsv.Histogram
}

func (c *Checker) section(name string) section {
	return section{name: name, micros: c.reg.Histogram("pipeline.decide." + name + ".micros")}
}

// sectionTimer times one decision's sections (sampleEvery); off, it
// reads no clock. Clock reads are chained: one per section boundary.
type sectionTimer struct {
	on          bool
	spans       *obsv.SpanSet
	start, prev time.Time
}

func (c *Checker) startTimer(ctx context.Context) sectionTimer {
	if !c.reg.Enabled() {
		return sectionTimer{}
	}
	spans := obsv.SpanSetFrom(ctx)
	if spans == nil && c.decideTick.Add(1)%sampleEvery != 1 {
		return sectionTimer{}
	}
	now := time.Now()
	return sectionTimer{on: true, spans: spans, start: now, prev: now}
}

// mark ends section s.
func (t *sectionTimer) mark(s *section) {
	if !t.on {
		return
	}
	now := time.Now()
	d := now.Sub(t.prev)
	t.prev = now
	s.micros.Observe(d.Microseconds())
	t.spans.Record(s.name, d)
}

// coverScratch returns the state's cold-search scratch, allocated the
// first time a decision riding this pooled state goes cold, so warm
// decisions neither carry nor release it.
func (st *decideState) coverScratch() *coverScratch {
	if st.sc == nil {
		st.sc = new(coverScratch)
	}
	return st.sc
}

// templates returns the decision's templates, instantiating the plan
// on first use. Warm decisions (histfree and template hits) never
// reach a caller of this.
func (st *decideState) templates() []*cq.Query {
	if st.tpl == nil {
		st.tpl = st.plan.Instantiate(&st.inst, st.raw, st.gen)
	}
	return st.tpl
}

// Decision-cache keys. Layout: the deciding epoch (8 bytes), 'P', the
// template's identity. Every variable-length component is behind its
// length, so two different component lists never render to the same
// bytes, and the cache's maps compare whole keys: nothing is looked up
// by a hash that could collide into somebody else's allow. There is one
// key per template, the history-free key: its entry holds the
// template's verdict on an empty history and the allows decided on
// facts, each under the facts its proof used (cacheEntry).
//
// The template's identity is its plan's shape, each slot as written
// into the template (the session attribute's parameter, or the value),
// and the outcomes of the plan's ground steps — which is everything
// Instantiate's result depends on.
func (st *decideState) appendCacheKey(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, st.ver.epoch)
	buf = append(buf, 'P')
	buf = binary.BigEndian.AppendUint64(buf, st.plan.Shape)
	for i, t := range st.gen {
		if t.IsParam() {
			buf = appendFramed(buf, "p", t.Name)
		} else {
			buf = appendKeyed(buf, st.raw[i])
		}
	}
	return st.plan.AppendOutcomes(buf, st.raw)
}

// appendFramed appends prefix+s behind its length (a uvarint).
func appendFramed(buf []byte, prefix, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(prefix)+len(s)))
	buf = append(buf, prefix...)
	return append(buf, s...)
}

// appendKeyed appends the value's key (sqlvalue.Value.AppendKey) behind
// its length (a uvarint).
func appendKeyed(buf []byte, v sqlvalue.Value) []byte {
	at := len(buf)
	buf = v.AppendKey(append(buf, 0))
	n := len(buf) - at - 1
	if n < 0x80 {
		buf[at] = byte(n)
		return buf
	}
	// A long text: make room for the rest of the length.
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	buf = append(buf, pre[1:k]...)
	copy(buf[at+k:], buf[at+1:at+1+n])
	copy(buf[at:], pre[:k])
	return buf
}

// decideVersion decides one check pinned to one policy version, on a
// pooled state. CheckShadowBorrowed calls it twice on the same inputs —
// once with the active version, once with the candidate — so both
// halves decide alike and warm the same caches under their own epochs.
// borrow marks a CheckBorrowed call: cache hits skip the defensive
// Views copy and hand out the cache-owned slice read-only.
func (c *Checker) decideVersion(ctx context.Context, ver *polVersion, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace, borrow bool) Decision {
	st := c.newState(ver, sel, args, session, tr)
	t := c.startTimer(ctx)
	d := st.decide(ctx, &t, borrow)
	if t.on {
		c.mDecideTotal.Observe(t.prev.Sub(t.start).Microseconds())
	}
	d.Epoch = ver.epoch
	st.release()
	return d
}

// decide is the enforcing decision: bind; the template's history-free
// entry (tier histfree); the trace's facts; the allows stored under
// justifications among them (tier template); the cover search; the
// store. Each section is marked as it ends, and a decided bind, a cache
// tier or a cancellation (counted as an abort) ends it early.
func (st *decideState) decide(ctx context.Context, t *sectionTimer, borrow bool) Decision {
	c := st.c
	if ctx.Err() != nil {
		t.mark(&c.secBind)
		return c.abort(ctx)
	}
	d, decided := st.bind()
	t.mark(&c.secBind)
	if decided {
		return d
	}

	if st.tr == nil {
		// No trace, no facts: the entry's history-free verdict, allow or
		// denial, answers as tier template; a cold one is stored as it.
		t.mark(&c.secHistFree)
		t.mark(&c.secFacts)
		e := st.probe()
		t.mark(&c.secTemplate)
		if e != nil {
			return hitDecision(e.d, TierTemplate, c.mTemplateHit, borrow)
		}
		c.mTemplateMiss.Inc()
		d, ok := st.cover(ctx, nil)
		t.mark(&c.secCover)
		if !ok {
			return c.abort(ctx)
		}
		c.store(st.keyBuf, d)
		t.mark(&c.secVerdict)
		return d
	}

	// The history-free tier. Coverage is monotone in the trace facts
	// (facts only add atoms a homomorphism may land on), so a template
	// allowed with ZERO facts stays allowed under every trace. A denial
	// is only a marker that the template needs facts; its entry holds
	// the allows decided on them.
	e := st.probe()
	cold, ok := e == nil, true
	var hf Decision // the history-free verdict, when decided here
	if cold {
		if hf, ok = st.cover(ctx, nil); ok {
			e = c.store(st.keyBuf, hf)
		}
	}
	t.mark(&c.secHistFree)
	switch {
	case !ok:
		return c.abort(ctx)
	case cold && hf.Allowed:
		return hf
	case !cold && e.d.Allowed:
		return hitDecision(e.d, TierHistFree, c.mHistFreeHit, borrow)
	}

	ok = c.deriveFacts(ctx, st)
	t.mark(&c.secFacts)
	if !ok {
		return c.abort(ctx)
	}

	// The template tier: the first allow stored under a justification
	// among the session's usable facts, or, when the session has none,
	// the history-free verdict.
	var hit *Decision
	if e != nil {
		if len(st.factIDs) == 0 {
			hit = &e.d
		} else if j := e.justifiedBy(st.factIDs); j != nil {
			hit = &j.d
		}
	}
	t.mark(&c.secTemplate)
	if hit != nil {
		return hitDecision(*hit, TierTemplate, c.mTemplateHit, borrow)
	}
	c.mTemplateMiss.Inc()
	if len(st.factIDs) == 0 {
		// The history-free verdict was decided above, on these very (no)
		// facts, and the cache declined it: its denial stands.
		return hf
	}

	d, ok = st.cover(ctx, st.facts)
	t.mark(&c.secCover)
	if !ok {
		return c.abort(ctx)
	}
	// An allow is stored under its justification. A block is not: it was
	// decided on facts, and the facts one session holds rarely come back
	// together (DESIGN.md §6).
	if d.Allowed && !c.cache.Justify(st.keyBuf, st.justification(), d) {
		c.mDeclined.Inc()
	}
	t.mark(&c.secVerdict)
	return d
}

// abort counts a canceled decision and returns its conservative
// verdict.
func (c *Checker) abort(ctx context.Context) Decision {
	c.mDecideAborts.Inc()
	return canceledDecision(ctx)
}

// CheckCold decides the query from scratch under the active policy
// version: bind, the trace's facts and the cover search, with no cache
// probe or store. It reads and writes no decision-cache tier (only
// the fact-generalization memo, whose entries are a pure function of
// their key), and counts and times no decision, so an oracle can call
// it beside Check without warming the tiers it checks. A canceled ctx
// yields the conservative blocked Decision. The Decision is owned by
// the caller, and Epoch is the deciding version's.
func (c *Checker) CheckCold(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) (d Decision) {
	ver := c.vers.Load().active
	st := c.newState(ver, sel, args, session, tr)
	defer func() {
		d.Epoch = ver.epoch
		st.release()
	}()
	if ctx.Err() != nil {
		return canceledDecision(ctx)
	}
	if d, decided := st.bind(); decided {
		return d
	}
	if tr != nil && !c.deriveFacts(ctx, st) {
		return canceledDecision(ctx)
	}
	if d, ok := st.cover(ctx, st.facts); ok {
		return d
	}
	return canceledDecision(ctx)
}

// CheckWarmBorrowed probes the history-free tier for a concrete check
// and reports whether it answered: the cached plan, bind, one probe.
// The proxy's inline fast path calls it on the read goroutine, which it
// must never stall behind compiling a plan or an embedding search. A
// hit is an allow under the borrowed-Views contract of CheckBorrowed,
// counted like a history-free hit through Check. A statement with no
// compiled plan, a call the plan cannot bind, an absent entry, a denial
// marker and a refused plan (shape 0, under which nothing is stored)
// are misses: no cold work, no counter, no store — the caller re-issues
// the check through CheckBorrowed, which counts it.
func (c *Checker) CheckWarmBorrowed(sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value) (Decision, bool) {
	plan := c.tr.CachedPlan(sel)
	if plan == nil {
		return Decision{}, false
	}
	ver := c.vers.Load().active
	st := c.newState(ver, sel, args, session, nil)
	var e *cacheEntry
	if st.bindPlan(plan) == nil {
		e = st.probe()
	}
	st.release()
	if e == nil || !e.d.Allowed {
		return Decision{}, false
	}
	d := hitDecision(e.d, TierHistFree, c.mHistFreeHit, true)
	d.Epoch = ver.epoch
	return c.countDecision(d), true
}

// bind turns the call into a slot vector for the statement's plan
// (cq/plan.go): each slot's value — a literal, a positional or named
// argument, or the session attribute a query names — and the term it is
// written as, the session attribute's parameter when the value equals
// one (one cold decision serves every principal). decided reports a
// call bind decides: one that lacks an argument blocks with Bind's
// message, and a statement whose plan is refused with the plan's
// reason.
func (st *decideState) bind() (d Decision, decided bool) {
	plan := st.c.tr.Plan(st.sel)
	if err := st.bindPlan(plan); err != nil {
		return Decision{Reason: "bind: " + err.Error()}, true
	}
	if r := plan.Refusal(); r != "" {
		return Decision{Reason: r}, true
	}
	return Decision{}, false
}

// bindPlan fills the slot vector from the statement's plan, failing with
// Bind's error when the call lacks an argument; then the state holds no
// plan.
func (st *decideState) bindPlan(plan *cq.StmtPlan) error {
	raw, err := plan.Resolve(st.raw, st.args, st.session)
	st.raw = raw
	if err != nil {
		return err
	}
	st.plan = plan
	st.gen = st.gen[:0]
	for _, v := range raw {
		st.gen = append(st.gen, generalized(st.attrNames(), st.session, v))
	}
	return nil
}

// probe renders the template's key into keyBuf, where a store finds it,
// and returns the cache's entry under it, or nil.
func (st *decideState) probe() *cacheEntry {
	st.keyBuf = st.appendCacheKey(st.keyBuf[:0])
	return st.c.cache.Get(st.keyBuf)
}

// hitDecision is a cached decision as a tier hands it out, counted in
// hits: marked with the tier, and with its own copy of Views unless
// borrowed.
func hitDecision(d Decision, tier string, hits *obsv.Counter, borrow bool) Decision {
	hits.Inc()
	if !borrow {
		d = ownViews(d)
	}
	d.Tier = tier
	return d
}

// memoFacts derives the session-generalized trace facts and their
// interned ids, memoized per (fact, session shape), not per check. It
// reports false when ctx was canceled.
func memoFacts(ctx context.Context, st *decideState) bool {
	c := st.c
	st.sigBuf = appendSessionSig(st.sigBuf[:0], st.attrNames(), st.session)
	// Shared snapshot plus the canonical string of each raw fact,
	// rendered once at derivation — the memo keys below cost two map
	// lookups per fact, no rendering.
	raw, rawKeys := st.tr.FactsKeyed(c.tr)
	st.facts = st.facts[:0]
	st.factIDs = st.factIDs[:0]
	var hits, misses int64
	for i, f := range raw {
		if i&63 == 63 && ctx.Err() != nil {
			return false
		}
		g, hit := c.generalizeFactMemo(f, rawKeys[i], st.session, st.sigBuf)
		if hit {
			hits++
		} else {
			misses++
		}
		st.facts = append(st.facts, g.f)
		st.factIDs = append(st.factIDs, g.id)
	}
	// One batched add per check instead of one atomic per fact — long
	// histories would otherwise pay fifty-plus counter bumps here.
	if hits > 0 {
		c.mGenHits.Add(hits)
	}
	if misses > 0 {
		c.mGenMisses.Add(misses)
	}
	return true
}

// cover runs the cold cover search over facts. ok is false when ctx was
// canceled: then the verdict decides nothing and must not be stored.
func (st *decideState) cover(ctx context.Context, facts []cq.Fact) (d Decision, ok bool) {
	d = st.c.coverAll(ctx, st.ver.comp, st.templates(), st.plan.Census(), facts, st.coverScratch())
	return d, ctx.Err() == nil
}

// justification returns the ids of the facts the cover search's allow
// used (coverScratch.just), sorted and without repeats.
func (st *decideState) justification() []uint64 {
	st.justBuf = st.justBuf[:0]
	for _, fi := range st.sc.just {
		st.justBuf = append(st.justBuf, st.factIDs[fi])
	}
	slices.Sort(st.justBuf)
	st.justBuf = slices.Compact(st.justBuf)
	return st.justBuf
}
