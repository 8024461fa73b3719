package checker

// The staged decide path. Each stage below is one named entry of the
// checker's stage table; the checker's decide() is nothing but "run the
// table over a decideState and return its decision". DESIGN.md §9
// documents the stages and their metric names, §10.5 the statement
// plans the bind stage fills.
//
// Invariants the stages maintain:
//
//   - st.d always holds the final Decision once the table stops
//     (outDone, outAbort, or running off the end after "verdict").
//   - outAbort is used only for context cancellation; an aborted
//     decision is never cached (the search did not finish, so a
//     template would poison future decisions).
//   - Decision.Tier is set only on the way out of a cache probe —
//     cached entries themselves store an empty Tier.

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

// decideState carries one decision through the stage table. States
// are pooled (decidePool): the scratch fields at the bottom keep their
// capacity across decisions, which is what makes the warm tiers
// allocation-free. Nothing in a state may outlive decide() — the
// Decision is copied out by value, cover workers are joined before
// coverAll returns, and the caches copy in what they keep — so
// recycling can never alias into a cached or returned decision.
type decideState struct {
	c *Checker
	// ver is the policy version this decision is pinned to: the active
	// version for Check*, either half's version for CheckShadowBorrowed.
	// Every cache key the stages build embeds ver.epoch.
	ver *polVersion

	// Inputs.
	sel     *sqlparser.SelectStmt
	args    sqlparser.Args
	session map[string]sqlvalue.Value
	tr      *trace.Trace

	// borrow marks a CheckBorrowed call: cache hits skip the defensive
	// Views copy and hand out the cache-owned slice read-only.
	borrow bool

	// The statement's plan and this call's slot vector (stage "bind"):
	// raw values, and the term each is written as — the constant, or the
	// session attribute's parameter it equals.
	plan *cq.StmtPlan
	raw  []sqlvalue.Value
	gen  []cq.Term

	// Parameter-generic query templates: instantiated from the plan the
	// first time a stage has to search (a cache hit never builds them).
	tpl  []*cq.Query
	inst cq.Instantiation

	// entry is the decision cache's entry under the history-free key
	// (keyBuf): the one the history-free stage found or stored, or, with
	// no trace, the one the template stage found. nil when there is none.
	entry *cacheEntry
	// hfDenied marks a denial the history-free stage decided cold, left
	// in d: with no facts it is the verdict, whether or not the cache
	// kept it.
	hfDenied bool

	// Session-generalized trace facts (stage "facts"), each with its
	// interned id (factID).
	facts   []cq.Fact
	factIDs []uint64

	// The verdict.
	d Decision

	// Pooled scratch, reused across decisions (capacity survives the
	// pool round-trip; contents never do).
	keyBuf    []byte   // the decision-cache key: the probe's, kept for the verdict's store
	justBuf   []uint64 // the verdict's justification ids
	sigBuf    []byte   // the rendered session signature (stage "facts")
	attrs     []string // session attribute names, sorted (attrNames)
	attrsDone bool
	cover     *coverScratch // the cold cover search's arrays (cover.go); nil until a decision goes cold
}

var decidePool = sync.Pool{New: func() any { return new(decideState) }}

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
	if st.cover != nil {
		st.cover.release()
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
		cover:   st.cover,
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

// outcome is a stage's verdict on how the decide path proceeds.
type outcome int

const (
	// outNext passes control to the next stage.
	outNext outcome = iota
	// outDone ends the decision early with st.d: a cache tier answered,
	// or binding already decided.
	outDone
	// outAbort ends the decision without a reusable answer (context
	// cancellation); st.d carries the conservative verdict.
	outAbort
)

// The stage table's entries, in execution order.
const (
	stBind = iota
	stHistFree
	stFacts
	stTemplate
	stCover
	stVerdict
	numStages
)

// stage is one entry of the stage table: its name, which labels its
// metrics (pipeline.decide.<name>.{runs,done,micros}) and its span in a
// request's breakdown, the step itself, and its instruments (nil-safe
// no-ops under obsv.Disabled()).
type stage struct {
	name      string
	run       func(context.Context, *decideState) outcome
	runs      *obsv.Counter
	dones     *obsv.Counter
	latencies *obsv.Histogram
}

// sampleEvery is the latency sampling period of the stage table and the
// cold search's histograms: the first decision and every sampleEvery-th
// after it pay the clock reads; the rest increment counters only. A
// decision whose context carries an obsv.SpanSet is always timed (the
// caller asked for its breakdown), and every counter is exact — only
// the latency histograms are sampled. Sampling keeps the instrumented
// hot path inside its overhead budget on hosts with slow clock reads.
const sampleEvery = 8

// initStages fills the stage table and resolves its instruments in the
// checker's registry.
func (c *Checker) initStages() {
	c.stages = [numStages]stage{
		{name: "bind", run: stageBind},
		{name: "histfree", run: stageHistFree},
		{name: "facts", run: stageFacts},
		{name: "template", run: stageTemplate},
		{name: "cover", run: stageCover},
		{name: "verdict", run: stageVerdict},
	}
	for i := range c.stages {
		s := &c.stages[i]
		prefix := "pipeline.decide." + s.name
		s.runs = c.reg.Counter(prefix + ".runs")
		s.dones = c.reg.Counter(prefix + ".done")
		s.latencies = c.reg.Histogram(prefix + ".micros")
	}
	c.mDecideTotal = c.reg.Histogram("pipeline.decide.total.micros")
	c.mDecideAborts = c.reg.Counter("pipeline.decide.aborts")
}

// runStages runs the stage table over st until a stage ends the
// decision, counting every stage run, early answer and abort, and
// timing the stages (sampled; see sampleEvery) into their histograms
// and, when the context carries an obsv.SpanSet, into the request's
// breakdown.
func (c *Checker) runStages(ctx context.Context, st *decideState) {
	if !c.reg.Enabled() {
		// Metrics disabled: no clock reads, no counters, no span lookup.
		for i := range c.stages {
			if c.stages[i].run(ctx, st) != outNext {
				return
			}
		}
		return
	}
	spans := obsv.SpanSetFrom(ctx)
	if spans == nil && c.stageTick.Add(1)%sampleEvery != 1 {
		// Counted-only decision: exact counters, no clock reads.
		for i := range c.stages {
			s := &c.stages[i]
			s.runs.Inc()
			if out := s.run(ctx, st); out != outNext {
				c.countStop(s, out)
				return
			}
		}
		return
	}
	// Timed decision: clock reads are chained — one per stage boundary,
	// not two per stage.
	start := time.Now()
	prev := start
	for i := range c.stages {
		s := &c.stages[i]
		s.runs.Inc()
		out := s.run(ctx, st)
		now := time.Now()
		d := now.Sub(prev)
		prev = now
		s.latencies.Observe(d.Microseconds())
		spans.Record(s.name, d)
		if out != outNext {
			c.countStop(s, out)
			break
		}
	}
	c.mDecideTotal.Observe(prev.Sub(start).Microseconds())
}

// countStop counts a stage that ended the decision.
func (c *Checker) countStop(s *stage, out outcome) {
	if out == outDone {
		s.dones.Inc()
	} else {
		c.mDecideAborts.Inc()
	}
}

// coverScratch returns the state's cold-search scratch, allocated the
// first time a decision riding this pooled state goes cold, so warm
// decisions neither carry nor release it.
func (st *decideState) coverScratch() *coverScratch {
	if st.cover == nil {
		st.cover = new(coverScratch)
	}
	return st.cover
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

// decide runs the stage table for one check under the current active
// policy version, on a pooled state.
func (c *Checker) decide(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace, borrow bool) Decision {
	return c.decideVersion(ctx, c.vers.Load().active, sel, args, session, tr, borrow)
}

// decideVersion runs the stage table pinned to one policy version.
// CheckShadowBorrowed calls it twice on the same inputs — once with the
// active version, once with the candidate — so both halves run the
// identical stages and warm the same caches under their own epochs.
func (c *Checker) decideVersion(ctx context.Context, ver *polVersion, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace, borrow bool) Decision {
	st := decidePool.Get().(*decideState)
	st.c = c
	st.ver = ver
	st.sel = sel
	st.args = args
	st.session = session
	st.tr = tr
	st.borrow = borrow
	c.runStages(ctx, st)
	d := st.d
	d.Epoch = ver.epoch
	st.release()
	return d
}

// CheckCold decides the query from scratch under the active policy
// version: the stage table's bind, facts and cover entries, with no
// cache probe or store. It reads and writes no decision-cache tier (only
// the fact-generalization memo, whose entries are a pure function of
// their key), and counts no decision, so an oracle can call it beside
// Check without warming the tiers it checks. A canceled ctx yields the
// conservative blocked Decision. The Decision is owned by
// the caller, and Epoch is the deciding version's.
func (c *Checker) CheckCold(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) Decision {
	ver := c.vers.Load().active
	st := decidePool.Get().(*decideState)
	st.c, st.ver, st.sel, st.args, st.session, st.tr = c, ver, sel, args, session, tr
	for _, i := range [...]int{stBind, stFacts, stCover} {
		if c.stages[i].run(ctx, st) != outNext {
			break
		}
	}
	d := st.d
	d.Epoch = ver.epoch
	st.release()
	return d
}

// stageBind turns the call into a slot vector for the statement's plan
// (cq/plan.go): each slot's value — a literal of the statement, a
// positional argument, a named one, or the session attribute a query
// names (?MyUId means the current principal unless args.Named says
// otherwise) — and the term it is written as, which is the session
// attribute's parameter when the value equals one (the decision
// template: one cold decision serves every principal). Nothing is
// translated or copied here; templates() instantiates only if a later
// stage has to search. A call that lacks an argument blocks with Bind's
// own message, and a statement whose plan is refused blocks with the
// plan's reason. A canceled decision aborts here, before any work.
func stageBind(ctx context.Context, st *decideState) outcome {
	if ctx.Err() != nil {
		st.d = canceledDecision(ctx)
		return outAbort
	}
	plan := st.c.tr.Plan(st.sel)
	if err := st.bindPlan(plan); err != nil {
		st.d = Decision{Reason: "bind: " + err.Error()}
		return outDone
	}
	if r := plan.Refusal(); r != "" {
		st.d = Decision{Reason: r}
		return outDone
	}
	return outNext
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

// stageHistFree is the history-free tier of the decision cache.
// Coverage is monotone in the trace facts (facts only add atoms a
// homomorphism may land on), so a template allowed with ZERO facts
// stays allowed under every trace. Such decisions cache on (policy,
// template) alone and never churn as the trace grows. A cached
// history-free DENIAL is only a marker that the template needs facts;
// it is never returned as the answer here, and its entry is kept for
// the template stage, which probes the allows stored beside it.
func stageHistFree(ctx context.Context, st *decideState) outcome {
	c := st.c
	if st.tr == nil {
		return outNext
	}
	st.keyBuf = st.appendCacheKey(st.keyBuf[:0])
	if e := c.cache.Get(st.keyBuf); e != nil {
		st.entry = e
		if e.d.Allowed {
			st.d = hitDecision(e.d, TierHistFree, !st.borrow)
			c.mHistFreeHit.Inc()
			return outDone
		}
		return outNext // denial marker: the template needs facts
	}
	d := c.coverAll(ctx, st.ver.comp, st.templates(), st.plan.Census(), nil, st.coverScratch())
	if ctx.Err() != nil {
		st.d = canceledDecision(ctx)
		return outAbort
	}
	st.entry = c.store(st.keyBuf, d)
	st.d = d
	if d.Allowed {
		return outDone
	}
	st.hfDenied = true
	return outNext
}

// hitDecision is a cached decision as a tier hands it out: marked with
// the tier, and with its own copy of Views unless borrowed.
func hitDecision(d Decision, tier string, copyViews bool) Decision {
	if copyViews {
		d = ownViews(d)
	}
	d.FromCache = true
	d.Tier = tier
	return d
}

// stageFacts derives the session-generalized trace facts and their
// interned ids, memoized per (fact, session shape), not per check.
func stageFacts(ctx context.Context, st *decideState) outcome {
	c := st.c
	if st.tr == nil {
		return outNext
	}
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
			st.d = canceledDecision(ctx)
			return outAbort
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
	return outNext
}

// stageTemplate is the decision-template tier: the template's entry
// answers with the first allow stored under it whose justification is
// among the session's usable facts, or, when the session has none, with
// its history-free verdict (with no trace the history-free stage did
// not run, so that may be an allow).
func stageTemplate(ctx context.Context, st *decideState) outcome {
	c := st.c
	if st.tr == nil {
		st.keyBuf = st.appendCacheKey(st.keyBuf[:0])
		st.entry = c.cache.Get(st.keyBuf)
	}
	if e := st.entry; e != nil {
		if len(st.factIDs) == 0 {
			st.d = hitDecision(e.d, TierTemplate, !st.borrow)
			c.mTemplateHit.Inc()
			return outDone
		}
		if j := e.justifiedBy(st.factIDs); j != nil {
			st.d = hitDecision(j.d, TierTemplate, !st.borrow)
			c.mTemplateHit.Inc()
			return outDone
		}
	}
	c.mTemplateMiss.Inc()
	if st.hfDenied && len(st.factIDs) == 0 {
		// The history-free stage decided this very template on no
		// facts, and the cache declined it: its denial stands without a
		// second search.
		return outDone
	}
	return outNext
}

// stageCover runs the policy-coverage decision procedure — the
// expensive embedding search — against the facts.
func stageCover(ctx context.Context, st *decideState) outcome {
	st.d = st.c.coverAll(ctx, st.ver.comp, st.templates(), st.plan.Census(), st.facts, st.coverScratch())
	if ctx.Err() != nil {
		st.d = canceledDecision(ctx)
		return outAbort
	}
	return outNext
}

// stageVerdict offers a cold decision to the cache so that the next
// check it answers hits a cache tier instead. With no trace it is the
// template's history-free verdict. With one, an allow is stored under
// its justification beside that verdict, and a block is not stored: it
// was decided on facts, and the facts one session holds rarely come
// back together (DESIGN.md §6).
func stageVerdict(ctx context.Context, st *decideState) outcome {
	c := st.c
	if st.tr == nil {
		c.store(st.keyBuf, st.d)
		return outNext
	}
	if st.d.Allowed && !c.cache.Justify(st.keyBuf, st.justification(), st.d) {
		c.mDeclined.Inc()
	}
	return outNext
}

// justification returns the ids of the facts the cover stage's allow
// used (coverScratch.just), sorted and without repeats.
func (st *decideState) justification() []uint64 {
	st.justBuf = st.justBuf[:0]
	for _, fi := range st.cover.just {
		st.justBuf = append(st.justBuf, st.factIDs[fi])
	}
	slices.Sort(st.justBuf)
	st.justBuf = slices.Compact(st.justBuf)
	return st.justBuf
}
