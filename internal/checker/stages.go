package checker

// The staged decide path. Each stage below is one named unit in an
// internal/pipeline pipeline; the checker's decide() is nothing but
// "run the pipeline over a decideState and return its decision". The
// stage order is the efficient execution order, which differs from
// the conceptual order in one place: the front-cache probe runs
// BEFORE bind, because its key is the raw shared-statement identity
// plus rendered session/args — a hit skips binding and translation
// entirely. DESIGN.md §9 documents the stages and their metric names.
//
// Pipeline invariants the stages maintain:
//
//   - st.d always holds the final Decision once the pipeline stops
//     (Done, Abort, or running off the end after "verdict").
//   - Abort is used only for context cancellation; an aborted
//     decision is never cached (the search did not finish, so a
//     template would poison future decisions).
//   - Decision.Tier is set only on the way out of a cache probe —
//     cached entries themselves store an empty Tier.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cq"
	"repro/internal/pipeline"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// decideState carries one decision through the staged pipeline. States
// are pooled (decidePool): the scratch fields at the bottom keep their
// capacity across decisions, which is what makes the warm tiers
// allocation-free. Nothing in a state may outlive decide() — the
// Decision is copied out by value, cover workers are joined before
// coverAll returns, and the caches copy in what they keep — so
// recycling can never alias into a cached or returned decision.
type decideState struct {
	c *Checker
	// ver is the policy version this decision is pinned to: the active
	// version for Check*, either half's version for CheckShadow. Every
	// cache key the stages build embeds ver.epoch.
	ver *polVersion

	// Inputs.
	sel     *sqlparser.SelectStmt
	args    sqlparser.Args
	session map[string]sqlvalue.Value
	tr      *trace.Trace

	// borrow marks a CheckBorrowed call: cache hits skip the defensive
	// Views copy and hand out the cache-owned slice read-only.
	borrow bool

	// Front-cache keying (stage "front").
	useFront bool
	fkey     frontKey

	// Interned session signature (front key prefix, gen-memo
	// namespace). sigDone distinguishes "not computed" from the empty
	// session's legitimately empty signature.
	sessSig string
	sigDone bool

	// Parameter-generic query templates (stage "bind").
	tpl []*cq.Query

	// Per-disjunct variable-occurrence censuses, memoized lazily so
	// the history-free probe and the cover stage share one
	// computation per decision (and cache hits never pay it).
	occ []occCensus

	// Session-generalized trace facts (stage "facts").
	facts    []cq.Fact
	factKeys []string

	// Full template-cache key (stage "template"), materialized only on
	// a miss for the verdict's Put; warm probes use keyBuf.
	key string

	// The verdict.
	d Decision

	// Pooled scratch, reused across decisions (capacity survives the
	// pool round-trip; contents never do).
	keyBuf  []byte        // rendered signatures and cache keys
	names   []string      // sort scratch for session/arg names
	tplKeys []string      // per-disjunct canonical keys, computed once
	cover   *coverScratch // the cold cover search's arrays (cover.go); nil until a decision goes cold
}

var decidePool = sync.Pool{New: func() any { return new(decideState) }}

// release zeroes the state and returns it to the pool, keeping only
// the scratch capacity. Pointerful scratch is cleared element-wise so
// a pooled idle state never pins a policy snapshot, statement, trace,
// or fact graph in memory.
func (st *decideState) release() {
	clear(st.tpl)
	for i := range st.occ {
		st.occ[i].reset()
	}
	clear(st.facts)
	clear(st.factKeys)
	clear(st.tplKeys)
	clear(st.names)
	if st.cover != nil {
		st.cover.release()
	}
	*st = decideState{
		keyBuf:   st.keyBuf[:0],
		names:    st.names[:0],
		tplKeys:  st.tplKeys[:0],
		tpl:      st.tpl[:0],
		occ:      st.occ[:0],
		facts:    st.facts[:0],
		factKeys: st.factKeys[:0],
		cover:    st.cover,
	}
	decidePool.Put(st)
}

// sessionSig computes (once) and interns the session signature.
func (st *decideState) sessionSig() string {
	if !st.sigDone {
		var buf []byte
		buf, st.names = appendSessionSig(st.keyBuf[:0], st.names, st.session)
		if len(buf) == 0 {
			st.sessSig = ""
		} else {
			st.sessSig = st.c.intern(buf)
		}
		st.keyBuf = buf[:0]
		st.sigDone = true
	}
	return st.sessSig
}

// newDecidePipeline assembles the decide pipeline over the checker's
// metrics registry. Stage metric names are
// pipeline.decide.<stage>.{runs,done,micros}.
func (c *Checker) newDecidePipeline() *pipeline.Pipeline[*decideState] {
	return pipeline.New("decide", c.reg,
		pipeline.Stage[*decideState]{Name: "front", Run: stageFront},
		pipeline.Stage[*decideState]{Name: "bind", Run: stageBind},
		pipeline.Stage[*decideState]{Name: "histfree", Run: stageHistFree},
		pipeline.Stage[*decideState]{Name: "facts", Run: stageFacts},
		pipeline.Stage[*decideState]{Name: "template", Run: stageTemplate},
		pipeline.Stage[*decideState]{Name: "cover", Run: stageCover},
		pipeline.Stage[*decideState]{Name: "verdict", Run: stageVerdict},
	)
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

// occs returns the per-disjunct occurrence censuses for the bound
// templates, computing them on first use. Warm decisions (front,
// histfree, template hits) never reach a caller of this.
func (st *decideState) occs() []occCensus {
	if len(st.occ) != len(st.tpl) {
		// Censuses past len keep their storage from earlier decisions.
		st.occ = resized(st.occ, len(st.tpl))
		for i, q := range st.tpl {
			st.occ[i].build(q)
		}
	}
	return st.occ
}

// tplCanonKeys returns the per-disjunct canonical keys, computed once
// per decision (the history-free and full template probes share them).
func (st *decideState) tplCanonKeys() []string {
	if len(st.tplKeys) != len(st.tpl) {
		st.tplKeys = st.tplKeys[:0]
		for _, q := range st.tpl {
			st.tplKeys = append(st.tplKeys, q.CanonicalKey())
		}
	}
	return st.tplKeys
}

// decide runs the staged pipeline for one check under the current
// active policy version, on a pooled state.
func (c *Checker) decide(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace, borrow bool) Decision {
	return c.decideVersion(ctx, c.vers.Load().active, sel, args, session, tr, borrow)
}

// decideVersion runs the staged pipeline pinned to one policy
// version. CheckShadow calls it twice on the same inputs — once with
// the active version, once with the candidate — so both halves run
// the identical pipeline and warm the same caches under their own
// epochs.
func (c *Checker) decideVersion(ctx context.Context, ver *polVersion, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace, borrow bool) Decision {
	st := decidePool.Get().(*decideState)
	st.c = c
	st.ver = ver
	st.sel = sel
	st.args = args
	st.session = session
	st.tr = tr
	st.borrow = borrow
	c.pipe.Run(ctx, st)
	d := st.d
	d.Epoch = ver.epoch
	st.release()
	return d
}

// stageFront probes the statement-identity front cache: an identical
// concrete check (same shared statement, principal, and arguments)
// whose decision is known to be trace-independent skips binding,
// translation, and template rendering entirely.
func stageFront(ctx context.Context, st *decideState) pipeline.Outcome {
	c := st.c
	if ctx.Err() != nil {
		st.d = canceledDecision(ctx)
		return pipeline.Abort
	}
	st.useFront = c.opts.UseCache && c.opts.UseHistory
	if !st.useFront {
		return pipeline.Continue
	}
	// Render session + args signatures into pooled scratch and intern
	// the result: on a warm key this is byte appends into retained
	// capacity plus a no-copy map lookup — no allocation.
	sess := st.sessionSig()
	buf := append(st.keyBuf[:0], sess...)
	buf = append(buf, 0)
	buf, st.names = appendArgsSig(buf, st.names, st.args)
	sig := c.intern(buf)
	st.keyBuf = buf[:0]
	st.fkey = frontKey{epoch: st.ver.epoch, sel: st.sel, sig: sig}
	if d, ok := c.frontGet(st.fkey); ok {
		if !st.borrow && len(d.Views) > 0 {
			// The front cache owns its Views; the safe API hands the
			// caller a private copy.
			d.Views = append([]string(nil), d.Views...)
		}
		d.FromCache = true
		d.Tier = TierFront
		st.d = d
		c.mFrontHit.Inc()
		return pipeline.Done
	}
	c.mFrontMiss.Inc()
	return pipeline.Continue
}

// stageBind normalizes the query into parameter-generic conjunctive
// templates: session attributes merge into the named arguments
// (?MyUId in an application query means the current principal), the
// statement is bound and translated to unions of conjunctive queries,
// and constants equal to session attributes are abstracted into
// parameters (the decision template). Bind or translation failures
// block conservatively and complete the pipeline.
func stageBind(ctx context.Context, st *decideState) pipeline.Outcome {
	c := st.c
	args := st.args
	if len(st.session) > 0 {
		merged := make(map[string]sqlvalue.Value, len(args.Named)+len(st.session))
		for k, v := range st.session {
			merged[k] = v
		}
		for k, v := range args.Named {
			merged[k] = v
		}
		args = sqlparser.Args{Positional: args.Positional, Named: merged}
	}
	bound, err := sqlparser.Bind(st.sel, args)
	if err != nil {
		st.d = Decision{Reason: fmt.Sprintf("bind: %v", err)}
		return pipeline.Done
	}
	ucq, err := c.tr.TranslateSelect(bound.(*sqlparser.SelectStmt))
	if err != nil {
		st.d = Decision{Reason: fmt.Sprintf("blocked conservatively: %v", err)}
		return pipeline.Done
	}

	generalize := constGeneralizer(st.session)
	st.tpl = st.tpl[:0]
	for _, q := range ucq {
		t := q.Substitute(generalize)
		// Substitute only rewrites vars/params; constants need the map
		// form below.
		st.tpl = append(st.tpl, generalizeConsts(t, st.session))
	}
	return pipeline.Continue
}

// stageHistFree is the history-free tier of the decision cache.
// Coverage is monotone in the trace facts (facts only add atoms a
// homomorphism may land on), so a template allowed with ZERO facts
// stays allowed under every trace. Such decisions cache on (policy,
// template) alone and never churn as the trace grows — without this,
// the full key below changes on every write and view-only-allowed hot
// queries would re-derive from scratch each request. A cached
// history-free DENIAL is only a marker that the template needs facts;
// it is never returned as the answer.
func stageHistFree(ctx context.Context, st *decideState) pipeline.Outcome {
	c := st.c
	if !(c.opts.UseCache && c.opts.UseHistory && st.tr != nil) {
		return pipeline.Continue
	}
	st.keyBuf = appendCacheKey(st.keyBuf[:0], st.ver.epoch, st.tplCanonKeys(), nil)
	if d, ok := c.cache.GetBytes(st.keyBuf, !st.borrow); ok {
		if d.Allowed {
			if st.useFront {
				c.frontPut(st.fkey, d)
			}
			d.FromCache = true
			d.Tier = TierHistFree
			st.d = d
			c.mHistFreeHit.Inc()
			return pipeline.Done
		}
		return pipeline.Continue // denial marker: the template needs facts
	}
	d := c.coverAll(ctx, st.ver.comp, st.tpl, st.occs(), nil, st.coverScratch())
	if ctx.Err() != nil {
		st.d = canceledDecision(ctx)
		return pipeline.Abort
	}
	c.cache.Put(string(st.keyBuf), d)
	if d.Allowed {
		if st.useFront {
			c.frontPut(st.fkey, d)
		}
		st.d = d
		return pipeline.Done
	}
	return pipeline.Continue
}

// stageFacts derives the session-generalized trace facts. factKeys
// carries each generalized fact's canonical string for the cache key,
// so it is rendered once per (fact, session shape), not per check.
func stageFacts(ctx context.Context, st *decideState) pipeline.Outcome {
	c := st.c
	if !c.opts.UseHistory || st.tr == nil {
		return pipeline.Continue
	}
	sig := st.sessionSig()
	var raw []cq.Fact
	var rawKeys []string
	if c.opts.UseFactCache {
		// Shared snapshot plus the canonical string of each raw fact,
		// rendered once at derivation — the memo keys below cost two
		// map lookups per fact, no rendering.
		raw, rawKeys = st.tr.FactsKeyed(st.ver.pol.Schema)
	} else {
		raw = trace.FactsUncached(st.ver.pol.Schema, st.tr)
	}
	st.facts = st.facts[:0]
	st.factKeys = st.factKeys[:0]
	var hits, misses int64
	for i, f := range raw {
		if i&63 == 63 && ctx.Err() != nil {
			st.d = canceledDecision(ctx)
			return pipeline.Abort
		}
		var rk string
		if rawKeys != nil {
			rk = rawKeys[i]
		}
		g, hit := c.generalizeFactMemo(f, rk, st.session, sig)
		if hit {
			hits++
		} else if c.opts.UseFactCache {
			misses++
		}
		st.facts = append(st.facts, g.f)
		st.factKeys = append(st.factKeys, g.key)
	}
	// One batched add per check instead of one atomic per fact — long
	// histories would otherwise pay fifty-plus counter bumps here.
	if hits > 0 {
		c.mGenHits.Add(hits)
	}
	if misses > 0 {
		c.mGenMisses.Add(misses)
	}
	return pipeline.Continue
}

// stageTemplate probes the full decision-template cache, keyed by
// (policy, templates, generalized facts).
func stageTemplate(ctx context.Context, st *decideState) pipeline.Outcome {
	c := st.c
	if !c.opts.UseCache {
		return pipeline.Continue
	}
	// factKeys is per-decision scratch whose order nothing else needs
	// (st.facts carries the facts for the cover stage), so sort it in
	// place — the key requires a canonical order, not this one.
	slices.Sort(st.factKeys)
	st.keyBuf = appendCacheKey(st.keyBuf[:0], st.ver.epoch, st.tplCanonKeys(), st.factKeys)
	if d, ok := c.cache.GetBytes(st.keyBuf, !st.borrow); ok {
		d.FromCache = true
		d.Tier = TierTemplate
		st.d = d
		c.mTemplateHit.Inc()
		return pipeline.Done
	}
	// Miss: materialize the key once for the verdict's Put.
	st.key = string(st.keyBuf)
	c.mTemplateMiss.Inc()
	return pipeline.Continue
}

// stageCover runs the policy-coverage decision procedure — the
// expensive embedding search — against the facts.
func stageCover(ctx context.Context, st *decideState) pipeline.Outcome {
	st.d = st.c.coverAll(ctx, st.ver.comp, st.tpl, st.occs(), st.facts, st.coverScratch())
	if ctx.Err() != nil {
		st.d = canceledDecision(ctx)
		return pipeline.Abort
	}
	return pipeline.Continue
}

// stageVerdict finalizes a cold decision: store the template so the
// next identical check hits a cache tier instead.
func stageVerdict(ctx context.Context, st *decideState) pipeline.Outcome {
	if st.c.opts.UseCache {
		st.c.cache.Put(st.key, st.d)
	}
	return pipeline.Continue
}
